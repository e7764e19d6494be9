#!/usr/bin/env python
"""Tiled full-domain super-resolution with the InferenceEngine.

The seed ``predict_grid`` path encodes the entire low-resolution domain in a
single U-Net pass, so peak memory grows with the domain volume.  This example
super-resolves a domain far larger than one training crop through
``repro.inference.InferenceEngine``, which

1. splits the domain into overlapping tiles aligned to the U-Net's pooling
   windows, with overlaps covering the encoder's receptive-field halo,
2. encodes each tile once, on demand, into a bounded LRU latent cache,
3. decodes query points in flat blocks, one ImNet call each, under autodiff
   ``inference_mode()``,
4. blends overlapping tiles with a smooth partition of unity — the result
   matches a single-tile (untiled) engine to floating-point round-off,
   which the script asserts (``max |tiled - single-tile| < 1e-8``) — and
5. keeps a serving-sized grid's block geometry, so a repeated grid request
   replays it bit for bit (section 4 times the first call and the replay,
   and counts the replay's minor page faults: with the allocator thresholds
   ``repro.backend`` pins at import they stay near zero, which the script
   asserts wherever the pin took effect).

Working memory is the tracemalloc peak minus the returned grid, which both
paths return in full.  Run with ``python examples/tiled_inference.py``.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

try:
    import resource
except ImportError:  # not a POSIX platform: no fault counter
    resource = None

import numpy as np

from repro.backend import numpy_backend
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.inference import InferenceEngine
from repro.simulation import synthetic_convection


def measure(fn):
    """Run ``fn`` and return (result, seconds, peak_bytes)."""
    tracemalloc.start()
    t0 = time.time()
    result = fn()
    elapsed = time.time() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def minor_faults() -> int:
    """Minor page faults of this process so far (0 where the platform has no counter)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nt", type=int, default=8, help="low-res time steps of the domain")
    parser.add_argument("--nz", type=int, default=32, help="low-res height of the domain")
    parser.add_argument("--nx", type=int, default=96, help="low-res width of the domain")
    parser.add_argument("--upsample", type=int, nargs=3, default=(2, 2, 2),
                        metavar=("FT", "FZ", "FX"), help="upsampling factors (t, z, x)")
    parser.add_argument("--tile", type=int, nargs=3, default=(8, 24, 24),
                        metavar=("T", "Z", "X"), help="low-res tile shape")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("=== 1. Generating a large low-resolution domain ===")
    sim = synthetic_convection(nt=args.nt, nz=args.nz, nx=args.nx, seed=args.seed)
    lowres = np.moveaxis(sim.fields, 1, 0)[None]  # (1, C, nt, nz, nx)
    print(f"    domain (N, C, nt, nz, nx) = {lowres.shape}")

    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
    print(f"    model parameters: {model.count_parameters()['total']}")
    print(f"    encoder receptive halo: {model.unet.receptive_halo()}")

    hr_shape = tuple(s * f for s, f in zip(lowres.shape[2:], args.upsample))
    n_points = int(np.prod(hr_shape))
    print(f"=== 2. Super-resolving to {hr_shape} ({n_points} query points) ===")

    single_engine = InferenceEngine(model)
    single, t_single, mem_single = measure(lambda: single_engine.predict_grid(lowres, hr_shape))
    print(f"    single tile: {t_single:6.2f}s   {n_points / t_single:10.0f} points/s   "
          f"peak {mem_single / 1e6:7.1f} MB   working {(mem_single - single.nbytes) / 1e6:7.1f} MB")

    tiled_engine = InferenceEngine(model, tile_shape=tuple(args.tile), cache_tiles=4)
    tiled, t_tiled, mem_tiled = measure(lambda: tiled_engine.predict_grid(lowres, hr_shape))
    print(f"    tiled:       {t_tiled:6.2f}s   {n_points / t_tiled:10.0f} points/s   "
          f"peak {mem_tiled / 1e6:7.1f} MB   working {(mem_tiled - tiled.nbytes) / 1e6:7.1f} MB")

    stats = tiled_engine.cache_stats
    print(f"=== 3. Tiling diagnostics ===")
    print(f"    tiles encoded: {stats.misses}   cache hits: {stats.hits}   "
          f"evictions: {stats.evictions}")
    error = np.abs(tiled - single).max()
    print(f"    max |tiled - single-tile| = {error:.3e}")
    assert error < 1e-8, f"tiled and single-tile grids differ by {error:.3e}"
    working_ratio = (mem_single - single.nbytes) / max(mem_tiled - tiled.nbytes, 1)
    print(f"    working-memory reduction: {working_ratio:.1f}x")

    # A serving-sized grid: its block geometry fits the engine's plan budget,
    # so the first call keeps it and a repeat replays it (and finds its tiles
    # cached) — only corner weights, gather, decode and blend are left.
    grid = (4, 32, 32)
    print(f"=== 4. A repeated {grid} grid request on one engine ===")
    engine = InferenceEngine(model, tile_shape=tuple(args.tile), cache_tiles=None)
    calls = []
    for _ in range(2):
        faults, t0 = minor_faults(), time.perf_counter()
        result = engine.predict_grid(lowres, grid)
        calls.append((result, time.perf_counter() - t0, minor_faults() - faults))
    (first, t_first, _), (replay, t_replay, replay_faults) = calls
    print(f"    first call (encodes, plans): {t_first * 1e3:7.1f} ms   replay: {t_replay * 1e3:7.1f} ms")
    assert np.array_equal(replay, first), "a replayed grid must be bit-identical to the first call"
    print("    replay bit-identical to the first call: True")
    print(f"    replay minor page faults: {replay_faults}")
    if resource and numpy_backend._MALLOC_PINNED:
        assert replay_faults <= 100, f"a warm grid call took {replay_faults} minor page faults"


if __name__ == "__main__":
    main()
