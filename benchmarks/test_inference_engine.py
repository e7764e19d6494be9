"""Throughput and peak-memory benchmark of the tiled inference engine.

Compares two ways of super-resolving a low-resolution domain whose volume is
several times larger than one tile:

* **direct** — the seed path (one full-domain U-Net encode, then chunked
  decoding), whose peak memory grows with the domain volume;
* **tiled**  — :class:`repro.inference.InferenceEngine` with overlapping
  tiles, a bounded LRU latent cache and fused batched decoding.

Both paths produce outputs equal to round-off (asserted here), while the
tiled path must cut *working* memory at least in half (the acceptance
criterion; in practice the ratio grows with the domain-to-tile volume
ratio).  Working memory is the tracemalloc peak minus the returned grid:
both paths return the same full-resolution array, and that array is the
caller's, not what tiling bounds.  Both peaks, both working-memory figures
and throughput (points/sec) are recorded in the benchmark extra info for
trend tracking.
"""

import numpy as np
import pytest

from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.inference import InferenceEngine

DOMAIN_SHAPE = (8, 64, 160)      # low-res vertices (t, z, x)
TILE_SHAPE = (8, 32, 48)         # ≥ 4x smaller than the domain by volume
OUTPUT_SHAPE = (16, 128, 320)    # 2x super-resolution along every axis


@pytest.fixture(scope="module")
def model():
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()


@pytest.fixture(scope="module")
def lowres():
    rng = np.random.default_rng(0)
    return rng.standard_normal((1, 4, *DOMAIN_SHAPE))


@pytest.mark.benchmark(group="inference-engine")
def test_tiled_vs_direct_memory_and_throughput(benchmark, model, lowres, run_traced):
    """Tiled inference halves working memory on a domain ≥ 4x one tile."""
    domain_volume = int(np.prod(DOMAIN_SHAPE))
    tile_volume = int(np.prod(TILE_SHAPE))
    assert domain_volume >= 4 * tile_volume

    direct_engine = InferenceEngine(model)
    direct, direct_peak = run_traced(
        lambda: direct_engine.predict_grid(lowres, OUTPUT_SHAPE))

    tiled_engine = InferenceEngine(model, tile_shape=TILE_SHAPE, cache_tiles=4)

    def tiled_run():
        return tiled_engine.predict_grid(lowres, OUTPUT_SHAPE)

    tiled, tiled_peak = run_traced(tiled_run)
    benchmark.pedantic(tiled_run, rounds=1, iterations=1)

    n_points = int(np.prod(OUTPUT_SHAPE))
    tiled_pps = n_points / benchmark.stats.stats.mean

    # Correctness: tiled output equals the direct decode to round-off.
    assert np.max(np.abs(tiled - direct)) < 1e-8
    # Within each pass every tile is encoded exactly once; across the two
    # passes the 4-tile LRU (deliberately smaller than the tile count, to
    # bound memory) has evicted the early tiles, so each pass re-encodes.
    layout_tiles = tiled_engine.open(lowres).layout.n_tiles
    assert layout_tiles > 4
    assert tiled_engine.cache_stats.misses == 2 * layout_tiles  # two tiled runs

    assert tiled.nbytes == direct.nbytes
    direct_working, tiled_working = direct_peak - direct.nbytes, tiled_peak - tiled.nbytes
    benchmark.extra_info.update({
        "points": n_points,
        "tiles": layout_tiles,
        "direct_peak_mb": round(direct_peak / 1e6, 2),
        "tiled_peak_mb": round(tiled_peak / 1e6, 2),
        "direct_working_mb": round(direct_working / 1e6, 2),
        "tiled_working_mb": round(tiled_working / 1e6, 2),
        "memory_reduction": round(direct_working / max(tiled_working, 1), 2),
        "tiled_points_per_sec": round(tiled_pps),
    })

    # Acceptance criterion: ≥ 2x working-memory reduction.
    assert tiled_working * 2 <= direct_working, (
        f"expected ≥2x working-memory reduction; direct={direct_working / 1e6:.1f} MB "
        f"tiled={tiled_working / 1e6:.1f} MB (peak minus the {direct.nbytes / 1e6:.1f} MB output)"
    )


@pytest.mark.benchmark(group="inference-engine")
def test_direct_reference_throughput(benchmark, model, lowres):
    """Reference timing of the untiled path on the same workload."""
    engine = InferenceEngine(model)
    benchmark.pedantic(lambda: engine.predict_grid(lowres, OUTPUT_SHAPE),
                       rounds=1, iterations=1)
    n_points = int(np.prod(OUTPUT_SHAPE))
    benchmark.extra_info["direct_points_per_sec"] = round(
        n_points / benchmark.stats.stats.mean)


@pytest.mark.benchmark(group="inference-engine")
def test_latent_cache_reuse_speeds_up_requery(benchmark, model, lowres):
    """Re-querying an open field hits the latent cache instead of re-encoding."""
    engine = InferenceEngine(model, tile_shape=TILE_SHAPE, cache_tiles=None)
    field = engine.open(lowres)
    coords = np.random.default_rng(1).random((20_000, 3))
    field.query(coords)  # warm the cache
    misses_before = engine.cache_stats.misses
    benchmark.pedantic(lambda: field.query(coords), rounds=1, iterations=1)
    assert engine.cache_stats.misses == misses_before
    assert engine.cache_stats.hits > 0
