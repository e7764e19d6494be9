"""Tiled batched inference subsystem for full-domain super-resolution.

The paper's headline capability is querying the continuous decoder at
arbitrary space-time points over large Rayleigh–Bénard domains.  This
package serves that workload with bounded memory and batched throughput:

* :mod:`~repro.inference.tiling` — overlapping, pooling-aligned tile layouts
  with smooth partition-of-unity blend weights;
* :mod:`~repro.inference.cache` — a bounded LRU cache of encoded latent
  tiles;
* :mod:`~repro.inference.planner` — a batched query planner that groups
  points by owning tile, in tile-major order;
* :mod:`~repro.inference.engine` — :class:`InferenceEngine`, the user-facing
  entry point, wired into ``MeshfreeFlowNet.predict_grid`` /
  ``super_resolve``.

Quickstart
----------
>>> from repro import MeshfreeFlowNet, MeshfreeFlowNetConfig
>>> from repro.inference import InferenceEngine
>>> model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
>>> engine = InferenceEngine(model, tile_shape=(4, 16, 16))
>>> # lowres: (N, C, nt, nz, nx) array; returns (N, C_out, 8, 64, 64)
>>> # sr = engine.predict_grid(lowres, (8, 64, 64))
"""

from .cache import CacheStats, LatentTileCache
from .engine import InferenceEngine, TiledLatentField
from .planner import GridQueryPlanner, QueryPlanner, TileGroup, pack_groups
from .tiling import AxisLayout, TileLayout, smoothstep

__all__ = [
    "InferenceEngine",
    "TiledLatentField",
    "LatentTileCache",
    "CacheStats",
    "QueryPlanner",
    "GridQueryPlanner",
    "TileGroup",
    "pack_groups",
    "TileLayout",
    "AxisLayout",
    "smoothstep",
]
