"""Tiled, batched, cached inference engine for full-domain super-resolution.

The seed implementation of :meth:`repro.core.model.MeshfreeFlowNet.predict_grid`
encodes the *entire* low-resolution domain in one U-Net pass, whose
intermediate activations dominate peak memory and grow linearly with the
domain volume.  :class:`InferenceEngine` bounds both memory and latency for
arbitrarily large domains:

* the domain is split into overlapping tiles (:mod:`repro.inference.tiling`)
  whose overlap covers the encoder's receptive-field halo, so every query
  decodes from latent vertices identical to a full-domain encode;
* each tile is encoded at most once and held in a bounded LRU cache
  (:mod:`repro.inference.cache`);
* query points are grouped by owning tile (:mod:`repro.inference.planner`)
  and decoded in flat blocks of bounded size — one ImNet call per block,
  no padding — under :func:`repro.autodiff.inference_mode`, with smooth
  partition-of-unity blending across tile overlaps;
* nothing is derived twice: the tile layout and the planner are kept per
  domain shape, tiles are cached channel-last, the layout the decode
  gathers from, and a dense grid's block geometry (rows, blend weights,
  vertex indices, fractions) is kept per domain shape, grid shape, dtype
  and batch size within a byte budget, so a repeated grid request only
  weighs corners, gathers, decodes and blends.

With ``tile_shape=None`` the engine runs in *direct* mode — a single tile
covering the whole domain — which reproduces the seed path exactly.  In
tiled mode the model is temporarily switched to eval mode around every tile
encode (and restored afterwards): batch-norm batch statistics would differ
between crops and make tiling ill-defined, whereas eval-mode running
statistics are crop-independent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import warnings
import weakref
from collections import OrderedDict
from typing import Hashable, NamedTuple, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, inference_mode
from ..backend import canonical_dtype, precision
from ..core.latent_grid import check_grid_shape, query_latent_grid, regular_grid_coordinates
from ..obs.trace import span as _span
from .cache import LatentTileCache
from .planner import GridQueryPlanner, QueryPlanner
from .tiling import TileLayout

__all__ = ["InferenceEngine", "TiledLatentField"]

#: Anonymous domain tokens are drawn from a process-wide counter so that
#: several engines sharing one :class:`LatentTileCache` (serving worker
#: replicas) can never alias each other's cache entries.
_TOKEN_COUNTER = itertools.count()
_TOKEN_LOCK = threading.Lock()

#: Query points planned per planning window of :meth:`TiledLatentField.query`;
#: bounds the planner's transient arrays on extremely large query sets.
_PLAN_WINDOW = 1 << 20

#: Bytes of block geometry an engine keeps for dense grids (:class:`_GridPlan`),
#: least recently used evicted first; a grid whose plan alone exceeds it streams.
_GRID_PLAN_BYTES = 4 << 20

#: A cell's eight corner offsets along ``(t, z, x)``, in :func:`query_latent_grid`'s order.
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)))


@functools.lru_cache(maxsize=64)
def _cell_constants(tile_shape: tuple, dtype: np.dtype):
    """What the block decode needs of a tile shape, as read-only arrays.

    ``(scale, last_cell, steps, corner_steps, corner_offsets)``: cells per
    unit of tile-local coordinate and the last cell's index along each axis
    (both in ``dtype``); the flat index step of one vertex along each axis of
    a channel-last tile — zero along a one-vertex axis, whose single cell has
    both its ends on vertex 0; and the eight corners' offsets from their
    cell's first vertex, as flat index steps ``(8, 1)`` and in ``dtype``
    ``(8, 1, 3)``, in :func:`query_latent_grid`'s corner order.
    """
    sizes = np.array(tile_shape)
    scale = np.maximum(sizes - 1, 1).astype(dtype)
    last_cell = np.maximum(sizes - 2, 0).astype(dtype)
    steps = np.array([tile_shape[1] * tile_shape[2], tile_shape[2], 1]) * (sizes > 1)
    corner_steps = (_CORNERS @ steps)[:, None]
    corner_offsets = _CORNERS[:, None, :].astype(dtype)
    constants = scale, last_cell, steps, corner_steps, corner_offsets
    for array in constants:
        array.setflags(write=False)
    return constants


class _BlockGeometry(NamedTuple):
    """Everything one block's decode needs that no latent value decides.

    ``pieces`` are ``(tile, n_points)`` in tile-major order; per point,
    ``rows`` is the output row, ``weights`` the blend weight, ``base`` the
    flat index of the cell's first vertex in its channel-last tile and
    ``rel`` the in-cell fraction, from which the corner weights follow.
    Under ``"nearest"`` interpolation ``base`` / ``rel`` refer to the
    nearest vertex instead.
    """

    pieces: tuple
    rows: np.ndarray
    weights: np.ndarray
    base: np.ndarray
    rel: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self[1:])


class _GridPlan:
    """The block geometries of one dense grid, kept for replay.

    Stored flat — one read-only array per :class:`_BlockGeometry` field,
    blocks end to end — and handed back block by block as views, so a kept
    plan costs its arrays and one ``(pieces, start, stop)`` triple per block.
    """

    def __init__(self, blocks: Sequence[_BlockGeometry]):
        bounds = np.cumsum([0] + [len(b.rows) for b in blocks]).tolist()
        self._spans = [(b.pieces, lo, hi) for b, lo, hi in zip(blocks, bounds[:-1], bounds[1:])]
        self._flat = _BlockGeometry((), *map(np.concatenate, zip(*(b[1:] for b in blocks))))
        for array in self._flat[1:]:
            array.setflags(write=False)
        self.nbytes = self._flat.nbytes

    def __iter__(self):
        _, rows, weights, base, rel = self._flat
        for pieces, lo, hi in self._spans:
            yield _BlockGeometry(pieces, rows[lo:hi], weights[lo:hi], base[lo:hi], rel[lo:hi])


@contextlib.contextmanager
def _eval_mode(module):
    """Run a block with all of ``module`` in eval mode, then put back the submodules that were training."""
    training = [m for m in module.modules() if m.training]
    for m in training:
        m.training = False
    try:
        yield
    finally:
        for m in training:
            m.training = True


class InferenceEngine:
    """Bounded-memory batched inference over large space-time domains.

    Parameters
    ----------
    model:
        A :class:`repro.core.model.MeshfreeFlowNet` (or any object exposing
        ``config``, ``unet``, ``imnet`` and ``latent_grid``).
    tile_shape:
        Low-resolution tile vertex counts ``(t, z, x)``.  ``None`` selects
        direct mode: one tile spanning the whole domain, numerically
        identical to the seed ``predict_grid`` path.
    halo:
        Per-axis encoder receptive-field half-width used to size tile
        overlaps.  Defaults to the exact bound
        :meth:`repro.core.unet.UNet3d.receptive_halo`; larger values are
        valid (more overlap), smaller values trade exactness for speed.
    ramp_width:
        Width (in low-resolution vertex units) of the smooth blending ramp
        inside each tile overlap.
    chunk_size:
        Upper bound on rows per decoder call in either mode, which bounds
        decode memory; a point decodes as eight rows per sample under
        trilinear interpolation (one per cell corner) and one under nearest,
        and a call takes at least one point.  Past ~15000 rows BLAS changes
        kernel and a coalesced request stops being bit-identical to the
        same request alone.
    cache_tiles:
        LRU capacity of the latent-tile cache, in tiles (``None`` for
        unbounded).  Queries are decoded in tile-major order, so even
        ``cache_tiles=1`` encodes each tile only once per pass.
    cache:
        An existing :class:`~repro.inference.cache.LatentTileCache` to use
        instead of constructing a private one (``cache_tiles`` is then
        ignored).  Serving worker pools pass one shared cache to all their
        engine replicas so a hot domain is encoded once for the whole pool.
    dtype:
        Precision of the engine's compute path (inputs, latent tiles,
        decode scratch and outputs).  ``None`` (default) follows the
        model's parameter dtype; an explicit value must *match* the model
        (cast the model first with ``model.astype``) and exists so serving
        fleets can state their precision contract.  Latent-cache keys
        embed the dtype, so float32 and float64 engines sharing one cache
        never alias each other's tiles.
    compile:
        Opt-in fused decode: the engine wraps the model's ImNet with
        :func:`repro.compile.compile` (``copy_outputs=False`` — decode
        batches are consumed immediately, so the allocation-free arena
        contract is safe) and routes every decoder call through the
        compiled plans.  Results are bit-identical to eager decoding;
        plans are keyed per batch shape and precision policy, and
        anything a plan cannot replay falls back to eager automatically.
        The wrapper owns mutable plan state, so it is per-engine (one
        engine per serving worker thread, as before).
    """

    def __init__(self, model, tile_shape: Optional[Sequence[int]] = None,
                 halo: Optional[Sequence[int]] = None, ramp_width: float = 2.0,
                 chunk_size: int = 4096, cache_tiles: Optional[int] = 32,
                 cache: Optional[LatentTileCache] = None,
                 dtype=None, compile: bool = False):
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.model = model
        self._dtype = None if dtype is None else canonical_dtype(dtype)
        if self._dtype is not None and self._dtype != model.dtype:
            raise ValueError(
                f"engine dtype {self._dtype.name} does not match model parameter dtype "
                f"{model.dtype.name}; cast the model first with model.astype({self._dtype.name!r})"
            )
        self.tile_shape = None if tile_shape is None else tuple(int(v) for v in tile_shape)
        if self.tile_shape is not None and len(self.tile_shape) != 3:
            raise ValueError(f"tile_shape must have 3 entries (t, z, x); got {self.tile_shape}")
        self.halo = tuple(model.unet.receptive_halo()) if halo is None else tuple(int(h) for h in halo)
        self.ramp_width = float(ramp_width)
        self.chunk_size = int(chunk_size)
        self.cache = cache if cache is not None else LatentTileCache(capacity=cache_tiles)
        self.compile = bool(compile)
        self._compiled_decoder = None
        if self.compile:
            from ..compile import compile as compile_module

            self._compiled_decoder = compile_module(model.imnet, copy_outputs=False)
        #: (weakref-to-array, token) pairs so that re-opening the *same*
        #: array object reuses its cache entries; weak references guarantee a
        #: recycled id can never alias a dead domain's latents.
        self._open_domains: list[tuple[weakref.ref, int]] = []
        self._domains_lock = threading.Lock()
        #: ``domain shape -> (TileLayout, QueryPlanner)``: both depend only on
        #: that shape and on fields fixed above, so each is built once.
        self._layouts: dict[tuple, tuple[TileLayout, QueryPlanner]] = {}
        #: ``(domain shape, output shape, dtype name, n_batch) -> _GridPlan``,
        #: least recently used first, within ``_GRID_PLAN_BYTES`` in total.
        self._grid_plans: OrderedDict[tuple, _GridPlan] = OrderedDict()
        self._grid_plan_bytes = 0
        self._grid_plans_lock = threading.Lock()
        if self.tile_shape is not None and getattr(model.config, "unet_norm", None) == "group":
            warnings.warn(
                "group normalisation computes statistics over the whole crop, so "
                "tiled encoding is only approximately equal to direct encoding",
                stacklevel=2,
            )

    @classmethod
    def for_scenario(cls, name: str, model=None, size: str = "tiny",
                     **engine_kwargs) -> "InferenceEngine":
        """Build an engine for a registered scenario (see :mod:`repro.scenarios`).

        ``model`` defaults to a freshly initialised scenario model of the
        given ``size`` preset; when provided, its channel layout is checked
        against the scenario's fields.  All other kwargs go to the engine
        constructor unchanged.
        """
        from ..scenarios import get_scenario  # lazy: avoids an import cycle

        scenario = get_scenario(name)
        if model is None:
            model = scenario.build_model(size)
        else:
            model_fields = getattr(getattr(model, "config", None), "field_names", None)
            if model_fields is not None and tuple(model_fields) != scenario.fields:
                raise ValueError(
                    f"model field_names {tuple(model_fields)} do not match scenario "
                    f"'{scenario.name}' fields {scenario.fields}"
                )
        return cls(model, **engine_kwargs)

    # ------------------------------------------------------------------ info
    @property
    def dtype(self) -> np.dtype:
        """Precision the engine computes in (the model's parameter dtype)."""
        return self._dtype if self._dtype is not None else self.model.dtype

    @property
    def is_exact(self) -> bool:
        """Whether tiled output provably matches direct decoding to round-off.

        Requires every encoder layer to be spatially local with crop-
        independent statistics: true in direct mode and for ``batch`` (eval
        mode) or ``none`` normalisation; false for ``group`` normalisation,
        whose statistics span the whole crop.
        """
        if self.tile_shape is None:
            return True
        return getattr(self.model.config, "unet_norm", None) != "group"

    @property
    def cache_stats(self):
        """Snapshot of the latent-tile LRU cache hit/miss/eviction counters."""
        return self.cache.stats()

    @property
    def decoder(self):
        """Decode callable: the compiled ImNet wrapper when opted in, else the ImNet."""
        return self._compiled_decoder if self._compiled_decoder is not None else self.model.imnet

    @property
    def compile_stats(self) -> Optional[dict]:
        """Compiled-decoder plan-cache statistics (``None`` when not compiled)."""
        return None if self._compiled_decoder is None else self._compiled_decoder.stats()

    # --------------------------------------------------------------- opening
    def open(self, lowres, key: Optional[Hashable] = None) -> "TiledLatentField":
        """Attach a low-resolution domain and return a lazily encoded field.

        No encoding happens here; tiles are encoded on first use by queries
        against the returned :class:`TiledLatentField`.  Opening the *same*
        array object again (directly or via repeated ``predict_grid`` /
        ``query_points`` calls) maps onto the same cache entries, so latents
        survive across calls up to the LRU capacity.  The cache holds the
        latents computed from the array's contents at encode time — after
        mutating the array in place, call ``engine.cache.clear()``.

        Parameters
        ----------
        key:
            Optional explicit cache identity for the domain.  Engines that
            share one :class:`LatentTileCache` (serving worker replicas)
            pass the same ``key`` so all replicas read and write the same
            latent entries; with ``key=None`` identity is the array object
            itself, which is private to this engine.
        """
        source = lowres.data if isinstance(lowres, Tensor) else np.asarray(lowres)
        if source.ndim != 5:
            raise ValueError(f"lowres must be 5-D (N, C, nt, nz, nx); got shape {source.shape}")
        domain_shape = source.shape[2:]
        planned = self._layouts.get(domain_shape)
        if planned is None:
            layout = TileLayout(
                domain_shape, self.tile_shape if self.tile_shape is not None else domain_shape,
                halo=self.halo, divisor=self.model.unet.required_divisor(),
                ramp_width=self.ramp_width,
            )
            # setdefault: of two threads opening a new shape at once, both get one pair.
            planned = self._layouts.setdefault(domain_shape, (layout, QueryPlanner(layout)))
        # Token identity is the *caller's* array object, before any precision
        # cast, so re-opening the same domain reuses cache entries even when
        # the engine casts a fresh float32 copy each time.
        token = ("named", key) if key is not None else self._domain_token(source)
        return TiledLatentField(self, source, *planned, token, self.dtype)

    def _domain_token(self, data: np.ndarray) -> int:
        """Cache-key token for a domain array; stable across re-opens."""
        with self._domains_lock:
            token = None
            alive: list[tuple[weakref.ref, int]] = []
            for ref, tok in self._open_domains:
                target = ref()
                if target is None:
                    continue
                alive.append((ref, tok))
                if target is data:
                    token = tok
            if token is None:
                with _TOKEN_LOCK:
                    token = next(_TOKEN_COUNTER)
                alive.append((weakref.ref(data), token))
            self._open_domains = alive
            return token

    def _grid_plan(self, key: tuple) -> Optional[_GridPlan]:
        """The kept plan of a dense grid, marked most recently used, or ``None``."""
        with self._grid_plans_lock:
            plan = self._grid_plans.get(key)
            if plan is not None:
                self._grid_plans.move_to_end(key)
            return plan

    def _keep_grid_plan(self, key: tuple, plan: _GridPlan) -> None:
        """Keep ``plan`` unless one is kept already, then evict LRU down to the budget."""
        with self._grid_plans_lock:
            if self._grid_plans.setdefault(key, plan) is not plan:
                return
            self._grid_plan_bytes += plan.nbytes
            while self._grid_plan_bytes > _GRID_PLAN_BYTES:
                self._grid_plan_bytes -= self._grid_plans.popitem(last=False)[1].nbytes

    # ------------------------------------------------------------ high level
    def query_points(self, lowres, coords: np.ndarray) -> np.ndarray:
        """Decode physical values at arbitrary global query coordinates.

        ``coords`` has shape ``(P, 3)``, normalised to ``[0, 1]`` over the
        whole domain; the result has shape ``(N, P, C_out)``.
        """
        return self.open(lowres).query(coords)

    def predict_grid(self, lowres, output_shape: Sequence[int]) -> np.ndarray:
        """Super-resolve onto a regular high-resolution grid.

        Drop-in equivalent of the seed
        :meth:`~repro.core.model.MeshfreeFlowNet.predict_grid`, returning an
        array of shape ``(N, C_out, nt_hr, nz_hr, nx_hr)``.
        """
        return self.open(lowres).predict_grid(output_shape)

    def super_resolve(self, lowres, upsample_factors: Sequence[int]) -> np.ndarray:
        """Super-resolve by integer upsampling factors along ``(t, z, x)``."""
        data = lowres.data if isinstance(lowres, Tensor) else np.asarray(lowres)
        factors = tuple(int(f) for f in upsample_factors)
        out_shape = tuple(s * f for s, f in zip(data.shape[2:], factors))
        return self.predict_grid(lowres, out_shape)


class TiledLatentField:
    """One low-resolution domain opened through an :class:`InferenceEngine`.

    Holds the tile layout and a cache token; latent tiles are encoded on
    demand (at most once while cached) and queries are decoded in
    bounded-memory blocks.  Obtain instances via
    :meth:`InferenceEngine.open` rather than constructing them directly.
    """

    def __init__(self, engine: InferenceEngine, lowres: np.ndarray, layout: TileLayout,
                 planner: QueryPlanner, token: int, dtype: np.dtype):
        self.engine = engine
        self.lowres = lowres
        self.layout = layout
        self.planner = planner
        self.token = token
        #: Precision of the compute path; crops are cast tile-by-tile at
        #: encode time so no full-domain copy is ever materialised.
        self.dtype = np.dtype(dtype)
        self._dtype_name = self.dtype.name  # cache-key part; the property rebuilds the string

    # ---------------------------------------------------------------- encode
    @property
    def n_batch(self) -> int:
        """Number of samples in the attached low-resolution batch."""
        return self.lowres.shape[0]

    def latent_tile(self, tile: int) -> np.ndarray:
        """Latent grid of one tile, shape ``(N, C_latent, *tile_shape)``.

        A transposed view of the cached tile, which is held channel-last
        (see :meth:`_latent_store`); the values are those of
        ``model.latent_grid`` on the tile's crop.
        """
        return self._latent_store(tile).transpose(0, 4, 1, 2, 3)

    def _latent_store(self, tile: int) -> np.ndarray:
        """The cached tile, ``(N, *tile_shape, C_latent)`` and C-contiguous.

        Channel-last, so that a vertex's latent vector is one contiguous row
        of ``store.reshape(N, -1, C_latent)`` and the block decode gathers
        with a single flat index.  Served from the engine's LRU cache; on a
        miss the tile's input slice is encoded with one U-Net forward pass
        under :func:`~repro.autodiff.inference_mode` (in eval mode when
        tiling, so normalisation statistics do not depend on the crop) and
        transposed once.
        """
        return self.engine.cache.get_or_create(
            (self.token, tile, self._dtype_name), lambda: self._encode(tile))

    def _encode(self, tile: int) -> np.ndarray:
        model = self.engine.model
        slices = self.layout.tile_slices(tile)
        crop = np.ascontiguousarray(
            self.lowres[(slice(None), slice(None), *slices)], dtype=self.dtype)
        # Direct mode mirrors the seed path bit-for-bit, including its use of
        # the model's current training/eval mode; tiles are encoded in eval mode.
        mode = contextlib.nullcontext() if self.layout.is_single_tile else _eval_mode(model.unet)
        with _span("engine.encode_tile", tile=tile, shape=str(crop.shape)), mode, \
                precision(self.dtype), inference_mode():
            latent = model.latent_grid(Tensor(crop)).data
        return np.ascontiguousarray(latent.transpose(0, 2, 3, 4, 1))

    # ----------------------------------------------------------------- query
    def query(self, coords: np.ndarray) -> np.ndarray:
        """Decode values at global query coordinates ``(P, 3)`` → ``(N, P, C_out)``.

        Coordinates are defined on ``[0, 1]`` per axis; in tiled mode
        out-of-range coordinates are clamped to the domain (the direct path
        inherits the seed behaviour of linearly extrapolating the boundary
        cell instead).

        Points are planned per window of ``_PLAN_WINDOW``; a window's plan
        is tile-major, so each latent tile is fetched (and, on a miss,
        encoded) once per pass whatever the cache capacity.  The plan is cut
        into blocks of at most ``engine.chunk_size`` decoder rows, each
        decoded in one flat decoder call and added into the output with the
        planner's partition-of-unity weights (:meth:`_decode_block`).
        """
        coords = np.asarray(coords, dtype=self.dtype)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must have shape (P, 3); got {coords.shape}")
        engine = self.engine
        model = engine.model
        n_batch = self.n_batch
        n_points = coords.shape[0]
        out_channels = model.config.out_channels
        out = np.zeros((n_batch, n_points, out_channels), dtype=self.dtype)
        if self.layout.is_single_tile:
            grid = Tensor(self.latent_tile(0))
            decoder = engine.decoder
            rows_per_point = 8 * n_batch if model.config.interpolation == "trilinear" else n_batch
            chunk = max(1, engine.chunk_size // rows_per_point)
            with precision(self.dtype), inference_mode():
                for start in range(0, n_points, chunk):
                    stop = min(start + chunk, n_points)
                    block = np.broadcast_to(coords[start:stop], (n_batch, stop - start, 3)).copy()
                    with _span("engine.decode_tile", tile=0, n_points=stop - start):
                        pred = query_latent_grid(grid, Tensor(block), decoder,
                                                 interpolation=model.config.interpolation)
                    out[:, start:stop, :] = pred.data
            return out
        for start in range(0, n_points, _PLAN_WINDOW):
            stop = min(start + _PLAN_WINDOW, n_points)
            for geometry in self._block_geometries(self.planner.plan(coords[start:stop])):
                self._decode_block(geometry, out[:, start:stop, :])
        return out

    def _block_geometries(self, groups):
        """Cut tile-major-ordered groups into flat blocks and yield each one's geometry.

        Groups are cut, order-preserving, into blocks of at most
        ``chunk_size // (8 * n_batch)`` points, so no decoder call sees more
        than ``engine.chunk_size`` rows; tile-major order means each latent
        tile is encoded once and then retired.
        """
        limit = max(1, self.engine.chunk_size // (8 * self.n_batch))
        block, room = [], limit  # (group, slice of it) pairs; points still free
        for group in groups:
            n, start = group.n, 0
            while start < n:
                stop = min(start + room, n)
                block.append((group, slice(start, stop)))
                room -= stop - start
                start = stop
                if room == 0:
                    yield self._block_geometry(block)
                    block, room = [], limit
        if block:
            yield self._block_geometry(block)

    def _block_geometry(self, block) -> _BlockGeometry:
        """The geometry half of a block decode: where each point sits, not what it reads.

        The block is flattened — its pieces' rows, tile-local coordinates and
        blend weights end to end, in tile-major order — and cell index and
        in-cell fraction (or, under ``"nearest"``, the nearest vertex) are
        those of :func:`~repro.core.latent_grid.query_latent_grid`, computed
        once in NumPy for the whole block.  Point queries and dense grids
        share this one statement of that arithmetic.
        """
        dt = self.dtype
        scale, last_cell, steps, _, _ = _cell_constants(self.layout.tile_shape, dt)
        rows = np.concatenate([g.rows[sel] for g, sel in block])
        weights = np.concatenate([g.weights[sel] for g, sel in block]).astype(dt, copy=False)
        local = np.concatenate([g.local_coords[sel] for g, sel in block]).astype(dt, copy=False)
        pos = local * scale
        cell = np.clip(np.floor(pos), 0, last_cell)
        frac = pos - cell
        base = cell.astype(np.intp) @ steps
        if self.engine.model.config.interpolation != "trilinear":
            nearest = (frac >= 0.5).astype(np.intp)
            base += nearest @ steps
            frac -= nearest.astype(dt)
        pieces = tuple((g.tile, sel.stop - sel.start) for g, sel in block)
        return _BlockGeometry(pieces, rows, weights, base, frac)

    def _decode_block(self, geometry: _BlockGeometry, out_view: np.ndarray) -> None:
        """The decode half: gather, one decoder call, corner blend, ordered scatter-add.

        A corner's latent vector is row ``base + corner step`` of its
        channel-last tile, so each tile is gathered with one flat index; the
        decoder gets one row per (sample, corner, point) and no padding.  The
        corner weights are ``query_latent_grid``'s products of ``1 - f`` or
        ``f`` per axis, formed separably; the eight corner predictions are
        summed in its corner order and the weighted values are added into
        ``out_view`` by one ``np.add.at``, which applies entries in order: a
        point covered by several tiles has them summed in ascending tile
        order, whichever other points share the block.  Reads ``geometry``
        and never writes it, so a kept grid plan replays through here.
        """
        dt = self.dtype
        n_batch = self.n_batch
        pieces, rows, weights, base, rel = geometry
        corner_w = None
        if self.engine.model.config.interpolation == "trilinear":
            _, _, _, corner_steps, corner_offsets = _cell_constants(self.layout.tile_shape, dt)
            g = np.stack([1 - rel, rel])  # a corner's factor along axis a: g[offset_a, :, a]
            corner_w = (g[:, None, None, :, 0] * g[None, :, None, :, 1]
                        * g[None, None, :, :, 2]).reshape(8, -1)
            vertex, rel = base + corner_steps, rel - corner_offsets
        else:
            vertex, rel = base[None], rel[None]
        stores = [self._latent_store(tile) for tile, _ in pieces]
        inputs = np.empty((n_batch, *vertex.shape, 3 + stores[0].shape[-1]), dtype=dt)
        inputs[..., :3] = rel
        lo = 0
        for store, (_, n) in zip(stores, pieces):
            hi = lo + n
            inputs[:, :, lo:hi, 3:] = store.reshape(n_batch, -1, store.shape[-1]).take(
                vertex[:, lo:hi], axis=1)
            lo = hi
        flat = inputs.reshape(-1, inputs.shape[-1])
        # One "nearest" point alone is decoded twice: a one-row matmul takes BLAS's
        # matrix-vector kernel, whose bits differ from what the row gets in a batch.
        feed = flat if len(flat) > 1 else np.repeat(flat, 2, axis=0)
        with _span("engine.decode_tile", n_tiles=len(pieces), n_points=len(rows)), \
                precision(dt), inference_mode():
            pred = self.engine.decoder(Tensor(feed)).data
        pred = pred[:len(flat)].reshape(*inputs.shape[:3], -1)
        if corner_w is not None:
            pred = pred * corner_w[None, :, :, None]
            for k in range(1, len(corner_w)):
                pred[:, 0] += pred[:, k]
        np.add.at(out_view, (slice(None), rows), pred[:, 0] * weights[None, :, None])

    # ------------------------------------------------------------ dense grid
    def predict_grid(self, output_shape: Sequence[int]) -> np.ndarray:
        """Super-resolve onto a regular grid ``(nt_hr, nz_hr, nx_hr)``.

        Returns an array of shape ``(N, C_out, nt_hr, nz_hr, nx_hr)``, in
        the same layout as the seed
        :meth:`~repro.core.model.MeshfreeFlowNet.predict_grid`.  In tiled
        mode the regular-grid structure is exploited: the separable
        :class:`~repro.inference.planner.GridQueryPlanner` plans per axis
        and streams tile-major groups, and the block geometries they cut
        into depend only on the domain shape, the grid shape, the dtype and
        the batch size.  So the engine keeps them, flat, per such key
        (:class:`_GridPlan`, within ``_GRID_PLAN_BYTES`` per engine, least
        recently used evicted first) and a repeated grid replays them
        through the same decode half; a grid whose plan alone would exceed
        the budget streams, with planning memory independent of the output
        volume.
        """
        output_shape = check_grid_shape(output_shape)
        if self.layout.is_single_tile:
            out = self.query(regular_grid_coordinates(output_shape, dtype=self.dtype))
        else:
            out = np.zeros((self.n_batch, int(np.prod(output_shape)),
                            self.engine.model.config.out_channels), dtype=self.dtype)
            self._decode_grid(output_shape, out)
        out = out.reshape(self.n_batch, *output_shape, -1)
        return np.moveaxis(out, -1, 1)

    def _decode_grid(self, output_shape: tuple, out: np.ndarray) -> None:
        """Decode a dense grid into ``out``: replay its kept plan, or plan it and keep it."""
        engine = self.engine
        key = (self.layout.domain_shape, output_shape, self._dtype_name, self.n_batch)
        plan = engine._grid_plan(key)
        if plan is not None:
            for geometry in plan:
                self._decode_block(geometry, out)
            return
        # Every grid point is planned at least once, so the first block's bytes
        # per point already tell whether the whole plan can fit the budget.
        kept, size, n_points = [], 0, out.shape[1]
        for geometry in self._block_geometries(GridQueryPlanner(self.layout).plan(output_shape)):
            self._decode_block(geometry, out)
            if kept is not None:
                kept.append(geometry)
                size += geometry.nbytes
                if max(size, geometry.nbytes * n_points / len(geometry.rows)) > _GRID_PLAN_BYTES:
                    kept = None
        if kept is not None:
            engine._keep_grid_plan(key, _GridPlan(kept))
