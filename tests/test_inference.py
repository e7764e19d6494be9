"""Tiled batched inference engine: equivalence, caching, planning, inference mode."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.autodiff import (
    Tensor,
    enable_grad,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    ops,
)
from repro.backend import precision
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.core.latent_grid import query_latent_grid, regular_grid_coordinates
from repro.inference import (
    GridQueryPlanner,
    InferenceEngine,
    LatentTileCache,
    QueryPlanner,
    TileGroup,
    TileLayout,
    pack_groups,
    smoothstep,
)


@pytest.fixture(scope="module")
def model():
    """Eval-mode tiny model shared by the equivalence tests (read-only)."""
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()


@pytest.fixture(scope="module")
def lowres():
    """A (1, 4, 4, 24, 40) low-resolution domain, larger than one crop."""
    rng = np.random.default_rng(42)
    return rng.standard_normal((1, 4, 4, 24, 40))


def tile_layout(domain=(4, 24, 40), tile=(4, 16, 16), halo=(3, 5, 5),
                divisor=(1, 2, 2), ramp_width=2.0) -> TileLayout:
    return TileLayout(domain, tile, halo=halo, divisor=divisor, ramp_width=ramp_width)


def reference_plan(layout: TileLayout, coords) -> "list[TileGroup]":
    """The loop planner ``QueryPlanner.plan`` replaced, kept as its bit-for-bit oracle.

    One pass per overlap combination (``np.add.at`` totals), then one pass
    per touched tile of each combination; groups are the per-tile parts
    concatenated in combination order, tiles ascending.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n_points = coords.shape[0]
    primary = np.empty((3, n_points), dtype=np.int64)
    weight = np.empty((3, n_points))
    has_secondary = np.empty((3, n_points), dtype=bool)
    positions = np.empty((3, n_points))
    for axis, ax in enumerate(layout.axes):
        pos = np.clip(coords[:, axis] * max(ax.size - 1, 1), 0.0, ax.size - 1)
        positions[axis] = pos
        primary[axis], weight[axis], has_secondary[axis] = ax.covering(pos)

    grid_shape = layout.grid_shape
    tile_lengths = np.array([max(ax.tile - 1, 1) for ax in layout.axes], dtype=np.float64)
    starts = [np.asarray(ax.starts, dtype=np.int64) for ax in layout.axes]

    by_tile = {}
    total = np.zeros(n_points)
    combos = []
    for offsets in itertools.product((0, 1), repeat=3):
        mask = np.ones(n_points, dtype=bool)
        w = np.ones(n_points)
        tile_axes = np.empty((3, n_points), dtype=np.int64)
        for axis, offset in enumerate(offsets):
            if offset == 0:
                w = w * weight[axis]
                tile_axes[axis] = primary[axis]
            else:
                mask &= has_secondary[axis]
                w = w * (1.0 - weight[axis])
                tile_axes[axis] = primary[axis] + 1
        mask &= w > 0.0
        if not np.any(mask):
            continue
        rows = np.nonzero(mask)[0]
        linear = np.ravel_multi_index(
            (tile_axes[0, rows], tile_axes[1, rows], tile_axes[2, rows]), grid_shape
        )
        combos.append((rows, linear, w[rows]))
        np.add.at(total, rows, w[rows])

    for rows, linear, w in combos:
        w = w / total[rows]
        for tile in np.unique(linear):
            sel = linear == tile
            tile_rows = rows[sel]
            start = np.array(
                [starts[a][idx] for a, idx in enumerate(layout.tile_index(int(tile)))],
                dtype=np.float64,
            )
            local = (positions[:, tile_rows].T - start) / tile_lengths
            by_tile.setdefault(int(tile), []).append((tile_rows, local, w[sel]))
    return [
        TileGroup(tile=tile, rows=np.concatenate([p[0] for p in parts]),
                  local_coords=np.concatenate([p[1] for p in parts], axis=0),
                  weights=np.concatenate([p[2] for p in parts]))
        for tile, parts in sorted(by_tile.items())
    ]


def assert_same_groups(groups, reference) -> None:
    """Same tiles in the same order, and every array equal in dtype, shape and value."""
    assert [g.tile for g in groups] == [g.tile for g in reference]
    for got, want in zip(groups, reference):
        assert type(got.tile) is int
        for name in ("rows", "local_coords", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


def assert_plan_matches_reference(layout: TileLayout, coords) -> "list[TileGroup]":
    """``QueryPlanner(layout).plan(coords)`` is the oracle's plan, bit for bit."""
    groups = QueryPlanner(layout).plan(coords)
    assert_same_groups(groups, reference_plan(layout, coords))
    total = np.zeros(len(coords))
    for group in groups:
        np.add.at(total, group.rows, group.weights)
    assert np.allclose(total, 1.0, rtol=0, atol=1e-12)
    return groups


def on_ramp_ends(layout: TileLayout) -> np.ndarray:
    """Every combination of per-axis coordinates sitting on a ramp end or a domain end."""
    per_axis = [np.array(sorted({0.0, float(ax.size - 1), *ax.ramp_lo, *ax.ramp_hi}))
                / max(ax.size - 1, 1) for ax in layout.axes]
    return np.array(list(itertools.product(*per_axis)))


@st.composite
def layouts(draw) -> TileLayout:
    """Valid layouts: one to a dozen tiles per axis, any halo / divisor / ramp width."""
    ramp_width = draw(st.sampled_from([0.0, 0.5, 2.0, 3.0]))
    domain, tile, halo, divisor = [], [], [], []
    for _ in range(3):
        d, h = draw(st.sampled_from([1, 2, 4])), draw(st.integers(0, 3))
        overlap = -(-(2 * h + 1 + ramp_width) // d) * d
        t = int(overlap) + d * draw(st.integers(1, 4))
        domain.append(t + d * draw(st.integers(0, 12)))  # + 0: a single tile on this axis
        tile.append(t)
        halo.append(h)
        divisor.append(d)
    return TileLayout(domain, tile, halo=halo, divisor=divisor, ramp_width=ramp_width)



class GridStub:
    """A "model" whose encoder is the identity and whose decoder has no matmul.

    With a zero halo the engine may tile axes of one or two vertices, which no
    U-Net allows; and the decoder is elementwise ``+ - *`` on a row's own
    columns, so a row's bits cannot depend on the rows it is batched with.
    Together they let the tiled engine be compared bit for bit, in either
    precision, with :func:`query_latent_grid` run one tile at a time.  Output
    channel 0 is latent channel 0 untouched: the plain interpolant of the field.
    """

    def __init__(self, interpolation="trilinear", dtype="float64"):
        self.config = SimpleNamespace(interpolation=interpolation, out_channels=2, unet_norm="none")
        self.unet = SimpleNamespace(receptive_halo=lambda: (0, 0, 0),
                                    required_divisor=lambda: (1, 1, 1), modules=lambda: [])
        self.dtype = np.dtype(dtype)

    def latent_grid(self, lowres: Tensor) -> Tensor:
        return lowres

    @staticmethod
    def imnet(x: Tensor) -> Tensor:
        rel, latent = x.data[..., :3], x.data[..., 3:]
        mixed = rel[..., 0] * latent[..., 1] + rel[..., 1] * rel[..., 2] - latent[..., 0] * rel[..., 2]
        return Tensor(np.stack([latent[..., 0], mixed], axis=-1))


def per_tile_reference(field, coords) -> np.ndarray:
    """What ``field.query(coords)`` must return, built the slow way.

    The ordered per-tile loop the flat decode replaced, with the tape's own
    cell / fraction / corner-weight arithmetic: every group of the plan is
    decoded alone by :func:`query_latent_grid` on ``latent_tile()`` and added
    into the output with its blend weights, tiles ascending.
    """
    model, dt = field.engine.model, field.dtype
    coords = np.asarray(coords, dtype=dt)
    out = np.zeros((field.n_batch, len(coords), model.config.out_channels), dtype=dt)
    with precision(dt), inference_mode():
        for group in field.planner.plan(coords):
            tile = field.latent_tile(group.tile)
            assert tile.shape == (field.n_batch, field.lowres.shape[1], *field.layout.tile_shape)
            local = np.repeat(group.local_coords.astype(dt)[None], field.n_batch, axis=0)
            pred = query_latent_grid(Tensor(tile), Tensor(local), model.imnet,
                                     interpolation=model.config.interpolation).data
            out[:, group.rows] += group.weights.astype(dt)[None, :, None] * pred
    return out


@st.composite
def stub_fields(draw):
    """A tiled field over a :class:`GridStub`, with query points that sit where rounding decides.

    Axes of one vertex, of two, and of up to nine, cut into tiles as short as
    two vertices; points on 0 and 1, on vertices (= cell boundaries of every
    tile), on ramp ends and outside the domain; both precisions and
    interpolations; blocks of one point up to the whole plan.
    """
    dtype = draw(st.sampled_from(["float64", "float32"]))
    interpolation = draw(st.sampled_from(["trilinear", "nearest"]))
    ramp_width = draw(st.sampled_from([0.0, 1.0, 2.0]))
    domain, tile = [], []
    for _ in range(3):
        size = draw(st.sampled_from([1, 2, 3, 4, 6, 9]))
        domain.append(size)
        tile.append(draw(st.integers(min(size, 2 + int(ramp_width)), size)))
    engine = InferenceEngine(GridStub(interpolation, dtype), tile_shape=tile, ramp_width=ramp_width,
                             chunk_size=draw(st.sampled_from([8, 24, 4096])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    field = engine.open(rng.standard_normal((draw(st.sampled_from([1, 2])), 2, *domain)))
    assume(not field.layout.is_single_tile)
    n_points = draw(st.integers(1, 40))
    coords = rng.uniform(-0.3, 1.3, (n_points, 3))
    ends = on_ramp_ends(field.layout)
    vertices = np.stack([rng.integers(0, size, n_points) / max(size - 1, 1) for size in domain], axis=1)
    pick = rng.random((n_points, 3))
    coords[pick < 0.1] = 0.0
    coords[pick > 0.9] = 1.0
    coords[(0.3 < pick) & (pick < 0.6)] = vertices[(0.3 < pick) & (pick < 0.6)]
    on_end = (0.15 < pick[:, 0]) & (pick[:, 0] < 0.25)
    coords[on_end] = ends[rng.integers(0, len(ends), int(on_end.sum()))]
    return field, coords


# --------------------------------------------------------------------------- #
# Tiled output == direct output                                               #
# --------------------------------------------------------------------------- #
@pytest.mark.float64_default
class TestTiledDirectEquivalence:
    @pytest.mark.parametrize("tile_shape,ramp_width", [
        ((4, 16, 16), 2.0),   # tiling along z and x
        ((4, 16, 24), 0.0),   # sharp (zero-width) hand-off
        ((4, 18, 20), 5.0),   # wide ramp, tile not dividing the domain
        ((4, 24, 16), 2.0),   # tiling along x only
    ])
    def test_predict_grid_matches_direct(self, model, lowres, tile_shape, ramp_width):
        """Tiled dense prediction equals the untiled path within 1e-8."""
        out_shape = (8, 32, 48)
        direct = model.predict_grid(Tensor(lowres), out_shape)
        tiled = model.predict_grid(Tensor(lowres), out_shape,
                                   tile_shape=tile_shape,
                                   engine=InferenceEngine(model, tile_shape=tile_shape,
                                                          ramp_width=ramp_width))
        assert tiled.shape == direct.shape
        assert np.max(np.abs(tiled - direct)) < 1e-8

    def test_time_axis_tiling(self, model):
        """Tiles that split the time axis also reproduce the direct result."""
        rng = np.random.default_rng(7)
        lowres = rng.standard_normal((1, 4, 16, 8, 8))
        direct = model.predict_grid(Tensor(lowres), (24, 12, 12))
        engine = InferenceEngine(model, tile_shape=(10, 8, 8), ramp_width=0.0)
        tiled = engine.predict_grid(lowres, (24, 12, 12))
        assert engine.open(lowres).layout.grid_shape[0] > 1
        assert np.max(np.abs(tiled - direct)) < 1e-8

    def test_scattered_points_match_direct(self, model, lowres):
        """field.query at arbitrary coordinates equals direct decoding."""
        rng = np.random.default_rng(3)
        coords = rng.random((500, 3))
        direct = InferenceEngine(model).query_points(lowres, coords)
        tiled = InferenceEngine(model, tile_shape=(4, 16, 16)).query_points(lowres, coords)
        assert np.max(np.abs(tiled - direct)) < 1e-8

    @pytest.mark.parametrize("dtype,tol", [("float64", 1e-8), ("float32", 1e-5)])
    def test_nearest_interpolation_matches_direct(self, lowres, dtype, tol):
        """``interpolation="nearest"`` (one corner per point) through the tiled engine."""
        cfg = MeshfreeFlowNetConfig.tiny(interpolation="nearest")
        nearest = MeshfreeFlowNet(cfg).eval().astype(dtype)
        direct = InferenceEngine(nearest)
        tiled = InferenceEngine(nearest, tile_shape=(4, 16, 16))
        coords = np.random.default_rng(3).random((500, 3))
        points = tiled.query_points(lowres, coords)
        grid = tiled.predict_grid(lowres, (8, 32, 48))
        assert points.dtype == grid.dtype == np.dtype(dtype)
        assert np.max(np.abs(points - direct.query_points(lowres, coords))) < tol
        assert np.max(np.abs(grid - direct.predict_grid(lowres, (8, 32, 48)))) < tol
        # One point is one decoder row; alone it must get the bits it gets in a batch.
        alone = np.concatenate([tiled.query_points(lowres, coords[i:i + 1]) for i in range(50)], 1)
        assert np.array_equal(alone, points[:, :50])

    def test_batched_samples(self, model):
        """Equivalence holds with more than one sample in the batch."""
        rng = np.random.default_rng(11)
        lowres = rng.standard_normal((2, 4, 4, 24, 24))
        direct = model.predict_grid(Tensor(lowres), (4, 24, 24))
        tiled = model.predict_grid(Tensor(lowres), (4, 24, 24), tile_shape=(4, 16, 16))
        assert np.max(np.abs(tiled - direct)) < 1e-8

    def test_larger_halo_still_exact(self, model, lowres):
        """Halo values above the exact bound only add overlap, never error."""
        engine = InferenceEngine(model, tile_shape=(4, 20, 20), halo=(4, 7, 7))
        direct = model.predict_grid(Tensor(lowres), (4, 24, 40))
        tiled = engine.predict_grid(lowres, (4, 24, 40))
        assert np.max(np.abs(tiled - direct)) < 1e-8

    def test_super_resolve_tiled(self, model, lowres):
        direct = model.super_resolve(Tensor(lowres), (2, 2, 2))
        tiled = model.super_resolve(Tensor(lowres), (2, 2, 2), tile_shape=(4, 16, 16))
        assert np.max(np.abs(tiled - direct)) < 1e-8

    def test_chunk_size_invariance(self, model, lowres):
        engine_small = InferenceEngine(model, tile_shape=(4, 16, 16), chunk_size=123)
        engine_large = InferenceEngine(model, tile_shape=(4, 16, 16), chunk_size=50_000)
        a = engine_small.predict_grid(lowres, (4, 24, 40))
        b = engine_large.predict_grid(lowres, (4, 24, 40))
        assert np.allclose(a, b)

    def test_group_norm_warns_and_is_marked_inexact(self):
        cfg = MeshfreeFlowNetConfig.tiny(unet_norm="group")
        gmodel = MeshfreeFlowNet(cfg).eval()
        with pytest.warns(UserWarning, match="group normalisation"):
            engine = InferenceEngine(gmodel, tile_shape=(4, 16, 16))
        assert not engine.is_exact
        assert InferenceEngine(gmodel).is_exact  # a single tile is always exact


# --------------------------------------------------------------------------- #
# Receptive-field halo                                                        #
# --------------------------------------------------------------------------- #
class TestReceptiveHalo:
    @pytest.mark.parametrize("pools", [((1, 2, 2),), ((2, 2, 2),), ((1, 1, 1),)])
    def test_halo_bounds_observed_receptive_field(self, pools):
        """Perturbing one input voxel changes latents only within the halo."""
        cfg = MeshfreeFlowNetConfig.tiny(unet_pool_factors=pools)
        net = MeshfreeFlowNet(cfg).eval().unet
        halo = net.receptive_halo()
        div = net.required_divisor()
        shape = tuple(int(np.ceil((4 * h + 2) / d) * d) for h, d in zip(halo, div))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, cfg.in_channels, *shape))
        centre = tuple(s // 2 for s in shape)
        x2 = x.copy()
        x2[(0, 0, *centre)] += 1.0
        with inference_mode():
            base = net(Tensor(x)).data
            pert = net(Tensor(x2)).data
        changed = np.argwhere(np.abs(pert - base).sum(axis=(0, 1)) > 1e-12)
        assert changed.size > 0
        for axis in range(3):
            reach = np.abs(changed[:, axis] - centre[axis]).max()
            assert reach <= halo[axis]

    def test_halo_grows_with_depth(self):
        shallow = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).unet.receptive_halo()
        deep = MeshfreeFlowNet(MeshfreeFlowNetConfig.small()).unet.receptive_halo()
        assert all(d > s for s, d in zip(shallow, deep))


# --------------------------------------------------------------------------- #
# LRU latent cache                                                            #
# --------------------------------------------------------------------------- #
class TestLatentTileCache:
    def test_hits_misses_evictions(self):
        cache = LatentTileCache(capacity=2)
        make = lambda v: (lambda: np.full((2, 2), float(v)))
        cache.get_or_create("a", make(1))
        cache.get_or_create("b", make(2))
        cache.get_or_create("a", make(1))          # hit, refreshes "a"
        cache.get_or_create("c", make(3))          # evicts "b" (LRU)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats().hits == 1
        assert cache.stats().misses == 3
        assert cache.stats().evictions == 1
        assert cache.stats().current_bytes == 2 * np.full((2, 2), 0.0).nbytes
        assert 0 < cache.stats().hit_rate < 1

    def test_unbounded_and_invalid_capacity(self):
        cache = LatentTileCache(capacity=None)
        for i in range(100):
            cache.get_or_create(i, lambda: np.zeros(1))
        assert len(cache) == 100 and cache.stats().evictions == 0
        with pytest.raises(ValueError):
            LatentTileCache(capacity=0)

    def test_field_reuse_hits_cache(self, model, lowres):
        """Re-querying an open field decodes from cached latents."""
        engine = InferenceEngine(model, tile_shape=(4, 16, 16), cache_tiles=None)
        field = engine.open(lowres)
        field.predict_grid((4, 24, 40))
        misses_first = engine.cache_stats.misses
        field.predict_grid((4, 24, 40))
        assert engine.cache_stats.misses == misses_first  # second pass: all hits
        assert engine.cache_stats.hits > 0

    def test_cross_call_reuse_on_same_array(self, model, lowres):
        """Repeated calls with the same input array share cache entries."""
        engine = InferenceEngine(model, tile_shape=(4, 16, 16), cache_tiles=None)
        model.predict_grid(Tensor(lowres), (4, 24, 40), engine=engine)
        misses_first = engine.cache_stats.misses
        model.predict_grid(Tensor(lowres), (4, 24, 40), engine=engine)
        assert engine.cache_stats.misses == misses_first
        assert engine.cache_stats.hits >= misses_first
        # A different array must not alias the cached latents.
        other = lowres.copy()
        out_other = engine.predict_grid(other, (4, 24, 40))
        assert engine.cache_stats.misses == 2 * misses_first
        assert np.allclose(out_other, engine.predict_grid(lowres, (4, 24, 40)))

    def test_tile_major_order_encodes_each_tile_once(self, model, lowres):
        """Even a capacity-1 cache encodes every tile exactly once per pass."""
        engine = InferenceEngine(model, tile_shape=(4, 16, 16), cache_tiles=1)
        field = engine.open(lowres)
        field.predict_grid((4, 24, 40))
        assert engine.cache_stats.misses == field.layout.n_tiles


# --------------------------------------------------------------------------- #
# Tiling and planning                                                         #
# --------------------------------------------------------------------------- #
class TestTilingAndPlanner:
    def test_partition_of_unity(self):
        layout = tile_layout()
        planner = QueryPlanner(layout)
        rng = np.random.default_rng(0)
        coords = rng.random((400, 3))
        groups = planner.plan(coords)
        total = np.zeros(400)
        for g in groups:
            np.add.at(total, g.rows, g.weights)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_plan_of_no_points_is_empty(self):
        assert QueryPlanner(tile_layout()).plan(np.empty((0, 3))) == []
        assert reference_plan(tile_layout(), np.empty((0, 3))) == []

    @pytest.mark.parametrize("layout", [
        tile_layout(),
        tile_layout(ramp_width=0.0),
        tile_layout(ramp_width=3.0, halo=(0, 2, 2), tile=(4, 12, 16)),
        tile_layout(domain=(8, 24, 40), tile=(4, 24, 16), halo=(0, 5, 5)),  # z: a single tile
        tile_layout(tile=(4, 24, 40)),                                       # one tile in all
    ], ids=["default", "ramp0", "ramp3", "single-z", "single-tile"])
    def test_plan_edge_cases_match_reference(self, layout):
        """One point, ramp ends, domain corners, clamping and float32 input."""
        ends = on_ramp_ends(layout)
        assert_plan_matches_reference(layout, ends)
        # Some ramp ends must really be hit, not just approached (rounding decides which).
        for axis, ax in enumerate(layout.axes):
            pos = set((ends[:, axis] * max(ax.size - 1, 1)).tolist())
            assert ax.n_tiles == 1 or (pos & set(ax.ramp_lo) and pos & set(ax.ramp_hi))
        for point in ends[:: max(1, len(ends) // 7)]:
            assert_plan_matches_reference(layout, point[None])
        outside = np.concatenate([ends - 0.25, ends + 0.25, 3.0 * ends - 1.0])
        assert_same_groups(assert_plan_matches_reference(layout, outside),
                           assert_plan_matches_reference(layout, np.clip(outside, 0.0, 1.0)))
        single = np.random.default_rng(3).random((50, 3)).astype(np.float32)
        for group in assert_plan_matches_reference(layout, single):  # planned in float64
            assert group.local_coords.dtype == group.weights.dtype == np.float64

    @settings(max_examples=120, deadline=None)
    @given(layout=layouts(), seed=st.integers(0, 2 ** 16), n_points=st.integers(0, 300),
           dtype=st.sampled_from([np.float64, np.float32]))
    def test_plan_matches_reference_on_random_layouts(self, layout, seed, n_points, dtype):
        """Same groups, tile order, rows, local coords and weights as the loop planner."""
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-0.1, 1.1, (n_points, 3))
        ends = on_ramp_ends(layout)
        pick = rng.random((n_points, 3))
        coords[pick < 0.1] = 0.0
        coords[pick > 0.9] = 1.0
        coords[(0.45 < pick) & (pick < 0.55)] = 0.5
        on_end = (0.2 < pick[:, 0]) & (pick[:, 0] < 0.35)
        coords[on_end] = ends[rng.integers(0, len(ends), int(on_end.sum()))]
        assert_plan_matches_reference(layout, coords.astype(dtype))

    def test_every_point_covered_with_local_coords_in_range(self):
        layout = tile_layout()
        groups = QueryPlanner(layout).plan(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                                                     [0.5, 0.5, 0.5]]))
        covered = sorted(set(int(r) for g in groups for r in g.rows))
        assert covered == [0, 1, 2]
        for g in groups:
            assert g.local_coords.min() >= 0.0 and g.local_coords.max() <= 1.0

    @pytest.mark.float64_default
    def test_grid_planner_matches_generic_planner(self):
        layout = tile_layout()
        shape = (6, 18, 22)
        coords = regular_grid_coordinates(shape)
        generic = {(g.tile, int(r)): w for g in QueryPlanner(layout).plan(coords)
                   for r, w in zip(g.rows, g.weights)}
        streamed = {(g.tile, int(r)): w for g in GridQueryPlanner(layout).plan(shape)
                    for r, w in zip(g.rows, g.weights)}
        assert set(streamed) == set(generic)
        for key, w in streamed.items():
            assert w == pytest.approx(generic[key], abs=1e-12)

    def test_grid_planner_is_tile_major(self):
        layout = tile_layout()
        tiles = [g.tile for g in GridQueryPlanner(layout).plan((6, 18, 22))]
        assert tiles == sorted(tiles)

    def test_smoothstep_properties(self):
        assert smoothstep(np.array(0.0)) == 0.0
        assert smoothstep(np.array(1.0)) == 1.0
        assert smoothstep(np.array(-5.0)) == 0.0 and smoothstep(np.array(7.0)) == 1.0
        u = np.linspace(0, 1, 101)
        s = smoothstep(u)
        assert np.all(np.diff(s) >= 0)                        # monotone
        assert np.allclose(s + smoothstep(1.0 - u), 1.0)      # exact complement

    def test_pack_groups_budget(self):
        layout = tile_layout()
        groups = QueryPlanner(layout).plan(np.random.default_rng(1).random((300, 3)))
        budget = 64
        batches = list(pack_groups(groups, budget=budget))
        assert sum(len(b) for b in batches) == len(groups)
        for batch in batches:
            width = max(g.n for g in batch)
            assert len(batch) == 1 or len(batch) * width <= budget
        assert [g.tile for b in batches for g in b] == [g.tile for g in groups]

    @pytest.mark.parametrize("n_batch", [1, 2])
    def test_decoder_calls_are_flat_bounded_and_unpadded(self, model, n_batch, monkeypatch):
        """Every decoder call is 2-D with 8..chunk_size rows; no row is padding."""
        chunk_size = 1000
        engine = InferenceEngine(model, tile_shape=(4, 16, 16), chunk_size=chunk_size)
        calls = []

        def recording_decoder(x):
            calls.append(x.shape)
            return model.imnet(x)

        monkeypatch.setattr(InferenceEngine, "decoder", property(lambda self: recording_decoder))
        lowres = np.random.default_rng(5).standard_normal((n_batch, 4, 4, 24, 40))
        field = engine.open(lowres)
        n_in = 3 + model.config.latent_channels
        for coords in (np.random.default_rng(6).random((700, 3)), np.full((1, 3), 0.25)):
            calls.clear()
            field.query(coords)
            assert all(len(shape) == 2 and shape[1] == n_in for shape in calls)
            assert all(8 <= shape[0] <= chunk_size for shape in calls)
            planned = sum(g.n for g in field.planner.plan(coords))
            assert sum(shape[0] for shape in calls) == 8 * n_batch * planned

    def test_planning_windows_do_not_change_the_result(self, model, lowres, monkeypatch):
        """Scattered points planned in several windows get the bits of one window."""
        from repro.inference import engine as engine_module

        plan, windows = QueryPlanner.plan, []

        def recording_plan(self, coords):
            windows.append(len(coords))
            return plan(self, coords)

        monkeypatch.setattr(QueryPlanner, "plan", recording_plan)
        coords = np.random.default_rng(8).random((700, 3))
        field = InferenceEngine(model, tile_shape=(4, 16, 16)).open(lowres)
        one_window = field.query(coords)
        assert windows == [700]
        monkeypatch.setattr(engine_module, "_PLAN_WINDOW", 256)
        windows.clear()
        assert np.array_equal(field.query(coords), one_window)
        assert windows == [256, 256, 188]

    def test_layout_validation_errors(self):
        with pytest.raises(ValueError, match="not divisible"):
            tile_layout(domain=(4, 25, 40))                   # domain vs divisor
        with pytest.raises(ValueError, match="not divisible"):
            tile_layout(tile=(4, 15, 16))                     # tile vs divisor
        with pytest.raises(ValueError, match="too small"):
            tile_layout(tile=(4, 12, 16))                     # tile vs halo
        with pytest.raises(ValueError, match="ramp_width"):
            tile_layout(ramp_width=-1.0)


# --------------------------------------------------------------------------- #
# The flat block decode and what the engine keeps between queries             #
# --------------------------------------------------------------------------- #
class TestFlatDecode:
    @settings(max_examples=150, deadline=None)
    @given(case=stub_fields())
    def test_decode_arithmetic_is_query_latent_grid_s(self, case):
        """``_decode_block`` states in NumPy what ``_blend_corners`` states on the tape.

        Same cell, fraction, corner weights, vertices and summation order, so
        the tiled query equals the per-tile ``query_latent_grid`` loop bit for
        bit; and tiled mode clamps what lies outside the domain.
        """
        field, coords = case
        got = field.query(coords)
        assert got.dtype == field.dtype
        assert np.array_equal(got, per_tile_reference(field, coords))
        assert np.array_equal(got, field.query(np.clip(coords, 0.0, 1.0)))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    def test_points_under_one_two_four_and_eight_tiles(self, interpolation, dtype):
        """A point's tiles are summed in ascending order whatever shares its block."""
        engine = InferenceEngine(GridStub(interpolation, dtype), tile_shape=(6, 6, 6), ramp_width=2.0)
        field = engine.open(np.random.default_rng(2).standard_normal((2, 2, 9, 9, 9)))
        assert field.layout.grid_shape == (2, 2, 2)
        # 0.5 is the middle of the one ramp of each axis, 0.125 is inside tile 0 only.
        coords = np.array([[0.5] * k + [0.125] * (3 - k) for k in range(4)]
                          + [[0.125] * (3 - k) + [0.5] * k for k in range(4)])
        covering = np.zeros(len(coords), dtype=int)
        for group in field.planner.plan(coords):
            covering[group.rows] += 1
        assert covering.tolist() == [1, 2, 4, 8, 1, 2, 4, 8]
        reference = per_tile_reference(field, coords)
        assert np.array_equal(field.query(coords), reference)
        # One point alone ("nearest": one decoder row, fed twice) gets the same bits.
        for i in range(len(coords)):
            assert np.array_equal(field.query(coords[i:i + 1]), reference[:, i:i + 1])

    def test_engine_clamps_where_the_tape_extrapolates(self):
        """The two documented out-of-range behaviours, on a field that is linear in x:
        the engine clamps in every layout, one tile included, and the tape's
        ``query_latent_grid`` continues the boundary cell."""
        lowres = np.zeros((1, 2, 2, 4, 9))
        lowres[:, 0] = np.arange(9.0)
        coords = np.array([[0.5, 0.5, 1.25], [0.5, 0.5, -0.125], [2.0, -1.0, 0.5]])
        single = InferenceEngine(GridStub()).open(lowres)
        tiled = InferenceEngine(GridStub(), tile_shape=(2, 4, 6), ramp_width=0.0).open(lowres)
        assert single.layout.is_single_tile and tiled.layout.n_tiles == 2
        with inference_mode():
            whole = query_latent_grid(Tensor(lowres), Tensor(coords[None]), GridStub.imnet).data
            clamped = query_latent_grid(Tensor(lowres), Tensor(np.clip(coords, 0.0, 1.0)[None]),
                                        GridStub.imnet).data
        assert whole[0, :, 0].tolist() == [10.0, -1.0, 4.0]  # the boundary cell, continued
        for field in (single, tiled):
            assert field.query(coords)[0, :, 0].tolist() == [8.0, 0.0, 4.0]  # the boundary value
            assert np.array_equal(field.query(coords), clamped)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_coalesced_query_equals_the_requests_alone(self, dtype):
        """Real ImNet, tiles along all three axes: a request's bits do not depend on its batch."""
        model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval().astype(dtype)
        field = InferenceEngine(model, tile_shape=(10, 16, 16)).open(
            np.random.default_rng(4).standard_normal((1, 4, 16, 24, 24)))
        assert min(field.layout.grid_shape) > 1
        rng = np.random.default_rng(9)
        requests = [rng.random((n, 3)) for n in (1, 16, 2, 64, 7)]
        together = field.query(np.concatenate(requests))
        alone = np.concatenate([field.query(coords) for coords in requests], axis=1)
        assert together.dtype == np.dtype(dtype) and np.array_equal(together, alone)


class TestEngineKeepsWhatItDerived:
    def test_open_reuses_layout_and_planner_per_domain_shape(self, model, lowres):
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        first, again = engine.open(lowres), engine.open(lowres.copy(), key="other")
        assert again.layout is first.layout and again.planner is first.planner
        assert first.planner.layout is first.layout

    def test_two_domain_shapes_on_one_engine_do_not_alias(self, model, lowres):
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        small = np.random.default_rng(6).standard_normal((1, 4, 4, 24, 24))
        coords = np.random.default_rng(7).random((40, 3))
        fields = [engine.open(lowres), engine.open(small), engine.open(lowres)]
        assert fields[0].layout is fields[2].layout and fields[0].layout is not fields[1].layout
        assert fields[0].layout.domain_shape == (4, 24, 40)
        assert fields[1].layout.domain_shape == (4, 24, 24)
        for field, domain in zip(fields, (lowres, small, lowres)):
            fresh = InferenceEngine(model, tile_shape=(4, 16, 16)).query_points(domain, coords)
            assert np.array_equal(field.query(coords), fresh)

    def test_engine_dtype_follows_an_in_place_cast(self):
        """``engine.dtype`` is read, not remembered: ``Module.astype`` casts in place."""
        net = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
        engine = InferenceEngine(net, tile_shape=(4, 16, 16))
        assert engine.dtype == net.dtype
        net.astype("float32" if net.dtype == np.float64 else "float64")
        assert engine.dtype == net.dtype
        lowres = np.random.default_rng(1).standard_normal((1, 4, 4, 24, 24))
        assert engine.query_points(lowres, np.full((3, 3), 0.5)).dtype == net.dtype

    @pytest.mark.parametrize("tile_shape", [None, (4, 16, 16)])
    def test_latent_tile_is_the_model_s_latent_grid_of_the_crop(self, model, lowres, tile_shape):
        """Cached channel-last, handed out channel-first: shape and values as before."""
        field = InferenceEngine(model, tile_shape=tile_shape).open(lowres)
        tile = field.layout.n_tiles - 1
        crop = lowres[(slice(None), slice(None), *field.layout.tile_slices(tile))]
        with inference_mode():
            expected = model.latent_grid(Tensor(np.ascontiguousarray(crop, dtype=field.dtype))).data
        latent = field.latent_tile(tile)
        assert latent.shape == (1, model.config.latent_channels, *field.layout.tile_shape)
        assert np.array_equal(latent, expected)
        assert np.shares_memory(latent, field.latent_tile(tile))       # a view of the cache entry
        assert latent.transpose(0, 2, 3, 4, 1).flags.c_contiguous      # which is channel-last


def stub_engine(layout: TileLayout, interpolation: str, dtype: str, chunk_size: int = 4096):
    """A :class:`GridStub` engine that tiles every domain of ``layout``'s shape as ``layout`` does."""
    engine = InferenceEngine(GridStub(interpolation, dtype), tile_shape=layout.tile_shape,
                             ramp_width=layout.ramp_width, chunk_size=chunk_size)
    engine._layouts[layout.domain_shape] = (layout, QueryPlanner(layout))
    return engine


class TestGridPlanReplay:
    """A dense grid's block geometry is planned once per key and replayed bit for bit."""

    SHAPES = [(1, 24, 40), (4, 1, 9), (5, 17, 33)]

    @pytest.mark.parametrize("n_batch", [1, 2])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    def test_replay_is_bit_identical(self, interpolation, dtype, n_batch, monkeypatch):
        """First call, replay, a fresh engine and a streamed decode give the same bits."""
        from repro.inference import engine as engine_module

        model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(interpolation=interpolation)).eval()
        model.astype(dtype)
        lowres = np.random.default_rng(12).standard_normal((n_batch, 4, 4, 24, 40))
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        first = {shape: engine.predict_grid(lowres, shape) for shape in self.SHAPES}
        assert len(engine._grid_plans) == len(self.SHAPES)
        fresh = InferenceEngine(model, tile_shape=(4, 16, 16))
        for shape, want in first.items():
            assert want.dtype == np.dtype(dtype) and want.shape == (n_batch, 4, *shape)
            assert np.array_equal(engine.predict_grid(lowres, shape), want)  # replay
            assert np.array_equal(fresh.predict_grid(lowres, shape), want)
        monkeypatch.setattr(engine_module, "_GRID_PLAN_BYTES", 0)
        streamed = InferenceEngine(model, tile_shape=(4, 16, 16))
        for shape, want in first.items():
            assert np.array_equal(streamed.predict_grid(lowres, shape), want)
        assert not streamed._grid_plans and streamed._grid_plan_bytes == 0

    @settings(max_examples=60, deadline=None)
    @given(layout=layouts(), shape=st.tuples(*[st.integers(1, 12)] * 3),
           interpolation=st.sampled_from(["trilinear", "nearest"]),
           dtype=st.sampled_from(["float64", "float32"]), n_batch=st.sampled_from([1, 2]),
           chunk_size=st.sampled_from([8, 24, 4096]), seed=st.integers(0, 2 ** 16))
    def test_replay_is_bit_identical_on_random_layouts(self, layout, shape, interpolation, dtype,
                                                       n_batch, chunk_size, seed):
        assume(not layout.is_single_tile)
        from repro.inference import engine as engine_module

        lowres = np.random.default_rng(seed).standard_normal((n_batch, 2, *layout.domain_shape))
        engine = stub_engine(layout, interpolation, dtype, chunk_size)
        first = engine.predict_grid(lowres, shape)
        assert list(engine._grid_plans) == [(layout.domain_shape, shape, dtype, n_batch)]
        assert np.array_equal(engine.predict_grid(lowres, shape), first)
        assert np.array_equal(stub_engine(layout, interpolation, dtype, chunk_size)
                              .predict_grid(lowres, shape), first)
        budget = engine_module._GRID_PLAN_BYTES
        try:
            engine_module._GRID_PLAN_BYTES = 0
            streamed = stub_engine(layout, interpolation, dtype, chunk_size)
            assert np.array_equal(streamed.predict_grid(lowres, shape), first)
            assert not streamed._grid_plans
        finally:
            engine_module._GRID_PLAN_BYTES = budget

    def test_a_new_key_plans_and_a_kept_one_replays(self, model, lowres, monkeypatch):
        """Domain shape, grid shape and batch size key a plan; the domain's values do not."""
        other = np.random.default_rng(13).standard_normal(lowres.shape)
        want = InferenceEngine(model, tile_shape=(4, 16, 16)).predict_grid(other, (4, 24, 40))
        planned, plan = [], GridQueryPlanner.plan
        monkeypatch.setattr(GridQueryPlanner, "plan",
                            lambda self, shape: planned.append(shape) or plan(self, shape))
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        dt = engine.dtype.name
        engine.predict_grid(lowres, (4, 24, 40))
        assert np.array_equal(engine.predict_grid(other, (4, 24, 40)), want)
        assert planned == [(4, 24, 40)]
        engine.predict_grid(lowres, (4, 24, 41))
        engine.predict_grid(np.concatenate([lowres, other]), (4, 24, 40))
        engine.predict_grid(lowres[..., :24], (4, 24, 40))
        assert len(planned) == 4
        assert list(engine._grid_plans) == [
            ((4, 24, 40), (4, 24, 40), dt, 1), ((4, 24, 40), (4, 24, 41), dt, 1),
            ((4, 24, 40), (4, 24, 40), dt, 2), ((4, 24, 24), (4, 24, 40), dt, 1)]
        for kept in engine._grid_plans.values():
            assert all(not g.rows.flags.writeable and not g.rel.flags.writeable for g in kept)

    def test_float32_and_float64_keep_separate_plans(self, lowres):
        """Two precisions sharing one tile cache, and one engine whose model is cast in place."""
        cache = LatentTileCache(capacity=None)
        nets = {dt: MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval().astype(dt)
                for dt in ("float64", "float32")}
        for dt, net in nets.items():
            engine = InferenceEngine(net, tile_shape=(4, 16, 16), cache=cache)
            out = engine.predict_grid(lowres, (4, 24, 40))
            assert out.dtype == np.dtype(dt)
            assert np.array_equal(engine.predict_grid(lowres, (4, 24, 40)), out)
            assert np.array_equal(out, InferenceEngine(net, tile_shape=(4, 16, 16))
                                  .predict_grid(lowres, (4, 24, 40)))
            (key, kept), = engine._grid_plans.items()
            assert key[2] == dt and all(g.weights.dtype == np.dtype(dt) for g in kept)
        net = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval().astype("float64")
        engine = InferenceEngine(net, tile_shape=(4, 16, 16), cache=cache)
        engine.predict_grid(lowres, (4, 24, 40))
        net.astype("float32")
        out = engine.predict_grid(lowres, (4, 24, 40))
        assert [key[2] for key in engine._grid_plans] == ["float64", "float32"]
        assert np.array_equal(out, InferenceEngine(net, tile_shape=(4, 16, 16))
                              .predict_grid(lowres, (4, 24, 40)))

    def test_budget_evicts_least_recently_used(self, model, lowres, monkeypatch):
        from repro.inference import engine as engine_module

        shapes = [(4, 24, 40), (4, 24, 41), (4, 24, 42)]
        probe = InferenceEngine(model, tile_shape=(4, 16, 16))
        sizes = {}
        for shape in shapes:
            probe.predict_grid(lowres, shape)
            sizes[shape] = probe._grid_plans[(4, 24, 40), shape, probe.dtype.name, 1].nbytes
        budget = sizes[shapes[0]] + sizes[shapes[2]]
        assert budget < sum(sizes.values())
        monkeypatch.setattr(engine_module, "_GRID_PLAN_BYTES", budget)
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        for shape in (shapes[0], shapes[1], shapes[0], shapes[2]):  # shapes[1] is least recent
            engine.predict_grid(lowres, shape)
            kept = engine._grid_plans.values()
            assert engine._grid_plan_bytes == sum(p.nbytes for p in kept) <= budget
        assert [key[1] for key in engine._grid_plans] == [shapes[0], shapes[2]]

    def test_oversize_grid_keeps_no_plan_and_gives_the_same_bits(self, model, lowres, monkeypatch):
        from repro.inference import engine as engine_module

        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        want = engine.predict_grid(lowres, (4, 24, 40))
        (kept,) = engine._grid_plans.values()
        monkeypatch.setattr(engine_module, "_GRID_PLAN_BYTES", kept.nbytes - 1)
        built = []
        monkeypatch.setattr(engine_module, "_GridPlan", lambda blocks: built.append(blocks))
        streamed = InferenceEngine(model, tile_shape=(4, 16, 16))
        assert np.array_equal(streamed.predict_grid(lowres, (4, 24, 40)), want)
        # Not built and dropped: the blocks were let go as soon as they could not fit.
        assert built == [] and not streamed._grid_plans and streamed._grid_plan_bytes == 0


# --------------------------------------------------------------------------- #
# Engine API surface                                                          #
# --------------------------------------------------------------------------- #
class TestEngineAPI:
    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    @pytest.mark.parametrize("chunk_size", [48, 130, 4096])
    def test_single_tile_bounds_decoder_rows(self, interpolation, chunk_size, monkeypatch):
        """A single tile cuts a query so no decoder call sees more than
        ``chunk_size`` rows (eight per point and sample under trilinear
        interpolation, one under nearest), and the cut moves no bits: the
        result is one whole-query ``query_latent_grid`` call, byte for byte."""
        config = dataclasses.replace(MeshfreeFlowNetConfig.tiny(), interpolation=interpolation)
        model = MeshfreeFlowNet(config).eval()
        rng = np.random.default_rng(5)
        domain = rng.standard_normal((2, 4, 2, 8, 8))
        points = rng.random((302, 3))
        engine = InferenceEngine(model, chunk_size=chunk_size)
        with precision(model.dtype), inference_mode():
            whole = query_latent_grid(
                Tensor(engine.open(domain).latent_tile(0)),
                Tensor(np.broadcast_to(points.astype(model.dtype), (2, *points.shape)).copy()),
                model.imnet, interpolation=interpolation).data
        rows, forward = [], model.imnet.forward
        monkeypatch.setattr(model.imnet, "forward",
                            lambda x: rows.append(int(np.prod(x.shape[:-1]))) or forward(x))
        out = engine.query_points(domain, points)
        assert rows and max(rows) <= chunk_size
        assert out.shape == whole.shape and np.array_equal(out.view(np.uint8), whole.view(np.uint8))

    def test_invalid_arguments(self, model, lowres):
        with pytest.raises(ValueError):
            InferenceEngine(model, chunk_size=0)
        with pytest.raises(ValueError):
            InferenceEngine(model, tile_shape=(4, 16))
        with pytest.raises(ValueError):
            InferenceEngine(model).open(np.zeros((4, 8, 8)))
        with pytest.raises(ValueError):
            InferenceEngine(model).open(lowres).query(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            InferenceEngine(model).predict_grid(lowres, (4, 16))

    @pytest.mark.parametrize("tile_shape", [None, (4, 16, 16)])
    @pytest.mark.parametrize("shape", [(0, 4, 4), (-2, 4, 4), (4, 16)])
    def test_grid_shape_must_be_three_positive_ints(self, model, lowres, tile_shape, shape):
        """A zero or negative axis is an error in both modes, and no plan is kept for it."""
        engine = InferenceEngine(model, tile_shape=tile_shape)
        with pytest.raises(ValueError, match="output_shape must be 3 positive ints"):
            engine.predict_grid(lowres, shape)
        with pytest.raises(ValueError, match="output_shape must be 3 positive ints"):
            engine.super_resolve(lowres, (2, 0, 2))
        with pytest.raises(ValueError, match="output_shape must be 3 positive ints"):
            model.super_resolve(Tensor(lowres), (2, 0, 2), tile_shape=tile_shape)
        assert not engine._grid_plans and engine.cache_stats.misses == 0

    @pytest.mark.float64_default
    def test_direct_mode_matches_manual_decode(self, model, lowres):
        """A single tile reproduces encode-once + chunked-decode semantics."""
        from repro.autodiff import no_grad

        out_shape = (4, 24, 40)
        engine_out = InferenceEngine(model).predict_grid(lowres, out_shape)
        coords = regular_grid_coordinates(out_shape)
        with no_grad():
            grid = model.latent_grid(Tensor(lowres))
            pred = model.decode(grid, Tensor(coords[None])).data
        manual = np.moveaxis(pred.reshape(1, *out_shape, -1), -1, 1)
        assert np.allclose(engine_out, manual)

    def test_tiled_encode_restores_training_mode(self, model, lowres):
        model.train()
        try:
            engine = InferenceEngine(model, tile_shape=(4, 16, 16))
            engine.predict_grid(lowres, (4, 24, 40))
            assert model.unet.training
        finally:
            model.eval()

    def test_open_is_lazy(self, model, lowres):
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        field = engine.open(lowres)
        assert engine.cache_stats.misses == 0
        assert field.n_batch == 1
        assert field.layout.n_tiles > 1


# --------------------------------------------------------------------------- #
# autodiff inference_mode                                                     #
# --------------------------------------------------------------------------- #
class TestInferenceMode:
    def test_no_graph_is_recorded(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with inference_mode():
            y = ops.mul(x, x)
            assert not y.requires_grad and y.is_leaf()
        assert is_grad_enabled() and not is_inference_mode()

    def test_matches_normal_forward(self):
        rng = np.random.default_rng(0)
        a, b = rng.random((4, 5)), rng.random((5, 3))
        normal = ops.matmul(Tensor(a), Tensor(b)).data
        with inference_mode():
            fast = ops.matmul(Tensor(a), Tensor(b)).data
        assert np.array_equal(normal, fast)

    def test_flags_and_nesting(self):
        assert not is_inference_mode()
        with inference_mode():
            assert is_inference_mode() and not is_grad_enabled()
            with inference_mode():
                assert is_inference_mode()
            assert is_inference_mode()
        assert not is_inference_mode() and is_grad_enabled()

    def test_enable_grad_rejected_inside(self):
        with inference_mode():
            with pytest.raises(RuntimeError):
                with enable_grad():
                    pass  # pragma: no cover

    def test_model_forward_under_inference_mode(self, model, lowres):
        coords = np.random.default_rng(5).random((1, 7, 3))
        expected = model(Tensor(lowres), Tensor(coords)).data
        with inference_mode():
            fast = model(Tensor(lowres), Tensor(coords)).data
        assert np.allclose(expected, fast)


# --------------------------------------------------------------------------- #
# Concurrent engine use (serving workers share the engine and cache)          #
# --------------------------------------------------------------------------- #
class TestConcurrentEngineUse:
    def test_cache_single_flight_under_contention(self):
        """Concurrent misses on one key run the factory exactly once."""
        import threading

        cache = LatentTileCache(capacity=4)
        calls = []
        gate = threading.Barrier(8)

        def factory():
            calls.append(1)
            return np.zeros(3)

        def worker():
            gate.wait()
            cache.get_or_create("tile", factory)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 7

    def test_cache_factory_failure_releases_waiters(self):
        """A failing encode does not deadlock waiters; the key stays absent."""
        cache = LatentTileCache(capacity=4)
        with pytest.raises(RuntimeError):
            cache.get_or_create("bad", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert "bad" not in cache
        assert np.array_equal(cache.get_or_create("bad", lambda: np.ones(2)), np.ones(2))

    def test_cache_invalidate(self):
        cache = LatentTileCache(capacity=None)
        cache.get_or_create(("a", 0), lambda: np.zeros(2))
        cache.get_or_create(("a", 1), lambda: np.zeros(2))
        cache.get_or_create(("b", 0), lambda: np.zeros(2))
        assert cache.invalidate(lambda key: key[0] == "a") == 2
        assert ("a", 0) not in cache and ("b", 0) in cache
        assert cache.stats().current_bytes == np.zeros(2).nbytes

    def test_threaded_grid_plans_stay_within_budget(self, monkeypatch):
        """Threads planning, replaying and evicting grid plans on one engine lose no bytes."""
        import sys
        import threading

        from repro.inference import engine as engine_module

        lowres = np.random.default_rng(14).standard_normal((1, 2, 6, 9, 9))
        engine = stub_engine(TileLayout((6, 9, 9), (4, 6, 6), halo=(0, 0, 0), divisor=(1, 1, 1),
                                        ramp_width=1.0), "trilinear", "float64")
        shapes = [(2, 2, n) for n in range(2, 12)]
        want = {shape: engine.predict_grid(lowres, shape) for shape in shapes}
        budget = 2 * max(p.nbytes for p in engine._grid_plans.values())
        monkeypatch.setattr(engine_module, "_GRID_PLAN_BYTES", budget)
        engine._grid_plans.clear()
        engine._grid_plan_bytes = 0
        errors, interval = [], sys.getswitchinterval()

        def client(k):
            try:
                for i in range(100):
                    shape = shapes[(k + i) % len(shapes)]
                    assert np.array_equal(engine.predict_grid(lowres, shape), want[shape])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert engine._grid_plan_bytes == sum(p.nbytes for p in engine._grid_plans.values()) <= budget

    @pytest.mark.parametrize("tile_shape", [None, (4, 16, 16)])
    def test_threaded_queries_match_single_threaded(self, model, lowres, tile_shape):
        """Multi-threaded clients on one shared engine reproduce serial results."""
        import threading

        engine = InferenceEngine(model, tile_shape=tile_shape, cache_tiles=None)
        rng = np.random.default_rng(11)
        point_sets = [rng.random((17, 3)) for _ in range(6)]
        grid_shape = (4, 24, 40)
        expected_points = [engine.query_points(lowres, c) for c in point_sets]
        expected_grid = engine.predict_grid(lowres, grid_shape)

        results = [None] * len(point_sets)
        grids = [None] * 2
        errors = []

        def point_client(i):
            try:
                results[i] = engine.query_points(lowres, point_sets[i])
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def grid_client(i):
            try:
                grids[i] = engine.predict_grid(lowres, grid_shape)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=point_client, args=(i,))
                   for i in range(len(point_sets))]
        threads += [threading.Thread(target=grid_client, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for got, want in zip(results, expected_points):
            assert np.array_equal(got, want)
        for got in grids:
            assert np.array_equal(got, expected_grid)

    def test_shared_cache_across_engine_replicas(self, model, lowres):
        """Replica engines sharing a cache reuse latents via a named key."""
        from repro.inference import LatentTileCache as Cache

        shared = Cache(capacity=None)
        replicas = model.replicate(2)
        engines = [InferenceEngine(r, tile_shape=(4, 16, 16), cache=shared)
                   for r in replicas]
        coords = np.random.default_rng(3).random((9, 3))
        first = engines[0].open(lowres, key="dom").query(coords)
        misses = shared.stats().misses
        field = engines[1].open(lowres, key="dom")
        second = field.query(coords)
        assert shared.stats().misses == misses  # replica 2 decoded from cache
        assert np.array_equal(first, second)
        # ... from the very arrays replica 1 stored, whatever their layout in the cache.
        for tile in [group.tile for group in field.planner.plan(coords)]:
            assert np.shares_memory(field.latent_tile(tile),
                                    engines[0].open(lowres, key="dom").latent_tile(tile))
        assert shared.stats().misses == misses

    def test_replicate_shares_weight_arrays(self, model):
        """Shared-parameter replicas alias the source arrays exactly."""
        (replica,) = model.replicate(1)
        source = dict(model.named_parameters())
        for name, param in replica.named_parameters():
            assert param.data is source[name].data
        copy, = model.replicate(1, share_parameters=False)
        for name, param in copy.named_parameters():
            assert param.data is not source[name].data
            assert np.array_equal(param.data, source[name].data)

    def test_inference_mode_is_thread_local(self):
        """A worker's inference_mode must not leak into other threads."""
        import threading

        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def worker():
            with inference_mode():
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(timeout=10)
            observed["inference"] = is_inference_mode()
            observed["grad"] = is_grad_enabled()
        finally:
            release.set()
            thread.join()
        assert observed == {"inference": False, "grad": True}
        # And the worker's exit leaves this thread's state untouched.
        assert not is_inference_mode() and is_grad_enabled()
