"""Latent context grid querying: interpolation correctness and differentiability."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, grad, ops
from repro.core.imnet import ImNet
from repro.core.latent_grid import (
    query_latent_grid,
    query_latent_grid_jets,
    regular_grid_coordinates,
    trilinear_weights_numpy,
)


def identity_decoder(coord_dim=3):
    """A decoder that returns the latent part unchanged (pure trilinear sampling)."""
    return lambda inp: inp[..., coord_dim:]


class TestRegularGridCoordinates:
    def test_shape_and_range(self):
        coords = regular_grid_coordinates((3, 4, 5))
        assert coords.shape == (60, 3)
        assert coords.min() == 0.0 and coords.max() == 1.0

    def test_single_point_axis(self):
        coords = regular_grid_coordinates((1, 2, 2))
        assert np.all(coords[:, 0] == 0.0)

    def test_ordering_matches_reshape(self):
        coords = regular_grid_coordinates((2, 2, 2))
        grid = coords[:, 2].reshape(2, 2, 2)
        assert np.allclose(grid[0, 0], [0.0, 1.0])

    @pytest.mark.parametrize("shape", [(0, 4, 4), (-2, 4, 4), (4, 4), (1, 2, 3, 4)])
    def test_shape_must_be_three_positive_ints(self, shape):
        """A zero or negative axis is an error, not one point."""
        with pytest.raises(ValueError, match="output_shape must be 3 positive ints"):
            regular_grid_coordinates(shape)


class TestTrilinearWeights:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=3, max_size=3))
    def test_partition_of_unity(self, frac):
        w = trilinear_weights_numpy(np.array(frac))
        assert np.sum(w) == pytest.approx(1.0)
        assert np.all(w >= 0)

    def test_corner_exactness(self):
        w = trilinear_weights_numpy(np.array([0.0, 0.0, 0.0]))
        assert w[0] == pytest.approx(1.0)
        w = trilinear_weights_numpy(np.array([1.0, 1.0, 1.0]))
        assert w[-1] == pytest.approx(1.0)


class TestQueryLatentGrid:
    def test_output_shape(self, rng):
        grid = Tensor(rng.standard_normal((2, 5, 3, 4, 4)))
        coords = Tensor(rng.random((2, 7, 3)))
        out = query_latent_grid(grid, coords, identity_decoder())
        assert out.shape == (2, 7, 5)

    def test_exact_at_vertices(self, rng):
        """Querying exactly at grid vertices returns the stored latent vectors."""
        grid_np = rng.standard_normal((1, 4, 3, 3, 3))
        grid = Tensor(grid_np)
        coords_np = regular_grid_coordinates((3, 3, 3))[None]
        out = query_latent_grid(grid, Tensor(coords_np), identity_decoder()).data
        expected = grid_np.transpose(0, 2, 3, 4, 1).reshape(1, -1, 4)
        assert np.allclose(out, expected, atol=1e-12)

    def test_reproduces_trilinear_functions(self, rng):
        """A field linear in each coordinate is reproduced exactly by trilinear blending."""
        nt, nz, nx = 4, 5, 6
        tt, zz, xx = np.meshgrid(np.linspace(0, 1, nt), np.linspace(0, 1, nz),
                                 np.linspace(0, 1, nx), indexing="ij")
        field = 2.0 * tt - 3.0 * zz + 0.5 * xx + 1.0
        grid = Tensor(field[None, None])
        coords_np = rng.random((1, 50, 3))
        out = query_latent_grid(grid, Tensor(coords_np), identity_decoder()).data[0, :, 0]
        expected = (2.0 * coords_np[0, :, 0] - 3.0 * coords_np[0, :, 1]
                    + 0.5 * coords_np[0, :, 2] + 1.0)
        assert np.allclose(out, expected, atol=1e-10)

    def test_nearest_mode_returns_vertex_values(self, rng):
        grid_np = rng.standard_normal((1, 2, 2, 2, 2))
        coords = Tensor(np.array([[[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]]))
        out = query_latent_grid(Tensor(grid_np), coords, identity_decoder(), interpolation="nearest").data
        assert np.allclose(out[0, 0], grid_np[0, :, 0, 0, 0])
        assert np.allclose(out[0, 1], grid_np[0, :, 1, 1, 1])

    def test_gradient_wrt_coords(self, rng):
        """d(output)/d(coords) matches the analytic slope of a linear field."""
        nt, nz, nx = 3, 3, 3
        tt, zz, xx = np.meshgrid(np.linspace(0, 1, nt), np.linspace(0, 1, nz),
                                 np.linspace(0, 1, nx), indexing="ij")
        field = 4.0 * tt + 2.0 * zz - 1.0 * xx
        grid = Tensor(field[None, None])
        coords = Tensor(rng.random((1, 10, 3)) * 0.8 + 0.1, requires_grad=True)
        out = query_latent_grid(grid, coords, identity_decoder())
        g = grad(ops.sum(out), coords)
        assert np.allclose(g.data[..., 0], 4.0, atol=1e-8)
        assert np.allclose(g.data[..., 1], 2.0, atol=1e-8)
        assert np.allclose(g.data[..., 2], -1.0, atol=1e-8)

    def test_gradient_flows_to_grid(self, rng):
        grid = Tensor(rng.standard_normal((1, 3, 2, 2, 2)), requires_grad=True)
        coords = Tensor(rng.random((1, 5, 3)))
        out = query_latent_grid(grid, coords, identity_decoder())
        g = grad(ops.sum(out), grid)
        assert g is not None and g.shape == grid.shape

    def test_degenerate_single_vertex_axis(self, rng):
        grid = Tensor(rng.standard_normal((1, 2, 1, 3, 3)))
        coords = Tensor(rng.random((1, 6, 3)))
        out = query_latent_grid(grid, coords, identity_decoder())
        assert out.shape == (1, 6, 2)
        assert np.isfinite(out.data).all()

    def test_batch_mismatch_raises(self, rng):
        grid = Tensor(rng.standard_normal((2, 2, 2, 2, 2)))
        coords = Tensor(rng.random((3, 4, 3)))
        with pytest.raises(ValueError):
            query_latent_grid(grid, coords, identity_decoder())

    def test_bad_shapes_raise(self, rng):
        with pytest.raises(ValueError):
            query_latent_grid(Tensor(rng.random((2, 2, 2, 2))), Tensor(rng.random((2, 4, 3))), identity_decoder())
        with pytest.raises(ValueError):
            query_latent_grid(Tensor(rng.random((1, 2, 2, 2, 2))), Tensor(rng.random((1, 4, 2))), identity_decoder())
        with pytest.raises(ValueError):
            query_latent_grid(Tensor(rng.random((1, 2, 2, 2, 2))), Tensor(rng.random((1, 4, 3))),
                              identity_decoder(), interpolation="cubic")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4))
    def test_constant_field_reproduced(self, nz, nx):
        """Property: a constant latent grid decodes to that constant everywhere."""
        grid = Tensor(np.full((1, 2, 2, nz, nx), 3.25))
        rng = np.random.default_rng(nz * 10 + nx)
        coords = Tensor(rng.random((1, 20, 3)))
        out = query_latent_grid(grid, coords, identity_decoder()).data
        assert np.allclose(out, 3.25)


def _plus(a, b):
    return b if a is None else ops.add(a, b)


def corner_loop(grid, coords, decode, axes=(), pairs=()):
    """Reference: the trilinear blend as eight decoder passes, one per corner.

    This is the loop that ``_blend_corners`` ran before the corners became
    one axis, kept verbatim in arithmetic: per corner the weight
    ``(g_t·g_z)·g_x``, the slope ``±s_a`` times the other factors, one
    gather, one decoder call, and every term added onto the running sum.
    """
    n_batch, n_points, _ = coords.shape
    sizes = grid.shape[2:]
    dt = np.promote_types(grid.dtype, coords.dtype)
    grid_last = ops.transpose(grid, (0, 2, 3, 4, 1))
    steps = [float(max(n - 1, 1)) for n in sizes]
    cell, frac = [], []
    for axis in range(3):
        pos = ops.mul(coords[:, :, axis], steps[axis])
        if sizes[axis] == 1:
            idx = Tensor(np.zeros((n_batch, n_points), dtype=dt))
        else:
            idx = ops.clip_by_value(ops.floor(pos), 0.0, float(sizes[axis] - 2))
        cell.append(idx)
        frac.append(ops.sub(pos, idx))
    scales = {a: steps[a] for a in axes}
    output, first, second = None, dict.fromkeys(axes), dict.fromkeys(pairs)
    for offsets in itertools.product((0, 1), repeat=3):
        weight, factors, slopes, rel, vertex = None, [], [], [], []
        for axis, offset in enumerate(offsets):
            f = frac[axis]
            g = f if offset == 1 else ops.sub(1.0, f)
            weight = g if weight is None else ops.mul(weight, g)
            factors.append(g)
            slopes.append(steps[axis] if offset == 1 else -steps[axis])
            rel.append(ops.sub(f, float(offset)))
            vertex.append(cell[axis] if offset == 0 else ops.clip_by_value(
                ops.add(cell[axis], 1.0), 0.0, float(sizes[axis] - 1)))

        def slope(*along):
            rest = None
            for c in range(3):
                if c not in along:
                    rest = factors[c] if rest is None else ops.mul(rest, factors[c])
            return ops.expand_dims(ops.mul(rest, float(np.prod([slopes[a] for a in along]))), -1)

        latent = ops.gather_vertices(grid_last, *vertex)
        x = ops.concatenate([ops.stack(rel, axis=-1), latent], axis=-1)
        phi, d1, d2 = decode(x, scales)
        w = ops.expand_dims(weight, -1)
        output = _plus(output, ops.mul(w, phi))
        w_dot = {a: slope(a) for a in axes}
        for a in axes:
            first[a] = _plus(first[a], ops.add(ops.mul(w_dot[a], phi), ops.mul(w, d1[a])))
        for a, b in pairs:
            if a == b:
                term = ops.mul(ops.mul(w_dot[a], d1[a]), 2.0)
            else:
                term = ops.add(ops.add(ops.mul(w_dot[a], d1[b]), ops.mul(w_dot[b], d1[a])),
                               ops.mul(slope(a, b), phi))
            if d2[a, b] is not None:
                term = ops.add(term, ops.mul(w, d2[a, b]))
            second[a, b] = _plus(second[a, b], term)
    return output, first, second


def as_stacked(decode):
    """``decode`` as the loop calls it per corner, on the stacked call's row count.

    How many rows a decoder call sweeps can pick BLAS's kernel and its
    rounding: one point per sample makes a one-row product, one output
    channel a one-column one, and both run through the matrix-vector kernel.
    So a corner's ``P`` rows are decoded eight times over, the ``8·P`` rows
    of the stacked call, and the first copy is kept, which leaves the blend,
    the thing under test, to decide the bits.
    """
    def run(x, scales):
        value, first, second = decode(ops.concatenate([x] * 8, axis=1), scales)
        keep = lambda t: t if t is None or t.ndim < 3 else t[:, :x.shape[1]]
        return (keep(value), {a: keep(d) for a, d in first.items()},
                {pair: keep(d) for pair, d in second.items()})
    return run


def same_bytes(a, b) -> bool:
    """Byte equality: catches a flipped signed zero that ``array_equal`` forgives."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


PAIRS = [(a, b) for a in range(3) for b in range(a, 3)]


@st.composite
def corner_cases(draw):
    return dict(
        # One point of one output channel leaves every axis after the corner
        # axis with extent 1 (the loop's decoder calls: as_stacked).
        n_batch=draw(st.integers(1, 2)), n_points=draw(st.integers(1, 7)),
        channels=draw(st.integers(1, 3)), out_channels=draw(st.sampled_from([1, 2])),
        sizes=tuple(draw(st.sampled_from([1, 2, 3, 5])) for _ in range(3)),
        hidden=draw(st.sampled_from([(), (6,), (5, 4)])),
        axes=draw(st.sets(st.integers(0, 2))),
        pairs=draw(st.lists(st.sampled_from(PAIRS), unique=True, max_size=4)),
        dtype=draw(st.sampled_from([np.float64, np.float32])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestCornerAxis:
    """The stacked corner axis against the per-corner loop it replaced."""

    @staticmethod
    def build(case):
        rng = np.random.default_rng(case["seed"])
        dt = case["dtype"]
        decoder = ImNet(latent_dim=case["channels"], out_channels=case["out_channels"],
                        hidden=case["hidden"], rng=rng).astype(dt)
        grid = Tensor(rng.standard_normal(
            (case["n_batch"], case["channels"], *case["sizes"])).astype(dt), requires_grad=True)
        coords_np = rng.uniform(-0.1, 1.1, (case["n_batch"], case["n_points"], 3))
        coords_np[..., 0][rng.random(coords_np.shape[:2]) < 0.2] = 1.0  # on the last vertex
        return decoder, grid, Tensor(coords_np.astype(dt))

    @settings(max_examples=60, deadline=None)
    @given(corner_cases())
    @example(dict(n_batch=2, n_points=1, channels=2, out_channels=1, sizes=(3, 2, 5), hidden=(6,),
                  axes={0, 2}, pairs=[(0, 0), (0, 2), (1, 2)], dtype=np.float64, seed=0))
    def test_forward_is_the_loop_byte_for_byte(self, case):
        decoder, grid, coords = self.build(case)
        pairs = case["pairs"]
        axes = sorted({*case["axes"], *(a for pair in pairs for a in pair)})
        value, first, second = query_latent_grid_jets(grid, coords, decoder, axes, pairs)
        ref_value, ref_first, ref_second = corner_loop(
            grid, coords, as_stacked(lambda x, scales: decoder.forward_jets(x, scales, pairs)),
            axes, pairs)
        assert same_bytes(value.data, ref_value.data)
        assert same_bytes(query_latent_grid(grid, coords, decoder).data, ref_value.data)
        assert first.keys() == ref_first.keys() and second.keys() == ref_second.keys()
        for key in ref_first:
            assert same_bytes(first[key].data, ref_first[key].data), key
        for key in ref_second:
            assert same_bytes(second[key].data, ref_second[key].data), key

    def test_signed_zeros_survive_the_blend(self, rng):
        """Eight ``-0.0`` terms blend to ``-0.0``, as the loop's running sum
        does: the corner reduction starts at ``-0.0``, not at NumPy's ``+0.0``."""
        grid = Tensor(np.full((2, 3, 2, 3, 4), -0.0))
        coords = Tensor(rng.random((2, 9, 3)))
        got = query_latent_grid(grid, coords, identity_decoder()).data
        want = corner_loop(grid, coords, lambda x, scales: (x[..., 3:], {}, {}))[0].data
        assert np.all(np.signbit(want)) and same_bytes(got, want)

    @settings(max_examples=30, deadline=None)
    @given(corner_cases().filter(lambda case: case["dtype"] is np.float64))
    def test_gradients_match_the_loop(self, case):
        """Gradients agree to round-off, not to the byte: the stacked decode
        accumulates a weight gradient in one GEMM over all ``8·P`` rows, the
        grid's in one scatter for every corner, and a bias's over the stacked
        rows, where the loop added eight per-corner partial sums."""
        decoder, grid, coords = self.build(case)
        pairs = case["pairs"]
        axes = sorted({*case["axes"], *(a for pair in pairs for a in pair)})
        rng = np.random.default_rng(case["seed"] + 1)

        def loss(value, first, second):
            total = ops.sum(ops.mul(value, rng.standard_normal(value.shape)))
            for d in [*first.values(), *second.values()]:
                total = ops.add(total, ops.sum(ops.mul(d, rng.standard_normal(value.shape))))
            return total

        leaves = [grid, *decoder.parameters()]
        got = grad(loss(*query_latent_grid_jets(grid, coords, decoder, axes, pairs)), leaves)
        rng = np.random.default_rng(case["seed"] + 1)
        want = grad(loss(*corner_loop(
            grid, coords, as_stacked(lambda x, scales: decoder.forward_jets(x, scales, pairs)),
            axes, pairs)), leaves)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            scale = max(float(np.abs(w.data).max()), 1e-300)
            assert np.abs(g.data - w.data).max() <= 1e-12 * scale
