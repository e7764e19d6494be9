"""Latent context grid querying: interpolation correctness and differentiability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, grad, ops
from repro.core.latent_grid import (
    query_latent_grid,
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
