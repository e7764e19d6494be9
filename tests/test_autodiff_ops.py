"""Gradient checks and behaviour tests for the differentiable primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, grad, gradcheck, ops


def t(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# --------------------------------------------------------------------------- elementwise
class TestElementwiseForward:
    def test_add(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        assert np.allclose(ops.add(t(a), t(b)).data, a + b)

    def test_sub(self, rng):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert np.allclose(ops.sub(t(a), t(b)).data, a - b)

    def test_mul(self, rng):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert np.allclose(ops.mul(t(a), t(b)).data, a * b)

    def test_div(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5) + 3.0
        assert np.allclose(ops.div(t(a), t(b)).data, a / b)

    def test_neg(self):
        assert np.allclose(ops.neg(t([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        assert np.allclose(ops.pow(t([2.0, 3.0]), 3.0).data, [8.0, 27.0])

    def test_exp_log_roundtrip(self, rng):
        a = np.abs(rng.standard_normal(6)) + 0.5
        assert np.allclose(ops.log(ops.exp(t(a))).data, a)

    def test_sqrt(self):
        assert np.allclose(ops.sqrt(t([4.0, 9.0])).data, [2.0, 3.0])

    def test_trig(self):
        x = np.array([0.0, np.pi / 2])
        assert np.allclose(ops.sin(t(x)).data, np.sin(x))
        assert np.allclose(ops.cos(t(x)).data, np.cos(x))

    def test_relu(self):
        assert np.allclose(ops.relu(t([-1.0, 2.0, 0.0])).data, [0.0, 2.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_is_a_times_mask(self, rng, dtype):
        # a * (a > 0), including -0.0 for negative inputs (the compiled
        # lowering is pinned bit-identical to this form), also for 0-d input.
        a = (rng.standard_normal((64, 33)) * 3).astype(dtype)
        a[0, :3] = [0.0, -0.0, np.nan]
        for x in (a, np.asarray(dtype(-2.0))):
            out, ref = ops.ReLU().forward(x), x * (x > 0).astype(dtype)
            assert out.dtype == dtype and out.shape == x.shape
            assert np.array_equal(out, ref, equal_nan=True)
            assert np.array_equal(np.signbit(out), np.signbit(ref))

    def test_leaky_relu(self):
        out = ops.leaky_relu(t([-2.0, 3.0]), negative_slope=0.1)
        assert np.allclose(out.data, [-0.2, 3.0])

    def test_abs(self):
        assert np.allclose(ops.abs(t([-1.5, 2.0])).data, [1.5, 2.0])

    def test_sigmoid_range(self, rng):
        x = rng.standard_normal(100) * 10
        s = ops.sigmoid(t(x)).data
        assert np.all(s > 0) and np.all(s < 1)
        assert np.allclose(s, 1.0 / (1.0 + np.exp(-x)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_equals_two_sided_masked_form(self, rng, dtype):
        a = (rng.standard_normal((64, 33)) * 20).astype(dtype)
        a[0, :5] = [0.0, -0.0, np.inf, -np.inf, np.nan]
        for x in (a, np.asarray(dtype(-0.3))):
            ref, pos = np.empty_like(x), x >= 0
            ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ref[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
            out = ops.Sigmoid().forward(x)
            assert out.dtype == dtype and out.shape == x.shape
            assert np.array_equal(out, ref, equal_nan=True)

    def test_softplus_matches_reference(self, rng):
        x = rng.standard_normal(50) * 5
        assert np.allclose(ops.softplus(t(x)).data, np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0))

    def test_softplus_extreme_values_stable(self):
        out = ops.softplus(t([-1000.0, 1000.0])).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1000.0)

    def test_maximum_minimum(self):
        a, b = t([1.0, 5.0]), t([3.0, 2.0])
        assert np.allclose(ops.maximum(a, b).data, [3.0, 5.0])
        assert np.allclose(ops.minimum(a, b).data, [1.0, 2.0])

    def test_clip_by_value(self):
        out = ops.clip_by_value(t([-5.0, 0.5, 7.0]), -1.0, 1.0)
        assert np.allclose(out.data, [-1.0, 0.5, 1.0])


class TestElementwiseGradients:
    @pytest.mark.parametrize("fn", [
        ops.exp, ops.tanh, ops.sigmoid, ops.softplus, ops.sin, ops.cos, ops.abs,
    ])
    def test_unary_gradcheck(self, fn, rng):
        x = t(rng.standard_normal((3, 4)) + 0.1)
        assert gradcheck(lambda a: ops.sum(fn(a)), [x])

    def test_log_gradcheck(self, rng):
        x = t(np.abs(rng.standard_normal((3, 3))) + 0.5)
        assert gradcheck(lambda a: ops.sum(ops.log(a)), [x])

    def test_pow_gradcheck(self, rng):
        x = t(np.abs(rng.standard_normal(6)) + 0.5)
        assert gradcheck(lambda a: ops.sum(ops.pow(a, 2.5)), [x])

    def test_binary_gradcheck(self, rng):
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 3)) + 2.0)
        assert gradcheck(lambda x, y: ops.sum(ops.mul(x, y)), [a, b])
        assert gradcheck(lambda x, y: ops.sum(ops.div(x, y)), [a, b])
        assert gradcheck(lambda x, y: ops.sum(ops.sub(x, y)), [a, b])

    def test_broadcast_gradcheck(self, rng):
        a = t(rng.standard_normal((4, 3)))
        b = t(rng.standard_normal((1, 3)))
        c = t(rng.standard_normal(()))
        assert gradcheck(lambda x, y: ops.sum(ops.add(x, y)), [a, b])
        assert gradcheck(lambda x, y: ops.sum(ops.mul(x, y)), [a, c])

    def test_maximum_gradcheck(self, rng):
        a, b = t(rng.standard_normal(8)), t(rng.standard_normal(8))
        assert gradcheck(lambda x, y: ops.sum(ops.maximum(x, y)), [a, b])


# --------------------------------------------------------------------------- matmul / reductions / shape
class TestLinearAlgebra:
    def test_matmul_2d(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        assert np.allclose(ops.matmul(t(a), t(b)).data, a @ b)

    def test_matmul_batched(self, rng):
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 5))
        assert np.allclose(ops.matmul(t(a), t(b)).data, a @ b)

    def test_matmul_gradcheck(self, rng):
        a, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal((4, 2)))
        assert gradcheck(lambda x, y: ops.sum(ops.matmul(x, y)), [a, b])

    def test_matmul_broadcast_weight_gradcheck(self, rng):
        a = t(rng.standard_normal((2, 5, 3)))
        w = t(rng.standard_normal((3, 4)))
        assert gradcheck(lambda x, y: ops.sum(ops.square(ops.matmul(x, y))), [a, w], atol=1e-4)

    def test_dot_outer(self, rng):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert np.allclose(ops.dot(t(a), t(b)).data, a @ b)
        assert np.allclose(ops.outer(t(a), t(b)).data, np.outer(a, b))

    def test_norm(self, rng):
        a = rng.standard_normal(10)
        assert ops.norm(t(a), 2).data == pytest.approx(np.linalg.norm(a))
        assert ops.norm(t(a), 1).data == pytest.approx(np.abs(a).sum())


class TestReductionsAndShape:
    def test_sum_axis(self, rng):
        a = rng.standard_normal((3, 4, 5))
        assert np.allclose(ops.sum(t(a), axis=1).data, a.sum(axis=1))
        assert np.allclose(ops.sum(t(a), axis=(0, 2), keepdims=True).data, a.sum(axis=(0, 2), keepdims=True))

    def test_mean_var(self, rng):
        a = rng.standard_normal((4, 6))
        assert np.allclose(ops.mean(t(a), axis=0).data, a.mean(axis=0))
        assert np.allclose(ops.var(t(a), axis=1).data, a.var(axis=1))

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 2), False)])
    def test_sum_gradcheck(self, rng, axis, keepdims):
        a = t(rng.standard_normal((2, 3, 4)))
        assert gradcheck(lambda x: ops.sum(ops.square(ops.sum(x, axis=axis, keepdims=keepdims))), [a])

    def test_mean_gradcheck(self, rng):
        a = t(rng.standard_normal((3, 5)))
        assert gradcheck(lambda x: ops.sum(ops.square(ops.mean(x, axis=1))), [a])

    def test_var_gradcheck(self, rng):
        a = t(rng.standard_normal((4, 3)))
        assert gradcheck(lambda x: ops.sum(ops.var(x, axis=0)), [a], atol=1e-4)

    def test_reshape_transpose(self, rng):
        a = rng.standard_normal((2, 3, 4))
        assert ops.reshape(t(a), (6, 4)).shape == (6, 4)
        assert ops.reshape(t(a), (-1, 4)).shape == (6, 4)
        assert ops.transpose(t(a), (2, 0, 1)).shape == (4, 2, 3)
        assert np.allclose(ops.swap_last_axes(t(a)).data, np.swapaxes(a, -1, -2))

    def test_reshape_gradcheck(self, rng):
        a = t(rng.standard_normal((2, 6)))
        assert gradcheck(lambda x: ops.sum(ops.square(ops.reshape(x, (3, 4)))), [a])

    def test_transpose_gradcheck(self, rng):
        a = t(rng.standard_normal((2, 3, 4)))
        assert gradcheck(lambda x: ops.sum(ops.square(ops.transpose(x, (1, 2, 0)))), [a])

    def test_broadcast_to_gradcheck(self, rng):
        a = t(rng.standard_normal((1, 4)))
        assert gradcheck(lambda x: ops.sum(ops.square(ops.broadcast_to(x, (3, 4)))), [a])

    def test_getitem_slice(self, rng):
        a = rng.standard_normal((4, 5))
        out = ops.getitem(t(a), (slice(1, 3), slice(None)))
        assert np.allclose(out.data, a[1:3])

    def test_getitem_gradcheck(self, rng):
        a = t(rng.standard_normal((4, 5)))
        idx = (np.array([0, 2, 2]), slice(None))
        assert gradcheck(lambda x: ops.sum(ops.square(ops.getitem(x, idx))), [a])

    def test_put_index_inverse_of_getitem(self, rng):
        a = rng.standard_normal((4, 3))
        idx = (np.array([1, 3]),)
        scattered = ops.put_index(t(a[idx]), idx, (4, 3))
        expected = np.zeros((4, 3))
        expected[idx] = a[idx]
        assert np.allclose(scattered.data, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index", [
        (slice(None), slice(None), 1),          # the pred[:, :, i] adjoint
        (slice(1, 3),), (Ellipsis, slice(0, 4, 2)), (None, 2), 1,
        (1, 2, 0),                              # all integers: a scalar, not a view
        (slice(None), [0, 2, 2]), (np.array([3, 3, 0]),),  # advanced, repeated elements
    ], ids=str)
    def test_put_index_is_add_at_for_every_index_form(self, rng, dtype, index):
        # Basic indices take a plain add into the view, advanced ones
        # np.add.at; both add into zeros, so -0.0 lands as +0.0.
        shape = (4, 3, 5)
        a = np.asarray(rng.standard_normal(np.zeros(shape)[index].shape)).astype(dtype)
        a.flat[0] = -0.0
        expected = np.zeros(shape, dtype=dtype)
        np.add.at(expected, index, a)
        out = ops.put_index(Tensor(a), index, shape).data
        assert out.dtype == dtype and np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_concatenate(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 5))
        out = ops.concatenate([t(a), t(b)], axis=1)
        assert np.allclose(out.data, np.concatenate([a, b], axis=1))

    def test_concatenate_gradcheck(self, rng):
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 2)))
        assert gradcheck(lambda x, y: ops.sum(ops.square(ops.concatenate([x, y], axis=1))), [a, b])

    def test_stack(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        out = ops.stack([t(a), t(b)], axis=0)
        assert np.allclose(out.data, np.stack([a, b]))

    def test_pad_gradcheck(self, rng):
        a = t(rng.standard_normal((2, 3)))
        assert gradcheck(lambda x: ops.sum(ops.square(ops.pad(x, ((1, 1), (0, 2))))), [a])

    def test_expand_squeeze(self, rng):
        a = rng.standard_normal((3, 4))
        assert ops.expand_dims(t(a), 1).shape == (3, 1, 4)
        assert ops.expand_dims(t(a), -1).shape == (3, 4, 1)
        assert ops.squeeze(ops.expand_dims(t(a), 0)).shape == (3, 4)

    def test_losses(self, rng):
        p, y = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        assert ops.l1_loss(t(p), t(y)).data == pytest.approx(np.abs(p - y).mean())
        assert ops.mse_loss(t(p), t(y)).data == pytest.approx(((p - y) ** 2).mean())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("channel_last_view", [False, True])
    def test_gather_vertices_returns_its_own_rows(self, rng, dtype, channel_last_view):
        # The gathered rows are one fresh C-contiguous array, never a view of
        # the grid, and exactly the advanced-indexing rows.
        shape = (2, 3, 4, 5, 6)
        if channel_last_view:  # the latent-tile cache's (N, C, ...) -> (N, ..., C) view
            grid = rng.standard_normal((2, 6, 3, 4, 5)).astype(dtype).transpose(0, 2, 3, 4, 1)
        else:
            grid = rng.standard_normal(shape).astype(dtype)
        it, iz, ix = (np.floor(rng.uniform(0, n, (2, 7))).astype(dtype) for n in shape[1:4])
        out = ops.GatherVertices().forward(grid, it, iz, ix)
        assert out.flags.owndata and out.flags.c_contiguous
        assert not np.shares_memory(out, grid)
        ref = np.stack([grid[b][it[b].astype(int), iz[b].astype(int), ix[b].astype(int)] for b in range(2)])
        assert out.dtype == dtype and out.shape == (2, 7, 6)
        assert np.array_equal(out.view(np.uint8), ref.view(np.uint8))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), sizes=st.tuples(*[st.integers(1, 3)] * 3), channels=st.integers(1, 4),
           n_points=st.integers(1, 12), duplicate=st.booleans(), seed=st.integers(0, 2**16),
           dtype=st.sampled_from([np.float64, np.float32]))
    def test_scatter_vertices_is_the_four_array_add_at(self, n, sizes, channels, n_points,
                                                        duplicate, seed, dtype):
        """The flat-index scatter adds each element's rows in the same order
        as ``np.add.at`` over ``(batch, it, iz, ix)``: byte-equal, signed
        zeros included, with every row on one vertex when ``duplicate``."""
        rng = np.random.default_rng(seed)
        shape = (n, *sizes, channels)
        index = [np.zeros((n, n_points)) if duplicate else
                 np.floor(rng.uniform(0, m, (n, n_points))) for m in sizes]
        g = rng.standard_normal((n, n_points, channels)) * 10.0 ** rng.integers(-8, 9, (n, n_points, 1))
        g[rng.random(g.shape) < 0.3] = -0.0
        g = g.astype(dtype)
        it, iz, ix = (i.astype(dtype) for i in index)
        out = ops.ScatterVertices(grid_shape=shape).forward(g, it, iz, ix)
        ref = np.zeros(shape, dtype=dtype)
        np.add.at(ref, (np.arange(n)[:, None], *(i.astype(np.int64) for i in index)), g)
        assert out.dtype == dtype and out.shape == shape
        assert out.tobytes() == ref.tobytes()

# --------------------------------------------------------------------------- higher order
class TestHigherOrder:
    def test_second_derivative_polynomial(self):
        x = t([0.5, 1.5, -2.0])
        y = ops.sum(ops.pow(x, 4.0))
        g1 = grad(y, x, create_graph=True)
        g2 = grad(ops.sum(g1), x)
        assert np.allclose(g2.data, 12.0 * x.data**2)

    def test_second_derivative_sin(self):
        x = t([0.1, 0.7, 2.0])
        y = ops.sum(ops.sin(x))
        g1 = grad(y, x, create_graph=True)
        g2 = grad(ops.sum(g1), x)
        assert np.allclose(g2.data, -np.sin(x.data))

    def test_second_derivative_softplus(self):
        x = t([0.3, -0.8, 1.2])
        y = ops.sum(ops.softplus(x))
        g1 = grad(y, x, create_graph=True)
        g2 = grad(ops.sum(g1), x)
        s = 1.0 / (1.0 + np.exp(-x.data))
        assert np.allclose(g2.data, s * (1 - s))

    def test_mixed_partials_through_mlp_like_graph(self, rng):
        # d/dw of dy/dx for y = tanh(x*w): reference via finite differences on w.
        x = t(np.array([0.4, -0.3]))
        w = t(np.array(0.7))
        def dy_dx(weight):
            y = ops.sum(ops.tanh(ops.mul(x, weight)))
            return grad(y, x, create_graph=True)
        g = dy_dx(w)
        loss = ops.sum(ops.square(g))
        gw = grad(loss, w)
        eps = 1e-5
        plus = np.sum(grad(ops.sum(ops.tanh(ops.mul(x, t(w.data + eps)))), x, create_graph=True).data ** 2)
        minus = np.sum(grad(ops.sum(ops.tanh(ops.mul(x, t(w.data - eps)))), x, create_graph=True).data ** 2)
        assert gw.data == pytest.approx((plus - minus) / (2 * eps), rel=1e-4)

    def test_gather_second_order(self, rng):
        g = t(rng.standard_normal((5, 3)))
        idx = (np.array([0, 1, 4]), slice(None))
        y = ops.sum(ops.pow(ops.getitem(g, idx), 3.0))
        g1 = grad(y, g, create_graph=True)
        g2 = grad(ops.sum(g1), g)
        expected = np.zeros((5, 3))
        expected[idx] = 6.0 * g.data[idx]
        assert np.allclose(g2.data, expected)


# --------------------------------------------------------------------------- property based
@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_add_commutative(n, m):
    rng = np.random.default_rng(n * 10 + m)
    a, b = rng.standard_normal((n, m)), rng.standard_normal((n, m))
    assert np.allclose(ops.add(t(a), t(b)).data, ops.add(t(b), t(a)).data)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=20))
def test_relu_idempotent(values):
    x = t(values)
    once = ops.relu(x)
    twice = ops.relu(once)
    assert np.allclose(once.data, twice.data)
    assert np.all(once.data >= 0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=16))
def test_sum_matches_numpy(values):
    x = t(values)
    assert ops.sum(x).data == pytest.approx(np.sum(values), rel=1e-10, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=6))
def test_matmul_transpose_identity(n, m):
    rng = np.random.default_rng(n * 7 + m)
    a = rng.standard_normal((n, m))
    b = rng.standard_normal((m, n))
    lhs = ops.matmul(t(a), t(b)).data
    rhs = ops.swap_last_axes(ops.matmul(ops.swap_last_axes(t(b)), ops.swap_last_axes(t(a)))).data
    assert np.allclose(lhs, rhs)
