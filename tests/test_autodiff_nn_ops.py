"""Tests for the first-order NN primitives: conv3d, pooling, upsampling, batch norm."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.autodiff import (
    Tensor, avg_pool3d, conv3d, grad, gradcheck, max_pool3d, nn_ops, ops, upsample_nearest3d,
)
from repro.backend import precision


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestConv3d:
    def test_output_shape_no_padding(self, rng):
        x = t(rng.standard_normal((2, 3, 4, 6, 6)))
        w = t(rng.standard_normal((5, 3, 3, 3, 3)))
        out = conv3d(x, w)
        assert out.shape == (2, 5, 2, 4, 4)

    def test_output_shape_padding_stride(self, rng):
        x = t(rng.standard_normal((1, 2, 4, 8, 8)))
        w = t(rng.standard_normal((4, 2, 3, 3, 3)))
        assert conv3d(x, w, padding=1).shape == (1, 4, 4, 8, 8)
        assert conv3d(x, w, stride=2, padding=1).shape == (1, 4, 2, 4, 4)

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 3, 3, 3))
        w = np.zeros((1, 1, 1, 1, 1))
        w[0, 0, 0, 0, 0] = 1.0
        out = conv3d(t(x), t(w))
        assert np.allclose(out.data, x)

    def test_matches_direct_convolution(self, rng):
        x = rng.standard_normal((1, 2, 3, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2, 2))
        out = conv3d(t(x), t(w)).data
        # brute-force reference
        ref = np.zeros((1, 3, 2, 3, 3))
        for co in range(3):
            for dd in range(2):
                for hh in range(3):
                    for ww_ in range(3):
                        patch = x[0, :, dd:dd+2, hh:hh+2, ww_:ww_+2]
                        ref[0, co, dd, hh, ww_] = np.sum(patch * w[co])
        assert np.allclose(out, ref)

    def test_channel_mismatch_raises(self, rng):
        x = t(rng.standard_normal((1, 3, 4, 4, 4)))
        w = t(rng.standard_normal((2, 4, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv3d(x, w)

    @pytest.mark.parametrize("x_shape,padding,padded", [
        ((1, 1, 2, 2, 2), 0, (2, 2, 2)),
        ((1, 1, 1, 4, 4), 0, (1, 4, 4)),   # one axis of 1: used to be a negative-dimension error
        ((2, 1, 4, 0, 4), 1, (6, 2, 6)),
    ])
    def test_kernel_larger_than_padded_input_raises(self, x_shape, padding, padded):
        message = re.escape(f"kernel (3, 3, 3) is larger than the padded input spatial shape {padded}")
        with pytest.raises(ValueError, match=message):
            nn_ops.Conv3d(1, padding).forward(np.ones(x_shape), np.ones((1, 1, 3, 3, 3)))
        layer = nn.Conv3d(1, 2, kernel_size=3, padding=padding, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            layer(Tensor(np.ones(x_shape)))

    def test_kernel_equal_to_padded_input_is_one_voxel(self, rng):
        x, w = rng.standard_normal((1, 2, 1, 3, 3)), rng.standard_normal((1, 2, 3, 3, 3))
        out = nn_ops.Conv3d(1, (1, 0, 0)).forward(x, w)
        np.testing.assert_allclose(out.ravel(), [np.sum(x * w[:, :, 1:2])])

    def test_gradcheck(self, rng):
        x = t(rng.standard_normal((2, 2, 3, 4, 4)) * 0.5)
        w = t(rng.standard_normal((3, 2, 3, 3, 3)) * 0.5)
        assert gradcheck(lambda a, b: ops.sum(ops.square(conv3d(a, b, padding=1))), [x, w], atol=1e-4)

    def test_gradcheck_strided(self, rng):
        x = t(rng.standard_normal((1, 2, 4, 4, 4)) * 0.5)
        w = t(rng.standard_normal((2, 2, 2, 2, 2)) * 0.5)
        assert gradcheck(lambda a, b: ops.sum(conv3d(a, b, stride=2)), [x, w], atol=1e-4)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 2, 2, 4)
        out = max_pool3d(Tensor(x), (2, 2, 2))
        assert out.shape == (1, 1, 1, 1, 2)
        assert np.allclose(out.data.ravel(), [13.0, 15.0])

    def test_max_pool_anisotropic_kernel(self, rng):
        x = t(rng.standard_normal((2, 3, 4, 8, 8)))
        out = max_pool3d(x, (1, 2, 2))
        assert out.shape == (2, 3, 4, 4, 4)

    def test_max_pool_divisibility_error(self, rng):
        with pytest.raises(ValueError):
            max_pool3d(t(rng.standard_normal((1, 1, 3, 4, 4))), (2, 2, 2))

    def test_max_pool_gradcheck(self, rng):
        x = t(rng.standard_normal((1, 2, 2, 4, 4)))
        assert gradcheck(lambda a: ops.sum(max_pool3d(a, (2, 2, 2))), [x])

    def test_avg_pool_values(self):
        x = np.ones((1, 1, 2, 2, 2)) * 3.0
        assert np.allclose(avg_pool3d(Tensor(x), 2).data, 3.0)

    def test_avg_pool_gradcheck(self, rng):
        x = t(rng.standard_normal((1, 2, 4, 4, 2)))
        assert gradcheck(lambda a: ops.sum(ops.square(avg_pool3d(a, (2, 2, 2)))), [x])

    def test_max_then_upsample_shapes(self, rng):
        x = t(rng.standard_normal((1, 2, 4, 4, 4)))
        down = max_pool3d(x, 2)
        up = upsample_nearest3d(down, 2)
        assert up.shape == x.shape


class TestUpsample:
    def test_values_repeat(self):
        x = np.arange(4.0).reshape(1, 1, 1, 2, 2)
        out = upsample_nearest3d(Tensor(x), (1, 2, 2)).data
        assert out.shape == (1, 1, 1, 4, 4)
        assert np.allclose(out[0, 0, 0, :2, :2], 0.0)
        assert np.allclose(out[0, 0, 0, 2:, 2:], 3.0)

    def test_gradcheck(self, rng):
        x = t(rng.standard_normal((1, 2, 2, 3, 2)))
        assert gradcheck(lambda a: ops.sum(ops.square(upsample_nearest3d(a, (2, 1, 2)))), [x])

    def test_upsample_then_avgpool_is_identity(self, rng):
        x = rng.standard_normal((1, 3, 2, 2, 2))
        up = upsample_nearest3d(Tensor(x), 2)
        back = avg_pool3d(up, 2)
        assert np.allclose(back.data, x)


# ----------------------------------------------------- the Conv3d family vs direct loops
def composed_batch_norm(bn, x):
    """``bn(x)`` in tape ops, as the layer was written before it became primitives.

    Returns the output tensor and, in training mode with running
    statistics, the running buffers' next values (else ``None``s); the
    buffers themselves are left alone.
    """
    axes = (0, 2, 3, 4)
    mu, v = ops.mean(x, axis=axes, keepdims=True), ops.var(x, axis=axes, keepdims=True)
    if bn.track_running_stats and not bn.training:
        mu, v = (Tensor(buf.reshape(1, -1, 1, 1, 1)) for buf in (bn.running_mean, bn.running_var))
    running = (None, None)
    if bn.training and bn.track_running_stats:
        m = bn.momentum
        running = tuple(ops.add(ops.mul(Tensor(buf), 1 - m), ops.mul(ops.reshape(stat, (-1,)), m)).data
                        for buf, stat in ((bn.running_mean, mu), (bn.running_var, v)))
    x_hat = ops.div(ops.sub(x, mu), ops.sqrt(ops.add(v, bn.eps)))
    if bn.affine:
        shape = (1, bn.num_features, 1, 1, 1)
        x_hat = ops.add(ops.mul(x_hat, ops.reshape(bn.weight, shape)), ops.reshape(bn.bias, shape))
    return x_hat, running


def _batch_norm_gradient_scales(bn, x, g):
    """The magnitude of the terms each of ``(g_x, g_weight, g_bias)`` adds up.

    A gradient near zero is a cancellation of terms this large, so their
    scale, not the gradient's own, is what the rounding of either form of
    the VJP is relative to.
    """
    x, g = x.astype(np.float64), np.abs(g.astype(np.float64))
    axes = (0, 2, 3, 4)
    std = np.sqrt(x.var(axis=axes, keepdims=True) + bn.eps)
    x_hat = np.abs(x - x.mean(axis=axes, keepdims=True)) / std
    weight = np.abs(bn.weight.data).reshape(1, -1, 1, 1, 1) if bn.affine else 1.0
    return (np.max(weight / std) * g.max() * max(1.0, x_hat.max() ** 2),
            np.max(np.sum(g * x_hat, axis=axes)), np.max(np.sum(g, axis=axes)))


class TestBatchNormPrimitive:
    """Training-mode :class:`~repro.nn.BatchNorm3d` is ``BatchStats`` + ``BatchNorm``
    (+ two ``BatchNormRunningStat`` updates): the composed layer's forward and
    running statistics byte for byte, and its gradients to rounding."""

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 3)] * 4, st.integers(1, 5)), affine=st.booleans(),
           track=st.booleans(), training=st.booleans(), seed=st.integers(0, 2**16),
           dtype=st.sampled_from(["float64", "float32"]))
    @example(shape=(1, 1, 1, 1, 1), affine=True, track=True, training=True, seed=0, dtype="float64")
    @example(shape=(1, 1, 1, 2, 1), affine=False, track=True, training=True, seed=1, dtype="float32")
    @example(shape=(2, 1, 1, 1, 1), affine=True, track=False, training=True, seed=2, dtype="float64")
    def test_matches_the_composed_layer(self, shape, affine, track, training, seed, dtype):
        rng = np.random.default_rng(seed)
        with precision(dtype):
            bn = nn.BatchNorm3d(shape[1], momentum=0.3, affine=affine, track_running_stats=track)
        bn.train(training)
        if affine:
            bn.weight.data[...] = rng.standard_normal(shape[1])
            bn.bias.data[...] = rng.standard_normal(shape[1])
        if track:
            bn.running_mean[...] = rng.standard_normal(shape[1])
            bn.running_var[...] = rng.uniform(0.5, 2.0, shape[1])
        data = (rng.standard_normal(shape) * 3.0 + 1.0).astype(dtype)
        g = Tensor(rng.standard_normal(shape).astype(dtype))
        params = [bn.weight, bn.bias] if affine else []

        x_ref = Tensor(data, requires_grad=True)
        want, running = composed_batch_norm(bn, x_ref)
        want_grads = grad(want, [x_ref, *params], grad_outputs=g)
        x = Tensor(data, requires_grad=True)
        got = bn(x)
        got_grads = grad(got, [x, *params], grad_outputs=g)

        assert got.dtype == want.dtype == np.dtype(dtype)
        assert got.data.tobytes() == want.data.tobytes()
        if running[0] is not None:
            assert bn.running_mean.tobytes() == running[0].tobytes()
            assert bn.running_var.tobytes() == running[1].tobytes()
        tolerance = 1e-12 if dtype == "float64" else 1e-5
        for got_g, want_g, scale in zip(got_grads, want_grads, _batch_norm_gradient_scales(bn, data, g.data)):
            assert got_g.dtype == want_g.dtype
            assert np.max(np.abs(got_g.data - want_g.data)) <= tolerance * scale

    def test_gradcheck_with_running_statistics(self, rng):
        """The layer that updates its running statistics: the updates are
        buffer writes beside the graph and take no part in the gradient."""
        bn = nn.BatchNorm3d(2, momentum=0.5)
        bn.weight.data[...] = [1.5, -0.5]
        bn.bias.data[...] = [0.2, 0.1]
        x = t(rng.standard_normal((3, 2, 2, 2, 2)))
        assert gradcheck(lambda a, w, b: ops.sum(ops.square(ops.mul(bn(a), ops.sin(a)))),
                         [x, bn.weight, bn.bias], atol=2e-4)
        assert not np.array_equal(bn.running_mean, np.zeros(2))

    def test_statistics_take_no_gradient(self, rng):
        x = t(rng.standard_normal((2, 2, 1, 2, 2)))
        stats = nn_ops.BatchStats.apply(x)
        new_mean = nn_ops.BatchNormRunningStat.apply(stats, Tensor(np.zeros(2)), momentum=0.1, variance=False)
        with pytest.raises(NotImplementedError):
            grad(ops.sum(new_mean), x)


def _windows(x_padded, kernel, stride):
    """Output spatial shape, and ``(output index, window slices)`` for every output voxel."""
    out_shape = tuple((x_padded.shape[2 + a] - kernel[a]) // stride[a] + 1 for a in range(3))
    return out_shape, [(idx, tuple(slice(i * s, i * s + k) for i, s, k in zip(idx, stride, kernel)))
                       for idx in np.ndindex(*out_shape)]


def _pad(x, padding):
    return np.pad(x.astype(np.float64), ((0, 0), (0, 0), *((p, p) for p in padding)))


def naive_conv3d(x, w, stride, padding):
    xp, w = _pad(x, padding), w.astype(np.float64)
    out_shape, windows = _windows(xp, w.shape[2:], stride)
    out = np.zeros((x.shape[0], w.shape[0], *out_shape))
    for idx, win in windows:
        out[(..., *idx)] = np.einsum("ncijk,ocijk->no", xp[(..., *win)], w)
    return out


def naive_conv3d_grads(g, x, w, stride, padding):
    xp, w, g = _pad(x, padding), w.astype(np.float64), g.astype(np.float64)
    grad_xp, grad_w = np.zeros_like(xp), np.zeros_like(w)
    for idx, win in _windows(xp, w.shape[2:], stride)[1]:
        g_at = g[(..., *idx)]  # (N, C_out)
        grad_xp[(..., *win)] += np.einsum("no,ocijk->ncijk", g_at, w)
        grad_w += np.einsum("no,ncijk->ocijk", g_at, xp[(..., *win)])
    interior = tuple(slice(p, p + s) for p, s in zip(padding, x.shape[2:]))
    return grad_xp[(..., *interior)], grad_w


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from([(1, 1, 1), (3, 3, 3), (1, 3, 3)]))
    stride = (draw(st.sampled_from([1, 2])),) * 3
    padding = (draw(st.sampled_from([0, 1])),) * 3
    n, c_in, c_out = draw(st.sampled_from([1, 3])), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    spatial = tuple(draw(st.integers(k, k + 3)) for k in kernel)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):  # a crop of a bigger array, like the engine's tile slices
        big = rng.standard_normal((n, c_in, *(s + 2 for s in spatial))).astype(dtype)
        x = big[:, :, 1:-1, 1:-1, 1:-1]
    else:
        x = rng.standard_normal((n, c_in, *spatial)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, *kernel)).astype(dtype)
    return x, w, stride, padding, rng


def _assert_family_matches_loops(x, w, stride, padding, rng):
    tol = dict(rtol=1e-4, atol=1e-4) if x.dtype == np.float32 else dict(rtol=1e-10, atol=1e-10)
    out = nn_ops.Conv3d(stride, padding).forward(x, w)
    assert out.dtype == x.dtype
    np.testing.assert_allclose(out, naive_conv3d(x, w, stride, padding), **tol)

    g = rng.standard_normal(out.shape).astype(x.dtype)
    grad_x = nn_ops.Conv3dGradInput(stride, padding, x.shape).forward(g, w)
    grad_w = nn_ops.Conv3dGradWeight(stride, padding, w.shape[2:]).forward(g, x)
    ref_x, ref_w = naive_conv3d_grads(g, x, w, stride, padding)
    assert grad_x.shape == x.shape and grad_x.dtype == x.dtype
    assert grad_w.shape == w.shape and grad_w.dtype == x.dtype
    np.testing.assert_allclose(grad_x, ref_x, **tol)
    np.testing.assert_allclose(grad_w, ref_w, **tol)


def reference_columns(x, kernel, stride, padding):
    """Whole-matrix channel-major im2col ``(N, C*kd*kh*kw, L)``, built independently of ``nn_ops``."""
    xp = np.pad(x, ((0, 0), (0, 0), *((p, p) for p in padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=(2, 3, 4))
    windows = windows[:, :, :: stride[0], :: stride[1], :: stride[2]]  # (N, C, Do, Ho, Wo, kd, kh, kw)
    return windows.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(x.shape[0], -1, np.prod(windows.shape[2:5]))


def _row_bytes(x, kernel, stride, padding):
    """Bytes of one H-row of output positions' columns, the smallest column block."""
    w_out = (x.shape[4] + 2 * padding[2] - kernel[2]) // stride[2] + 1
    return x.shape[1] * int(np.prod(kernel)) * w_out * x.itemsize


def strided_add_col2im(gcols, x_shape, kernel, stride, padding):
    """col2im of ``(N, K, L)`` columns as ``+0.0`` plus one strided add per kernel offset, in C order."""
    n, c = x_shape[:2]
    out = tuple((size + 2 * p - k) // s + 1 for size, k, s, p in zip(x_shape[2:], kernel, stride, padding))
    gcols = gcols.reshape(n, c, *kernel, *out)
    padded = np.zeros((n, c, *(size + 2 * p for size, p in zip(x_shape[2:], padding))), dtype=gcols.dtype)
    for offset in np.ndindex(*kernel):
        window = tuple(slice(o, o + s * m, s) for o, s, m in zip(offset, stride, out))
        padded[(..., *window)] += gcols[(slice(None), slice(None), *offset)]
    return padded[(..., *(slice(p, p + size) for p, size in zip(padding, x_shape[2:])))]


def _same_bytes(a, b) -> bool:
    """Equal shape, dtype and bytes (so ``-0.0`` differs from ``0.0``)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestConv3dFamily:
    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_matches_direct_loops(self, case):
        # Every drawn sample fits one block at the default budget: the index
        # maps serve it and the block iterator is never asked.
        with mock.patch.object(nn_ops, "_column_blocks", wraps=nn_ops._column_blocks) as blocks:
            _assert_family_matches_loops(*case)
        assert not blocks.called

    @pytest.mark.parametrize("rows_per_block", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(conv_cases())
    def test_matches_direct_loops_across_blocks(self, rows_per_block, case):
        # A budget of one (or three) H-rows splits every depth slice into
        # row blocks (or, where H_out is small, packs whole slices per block):
        # forward and grad-weight then cross blocks, depth slices and samples.
        x, w, stride, padding, _ = case
        kernel = w.shape[2:]
        budget = rows_per_block * _row_bytes(x, kernel, stride, padding)
        with mock.patch.object(nn_ops, "_COLS_BLOCK_BYTES", budget), \
                mock.patch.object(nn_ops, "_column_blocks", wraps=nn_ops._column_blocks) as blocks:
            _assert_family_matches_loops(*case)
        fits = (nn_ops._is_pointwise(kernel, stride, padding)
                or reference_columns(x, kernel, stride, padding)[0].nbytes <= budget)
        assert blocks.called != fits

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel", [(3, 3, 3), (1, 3, 3), (1, 1, 1)])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("n,cropped", [(1, False), (2, True), (3, False), (3, True)])
    def test_index_maps_are_the_per_sample_gemm(self, rng, dtype, kernel, stride, padding, n, cropped):
        # The map path is bit for bit the per-sample GEMM on the whole column
        # matrix, and grad-weight those GEMMs added in sample order.
        stride, padding = (stride,) * 3, (padding,) * 3
        shape = (n, 3, 4, 5, 6)
        if cropped:  # a non-contiguous crop, like the engine's tile slices
            x = rng.standard_normal((n, 3, 6, 7, 8)).astype(dtype)[:, :, 1:-1, 1:-1, 1:-1]
            assert not x.flags.c_contiguous
        else:
            x = rng.standard_normal(shape).astype(dtype)
        w = rng.standard_normal((5, 3, *kernel)).astype(dtype)
        cols = reference_columns(x, kernel, stride, padding)
        assert cols[0].nbytes <= nn_ops._COLS_BLOCK_BYTES
        with mock.patch.object(nn_ops, "_column_blocks", side_effect=AssertionError("block path")):
            out = nn_ops.Conv3d(stride, padding).forward(x, w)
            g = rng.standard_normal(out.shape).astype(dtype)
            grad_w = nn_ops.Conv3dGradWeight(stride, padding, kernel).forward(g, x)
        w2, g2 = w.reshape(5, -1), g.reshape(n, 5, -1)
        for i in range(n):
            assert _same_bytes(out[i].reshape(5, -1), np.matmul(w2, cols[i]))
        ref = np.matmul(g2[0], cols[0].T)
        for i in range(1, n):
            ref += np.matmul(g2[i], cols[i].T)
        assert _same_bytes(grad_w.reshape(5, -1), ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grad_weight_adds_samples_in_order_when_nothing_follows_them(self, rng, dtype):
        # One output channel of a one-channel pointwise kernel: each sample's
        # product is one number, and nine of them must still add in sample
        # order (NumPy alone would sum a lone axis pairwise).
        x = rng.standard_normal((9, 1, 2, 3, 4)).astype(dtype)
        g = rng.standard_normal((9, 1, 2, 3, 4)).astype(dtype)
        grad_w = nn_ops.Conv3dGradWeight((1, 1, 1), (0, 0, 0), (1, 1, 1)).forward(g, x)
        products = np.matmul(g.reshape(9, 1, -1), x.reshape(9, 1, -1).transpose(0, 2, 1))
        ref = np.zeros_like(products[0])
        for product in products:
            ref += product
        assert _same_bytes(grad_w.reshape(1, 1), ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("x_shape,kernel,stride,padding", [
        *(((2, 3, 5, 6, 7), *geometry) for geometry in [
            ((3, 3, 3), 1, 1), ((3, 3, 3), 2, 1), ((3, 3, 3), 1, 0), ((1, 3, 3), 2, 0),
            ((2, 2, 2), 2, 0)]),
        # One channel of one voxel: nothing follows the offset axis of the reduction.
        ((2, 1, 1, 1, 1), (2, 2, 2), 1, 1),
    ])
    @pytest.mark.parametrize("values", ["normal", "cancelling"])
    def test_col2im_is_the_strided_adds(self, rng, dtype, x_shape, kernel, stride, padding, values):
        # The gather-reduce col2im adds in the strided adds' order, from +0.0.
        # Small integer operands make contributions cancel exactly (and give
        # -0.0 products), so the right answer holds zeros of both origins.
        stride, padding = (stride,) * 3, (padding,) * 3
        n, c = x_shape[:2]
        draw = ((lambda shape: rng.integers(-1, 2, shape).astype(dtype)) if values == "cancelling"
                else (lambda shape: rng.standard_normal(shape).astype(dtype)))
        w = draw((4, c, *kernel))
        out = nn_ops._output_shape(x_shape, kernel, stride, padding)
        g = draw((n, 4, *out))
        assert nn_ops._fits_one_block(x_shape, kernel, stride, padding, np.dtype(dtype).itemsize)
        grad_x = nn_ops.Conv3dGradInput(stride, padding, x_shape).forward(g, w)
        gcols = np.matmul(w.reshape(4, -1).T, g.reshape(n, 4, -1))
        ref = strided_add_col2im(gcols, x_shape, kernel, stride, padding)
        assert _same_bytes(grad_x, ref)
        overlap = any(k > s for k, s in zip(kernel, stride)) and min(x_shape[2:]) > 1
        if values == "cancelling" and overlap:  # windows overlap: some sums cancel
            touched = strided_add_col2im(np.abs(gcols), x_shape, kernel, stride, padding) > 0
            assert np.any(touched & (ref == 0))

    def test_index_map_cache_is_bounded_and_read_only(self):
        maxsize = nn_ops._index_maps.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64
        for index in nn_ops._index_maps(2, (3, 4, 5), (3, 3, 3), (1, 1, 1), (1, 1, 1)):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[...] = 0
        for width in range(3, 3 + maxsize + 4):
            nn_ops._index_maps(1, (3, 3, width), (3, 3, 3), (1, 1, 1), (1, 1, 1))
        assert nn_ops._index_maps.cache_info().currsize <= maxsize

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((3, 3, 3), (2, 2, 2), (1, 1, 1)),
        ((1, 3, 3), (1, 1, 1), (0, 0, 0)),
        ((1, 1, 1), (1, 1, 1), (0, 0, 0)),
    ])
    def test_one_block_is_the_whole_matrix_gemm(self, rng, dtype, kernel, stride, padding):
        # A sample whose columns fit one block is bit for bit one GEMM on the
        # whole column matrix, and grad-weight is the per-sample GEMMs summed
        # over N in sample order (a reordered sum changes the last bits).
        x = rng.standard_normal((3, 4, 4, 6, 8)).astype(dtype)
        w = rng.standard_normal((5, 4, *kernel)).astype(dtype)
        cols = reference_columns(x, kernel, stride, padding)
        assert cols[0].nbytes <= nn_ops._COLS_BLOCK_BYTES
        out = nn_ops.Conv3d(stride, padding).forward(x, w)
        assert np.array_equal(out.reshape(3, 5, -1), np.matmul(w.reshape(5, -1), cols))

        g = rng.standard_normal(out.shape).astype(dtype)
        grad_w = nn_ops.Conv3dGradWeight(stride, padding, kernel).forward(g, x)
        ref = np.matmul(g.reshape(3, 5, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        assert np.array_equal(grad_w.reshape(5, -1), ref)

    @pytest.mark.parametrize("x_shape,kernel,stride,padding,budget", [
        ((1, 4, 8, 48, 48), (3, 3, 3), (1, 1, 1), (1, 1, 1), None),  # a `small` tile's first conv
        ((1, 16, 4, 12, 12), (3, 3, 3), (1, 1, 1), (1, 1, 1), None),
        ((2, 3, 5, 7, 9), (3, 3, 3), (2, 2, 2), (1, 1, 1), 8000),    # 2 of 4 rows per block
        ((2, 3, 5, 7, 9), (1, 3, 3), (1, 1, 1), (0, 0, 0), 5000),    # 3 of 5 rows per block
        ((2, 3, 5, 7, 9), (1, 3, 3), (1, 1, 1), (0, 0, 0), 16000),   # 2 of 5 depth slices per block
    ])
    def test_blocks_tile_the_output_in_one_buffer(self, rng, x_shape, kernel, stride, padding, budget):
        x = rng.standard_normal(x_shape)
        budget = budget or nn_ops._COLS_BLOCK_BYTES
        assert _row_bytes(x, kernel, stride, padding) <= budget
        cols = reference_columns(x, kernel, stride, padding)
        assert cols[0].nbytes > budget  # the case really is split
        next_start, scratch = dict.fromkeys(range(x_shape[0]), 0), set()
        with mock.patch.object(nn_ops, "_COLS_BLOCK_BYTES", budget):
            for (i, positions), block in nn_ops._column_blocks(x, kernel, stride, padding):
                assert positions.start == next_start[i]  # in order, no gap, no overlap
                next_start[i] = positions.stop
                np.testing.assert_array_equal(block, cols[i][:, positions])
                assert block.base.nbytes <= budget
                scratch.add(id(block.base))
        assert list(next_start.values()) == [cols.shape[2]] * x_shape[0]
        assert len(scratch) == 1  # every block reuses one buffer

    @pytest.mark.parametrize("kernel,padding", [((1, 1, 1), 0), ((3, 3, 3), 1), ((1, 3, 3), 0)])
    @pytest.mark.parametrize("sliced", [False, True])
    def test_output_owns_contiguous_memory(self, rng, kernel, padding, sliced):
        # Downstream reductions are layout-sensitive and a compiled replay
        # serves this value from a C-contiguous arena buffer: the eager
        # output must be a fresh C-contiguous array, never a view of ``x``.
        x = rng.standard_normal((2, 3, 6, 7, 8))
        if sliced:
            x = x[:, :, 1:-1, 1:-1, 1:-1]
            assert not x.flags.c_contiguous
        w = rng.standard_normal((4, 3, *kernel))
        out = nn_ops.Conv3d(1, padding).forward(x, w)
        assert out.flags.owndata and out.flags.c_contiguous
        assert not np.shares_memory(out, x)

    def test_patch_view_is_read_only(self, rng):
        patches = nn_ops._extract_patches(rng.standard_normal((1, 1, 3, 3, 3)), (2, 2, 2), (1, 1, 1))
        assert not patches.flags.writeable
        with pytest.raises(ValueError):
            patches[...] = 0.0


def _reshape_windows(x, kernel):
    """The pooling windows gathered onto a last axis (the former implementation's layout)."""
    n, c, d, h, w = x.shape
    kd, kh, kw = kernel
    windows = x.reshape(n, c, d // kd, kd, h // kh, kh, w // kw, kw)
    return windows.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(n, c, d // kd, h // kh, w // kw, kd * kh * kw)


@st.composite
def pool_cases(draw):
    kernel = draw(st.sampled_from([(2, 2, 2), (1, 2, 2), (2, 1, 3)]))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), *(k * draw(st.integers(1, 3)) for k in kernel))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # A handful of distinct values, so nearly every window has ties.
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 2.0]), size=shape)
    return x.astype(draw(st.sampled_from([np.float32, np.float64]))), kernel, rng


class TestMaxPoolAgainstReshapeMax:
    @settings(max_examples=60, deadline=None)
    @given(pool_cases(), st.booleans())
    def test_forward_is_bit_exact(self, case, with_nan):
        x, kernel, rng = case
        if with_nan:
            x[rng.random(x.shape) < 0.1] = np.nan
        out = nn_ops.MaxPool3d(kernel).forward(x)
        ref = _reshape_windows(x, kernel).max(axis=-1)
        assert out.dtype == x.dtype and out.flags.owndata
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    @settings(max_examples=60, deadline=None)
    @given(pool_cases())
    def test_grad_routes_to_first_maximum(self, case):
        x, kernel, rng = case
        g = rng.standard_normal(nn_ops.MaxPool3d(kernel).forward(x).shape).astype(x.dtype)
        windows = _reshape_windows(x, kernel)
        ref = np.zeros_like(windows)
        np.put_along_axis(ref, windows.argmax(axis=-1)[..., None], g[..., None], axis=-1)
        n, c, do, ho, wo = g.shape
        ref = ref.reshape(n, c, do, ho, wo, *kernel).transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(x.shape)
        assert np.array_equal(nn_ops.MaxPool3dGrad(kernel).forward(g, x), ref)
