"""Neural-network specific primitives: 3D convolution, pooling, upsampling, batch norm.

These ops back the U-Net encoder (Context Generation Network) and the
convolutional-decoder baseline.  The convolution family shares one
channel-major GEMM layout, ``W(C_out, K) @ cols(N, K, L) -> (N, C_out, L)``
with ``K = C_in*kd*kh*kw`` and ``L = D_out*H_out*W_out``: the product *is*
the C-contiguous NCDHW result, so nothing is transposed or copied after the
GEMM.  How the columns are built depends on one test, whether a sample's
columns fit :data:`_COLS_BLOCK_BYTES`:

* a sample that fits (the small tiles a training step convolves) takes the
  **index-map path**: :func:`_sample_columns` gathers every sample's
  columns with one ``take`` through a map cached per geometry
  (:func:`_index_maps`), and ``Conv3d`` / ``Conv3dGradWeight`` run one
  batched GEMM over the samples; ``Conv3dGradInput``'s col2im is one
  ``take`` through the inverse map and one sequential ``np.add.reduce``
  that adds the kernel offsets in the same order as the strided adds;
* a larger sample takes the **block path**: :func:`_column_blocks` copies
  its columns one L2-sized block of output positions at a time into a
  reused scratch buffer (the columns of a 3x3x3 kernel are 27x the input),
  and each block is consumed by its own GEMM before the next is copied.

A pointwise (1x1x1, stride-1, unpadded) convolution copies nothing: its
columns are ``x`` with the spatial axes flattened, one batched GEMM.  Both
paths compute the same bits.
Training-mode batch normalisation is two primitives, :class:`BatchStats`
(the per-channel batch mean and variance) and :class:`BatchNorm` (the
normalisation on them), plus one gradient-free :class:`BatchNormRunningStat`
per running buffer.  They and their VJP primitives are
:class:`~repro.autodiff.ops.KernelOp` s: each forward is one ``kernel``
call of ``out=`` backend kernels, which a compiled plan makes on arena
buffers.  The convolution, pooling and upsampling ops are not (yet): each
states why in its ``eager_only`` reason, and a compiled plan runs its
eager forward.

Backward rules are themselves *recorded primitives* whose forwards
recompute everything from their live operands — no forward-cached arrays —
so a :mod:`repro.compile` graph capture of a whole training step replays
the encoder VJP correctly on new batches.  The first-order primitives,
whose own ``backward`` raises, are:

* ``Conv3dGradInput`` / ``Conv3dGradWeight`` (the convolution's VJP);
* ``MaxPool3dGrad``, ``AvgPool3dGrad`` and ``UpsampleNearest3dGrad``;
* ``BatchNormGradWeight`` / ``BatchNormGradInput`` (with a ``Sum`` for the
  bias, :class:`BatchNorm`'s closed-form VJP);
* ``BatchStats`` and ``BatchNormRunningStat``, which carry no gradient of
  their own.

First order is sufficient because the MeshfreeFlowNet equation loss only
needs higher-order derivatives through the continuous decoding MLP, never
through the convolutional encoder (the latent context enters the MLP as an
input, so the encoder only ever sees first-order gradients).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..backend import get_backend
from . import ops as _ops
from .ops import KernelOp
from .tensor import Op, Tensor  # noqa: F401 - Tensor re-exported for callers

__all__ = ["conv3d", "max_pool3d", "avg_pool3d", "upsample_nearest3d"]


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected 3 values, got {value}")
        return tuple(int(v) for v in value)
    return (int(value),) * 3


def _output_shape(x_shape, kernel, stride, padding) -> tuple[int, int, int]:
    """Output spatial shape of a convolution; raises ``ValueError`` if the kernel outgrows the input."""
    padded = tuple(size + 2 * p for size, p in zip(x_shape[2:], padding))
    if any(k > size for k, size in zip(kernel, padded)):
        raise ValueError(f"kernel {tuple(kernel)} is larger than the padded input spatial shape {padded}")
    return tuple((size - k) // s + 1 for size, k, s in zip(padded, kernel, stride))


def _extract_patches(x: np.ndarray, kernel: tuple[int, int, int], stride: tuple[int, int, int]) -> np.ndarray:
    """Return a read-only strided view of shape (N, C, Do, Ho, Wo, kd, kh, kw)."""
    out = _output_shape(x.shape, kernel, stride, (0, 0, 0))
    strides = (*x.strides[:2], *(step * s for step, s in zip(x.strides[2:], stride)), *x.strides[2:])
    # The windows overlap in memory, so a write through the view would land
    # in several patches at once: hand it out read-only.
    return np.lib.stride_tricks.as_strided(
        x, shape=(*x.shape[:2], *out, *kernel), strides=strides, writeable=False)


#: Byte budget of one block of im2col columns (:func:`_column_blocks`): small
#: enough that the GEMM reads the block while it is still in L2.  A sample
#: whose columns fit takes the index-map path instead (:func:`_fits_one_block`).
_COLS_BLOCK_BYTES = 512 * 1024

_B = get_backend()


def _is_pointwise(kernel, stride, padding) -> bool:
    """A 1x1x1, stride-1, unpadded convolution: a plain channel-mixing GEMM."""
    return kernel == (1, 1, 1) and stride == (1, 1, 1) and not any(padding)


def _fits_one_block(x_shape, kernel, stride, padding, itemsize) -> bool:
    """Whether a sample's whole columns are one block: the index-map path.

    Pointwise convolutions always are, since their columns are ``x`` itself.
    """
    if _is_pointwise(kernel, stride, padding):
        return True
    k = x_shape[1] * math.prod(kernel)
    return k * math.prod(_output_shape(x_shape, kernel, stride, padding)) * itemsize <= _COLS_BLOCK_BYTES


@functools.lru_cache(maxsize=16)
def _index_maps(c, spatial, kernel, stride, padding) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``(cols_index, col2im_index)`` pair of one convolution geometry.

    Both index one sample flattened and extended by a trailing zero slot.
    ``cols_index`` ``(K, L)`` is the im2col of the input's own flat indices,
    so it sends each column entry to the input element it copies, and
    padding taps to the zero slot after the ``C*D*H*W`` inputs.  Row
    ``k + 1`` of ``col2im_index`` ``(1 + kd*kh*kw, C*D*H*W)`` records where
    the strided add of kernel offset ``k`` would add each column entry: the
    entry that lands on each input element, or the zero slot after the
    ``K*L`` entries where none does.  Row 0 is all zero slot, so a reduction
    over the rows starts from ``+0.0``.  The cache is bounded because
    serving workers encode many tile shapes.
    """
    out = _output_shape((1, c, *spatial), kernel, stride, padding)
    n_inputs, n_entries = c * math.prod(spatial), c * math.prod(kernel) * math.prod(out)
    pads = ((0, 0), *((p, p) for p in padding))
    inputs = np.pad(np.arange(n_inputs).reshape(c, *spatial), pads, constant_values=n_inputs)
    patches = _extract_patches(inputs[None], kernel, stride)[0]  # (C, Do, Ho, Wo, kd, kh, kw)
    cols_index = patches.transpose(0, 4, 5, 6, 1, 2, 3).reshape(c * math.prod(kernel), -1)

    entries = np.arange(n_entries).reshape(c, *kernel, *out)
    interior = (slice(None), *(slice(p, p + size) for p, size in zip(padding, spatial)))
    rows = [np.full(n_inputs, n_entries)]
    for offset in itertools.product(*map(range, kernel)):
        landing = np.full(inputs.shape, n_entries)
        window = tuple(slice(o, o + s * m, s) for o, s, m in zip(offset, stride, out))
        landing[(slice(None), *window)] = entries[(slice(None), *offset)]
        rows.append(landing[interior].ravel())
    col2im_index = np.stack(rows)

    for index in (cols_index, col2im_index):
        index.flags.writeable = False
    return cols_index, col2im_index


def _sample_columns(x: np.ndarray, kernel, stride, padding) -> np.ndarray:
    """Every sample's whole channel-major columns ``(N, K, L)``, for samples that fit one block.

    One ``take`` through the geometry's cached ``cols_index`` (a pointwise
    convolution's columns are ``x`` itself, reshaped).
    """
    n, c = x.shape[:2]
    if _is_pointwise(kernel, stride, padding):
        return x.reshape(n, c, -1)
    cols_index, _ = _index_maps(c, x.shape[2:], kernel, stride, padding)
    size = math.prod(x.shape[1:])
    extended = np.empty((n, size + 1), dtype=x.dtype)
    extended[:, size] = 0.0
    np.copyto(extended[:, :size].reshape(x.shape), x)
    return extended.take(cols_index, axis=1)


def _column_blocks(x: np.ndarray, kernel, stride, padding):
    """Yield ``((sample, positions), cols)``: the im2col columns of ``x``, one cache-sized block at a time.

    ``cols`` is channel-major ``(C*kd*kh*kw, n_positions)``; ``positions`` is
    the slice of the flattened output positions ``L = Do*Ho*Wo`` it covers.
    A block is whole depth slices, or H-rows inside one depth slice, so its
    positions are contiguous in ``L`` and each copy moves ``Wo``-long runs.
    Blocks are sized to :data:`_COLS_BLOCK_BYTES` (but at least one row) and
    all land in one scratch buffer, so a consumer must be done with a block
    before asking for the next.  The convolutions only come here for samples
    that do not fit one block (see :func:`_fits_one_block`).
    """
    n, c = x.shape[:2]
    if any(padding):
        x = np.pad(x, ((0, 0), (0, 0), *((p, p) for p in padding)))
    patches = _extract_patches(x, kernel, stride)
    do, ho, wo = patches.shape[2:5]
    k = c * math.prod(kernel)
    rows = max(1, _COLS_BLOCK_BYTES // (k * wo * x.itemsize))
    depth, height = (min(do, rows // ho), ho) if rows >= ho else (1, rows)
    scratch = np.empty(k * depth * height * wo, dtype=x.dtype)
    for i in range(n):
        sample = patches[i].transpose(0, 4, 5, 6, 1, 2, 3)  # (C, kd, kh, kw, Do, Ho, Wo)
        for d in range(0, do, depth):
            for h in range(0, ho, height):
                block = sample[..., d : d + depth, h : h + height, :]
                cols = scratch[: block.size].reshape(block.shape)
                np.copyto(cols, block)
                start = (d * ho + h) * wo
                yield (i, slice(start, start + block.size // k)), cols.reshape(k, -1)


class Conv3d(Op):
    """3D cross-correlation as one batched channel-major GEMM, or one GEMM per column block.

    Input ``(N, C_in, D, H, W)``; weight ``(C_out, C_in, kd, kh, kw)``;
    output ``(N, C_out, D_out, H_out, W_out)``, written by the GEMM straight
    into a freshly allocated array: it owns its memory, is C-contiguous and
    never aliases ``x``.  That matters beyond speed — reductions (BatchNorm
    means, loss sums) are pairwise and therefore layout-sensitive, and a
    compiled replay serves this value from a C-contiguous arena buffer, so
    the eager layout must match or the two drift by ~1 ulp.
    """

    eager_only = "im2col columns of a shape-dependent size, built per call (index map or cache-sized blocks)"

    def __init__(self, stride=1, padding=0):
        self.stride = _triple(stride)
        self.padding = _triple(padding)

    def forward(self, x, weight):
        self._x_shape = x.shape
        n, c_in = x.shape[:2]
        c_out, c_in_w = weight.shape[:2]
        if c_in != c_in_w:
            raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
        kernel = weight.shape[2:]
        spatial = _output_shape(x.shape, kernel, self.stride, self.padding)
        out = np.empty((n, c_out, *spatial), dtype=np.result_type(x, weight))
        w, dst = weight.reshape(c_out, -1), out.reshape(n, c_out, -1)
        if _fits_one_block(x.shape, kernel, self.stride, self.padding, x.itemsize):
            np.matmul(w, _sample_columns(x, kernel, self.stride, self.padding), out=dst)
            return out
        for (i, positions), cols in _column_blocks(x, kernel, self.stride, self.padding):
            np.matmul(w, cols, out=dst[i, :, positions])
        return out

    def backward(self, grad):
        x, weight = self.inputs
        geometry = dict(stride=self.stride, padding=self.padding)
        gx = gw = None
        if self.needs_input_grad(0):  # not for the first layer: its input is the batch
            gx = Conv3dGradInput.apply(grad, weight, x_shape=self._x_shape, **geometry)
        if self.needs_input_grad(1):
            gw = Conv3dGradWeight.apply(grad, x, kernel=weight.shape[2:], **geometry)
        return gx, gw


class Conv3dGradInput(Op):
    """VJP of :class:`Conv3d` with respect to its input (col2im).

    A recorded primitive: the column expansion ``W^T(K, C_out) @ g(N, C_out, L)``
    is recomputed from the live ``grad`` / ``weight`` operands each run, so a
    captured plan replays the convolution backward on new batches.  The
    col2im adds each input element's contributions in kernel-offset order,
    starting from ``+0.0``: for samples that fit one block as one ``take``
    through the geometry's ``col2im_index`` and one reduction over its rows,
    otherwise as ``kd*kh*kw`` strided adds of contiguous column rows into a
    padded buffer.  First-order only.
    """

    eager_only = "col2im through the geometry's index map or strided adds into a fresh padded buffer"

    def __init__(self, stride, padding, x_shape):
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        self.x_shape = tuple(x_shape)

    def forward(self, g, weight):
        n, c_out, do, ho, wo = g.shape
        _, c_in, kd, kh, kw = weight.shape
        kernel, w_t, g = (kd, kh, kw), weight.reshape(c_out, -1).T, g.reshape(n, c_out, -1)
        if _is_pointwise(kernel, self.stride, self.padding):
            return np.matmul(w_t, g).reshape(self.x_shape)
        dtype = np.result_type(w_t, g)
        if _fits_one_block(self.x_shape, kernel, self.stride, self.padding, dtype.itemsize):
            _, col2im_index = _index_maps(c_in, self.x_shape[2:], kernel, self.stride, self.padding)
            size = w_t.shape[0] * g.shape[2]
            gcols = np.empty((n, size + 1), dtype=dtype)
            gcols[:, size] = 0.0
            np.matmul(w_t, g, out=gcols[:, :size].reshape(n, -1, g.shape[2]))
            # Sequential over the rows: +0.0, then the offsets in order.
            return _B.sum(gcols.take(col2im_index, axis=1), axis=1).reshape(self.x_shape)
        gcols = np.matmul(w_t, g).reshape(n, c_in, kd, kh, kw, do, ho, wo)

        pd, ph, pw = self.padding
        d, h, w = self.x_shape[2:]
        grad_padded = np.zeros((n, c_in, d + 2 * pd, h + 2 * ph, w + 2 * pw), dtype=gcols.dtype)
        sd, sh, sw = self.stride
        for i, j, k in itertools.product(range(kd), range(kh), range(kw)):
            grad_padded[
                :, :, i : i + sd * do : sd, j : j + sh * ho : sh, k : k + sw * wo : sw
            ] += gcols[:, :, i, j, k]
        return grad_padded[:, :, pd : pd + d, ph : ph + h, pw : pw + w]

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("Conv3dGradInput is first-order only")


class Conv3dGradWeight(Op):
    """VJP of :class:`Conv3d` with respect to its weight: ``sum_n g(C_out, L) @ cols(K, L)^T``.

    Recomputes the input columns from the live ``x`` operand (the forward's
    :func:`_sample_columns` or :func:`_column_blocks`) instead of reusing the
    forward pass's cache, for the same replayability reason as
    :class:`Conv3dGradInput`, and adds the per-block products in block order
    (samples in order, so with one block per sample this is the per-sample
    GEMMs summed over ``N``).  First-order only.
    """

    eager_only = "re-gathers the input's im2col columns per call"

    def __init__(self, stride, padding, kernel):
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        self.kernel = _triple(kernel)

    def forward(self, g, x):
        n, c_out = g.shape[:2]
        g = g.reshape(n, c_out, -1)
        if _fits_one_block(x.shape, self.kernel, self.stride, self.padding, x.itemsize):
            cols = _sample_columns(x, self.kernel, self.stride, self.padding)
            # Summed over N in sample order, like the per-block ``+=`` below.
            grad_w = _B.sum(np.matmul(g, cols.transpose(0, 2, 1)), axis=0)
            return grad_w.reshape(c_out, x.shape[1], *self.kernel)
        grad_w = None
        for (i, positions), cols in _column_blocks(x, self.kernel, self.stride, self.padding):
            part = np.matmul(g[i, :, positions], cols.T)
            if grad_w is None:
                grad_w = part
            else:
                grad_w += part
        return grad_w.reshape(c_out, x.shape[1], *self.kernel)

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("Conv3dGradWeight is first-order only")


def _pool_windows(kernel: tuple[int, int, int]) -> list[tuple]:
    """One strided index per in-window offset, in C order of ``(kd, kh, kw)``.

    ``x[window]`` is the view that picks that offset out of every pooling
    window, shape ``(N, C, D/kd, H/kh, W/kw)``.
    """
    return [(..., *(slice(start, None, step) for start, step in zip(offset, kernel)))
            for offset in itertools.product(*map(range, kernel))]


def _max_pool(x: np.ndarray, kernel: tuple[int, int, int]) -> np.ndarray:
    """Window maxima by ``kd*kh*kw`` in-place ``np.maximum`` passes over strided views."""
    first, *rest = _pool_windows(kernel)
    out = x[first].copy()
    for window in rest:
        np.maximum(out, x[window], out=out)
    return out


class MaxPool3d(Op):
    """Non-overlapping max pooling (kernel == stride), per-axis kernel sizes."""

    eager_only = "a running maximum over strided window views, into a fresh array"

    def __init__(self, kernel_size=2):
        self.kernel = _triple(kernel_size)

    def forward(self, x):
        d, h, w = x.shape[2:]
        kd, kh, kw = self.kernel
        if d % kd or h % kh or w % kw:
            raise ValueError(
                f"MaxPool3d requires spatial dims {(d, h, w)} divisible by kernel {self.kernel}"
            )
        return _max_pool(x, self.kernel)

    def backward(self, grad):
        (x,) = self.inputs
        return (MaxPool3dGrad.apply(grad, x, kernel_size=self.kernel),)


class MaxPool3dGrad(Op):
    """VJP of :class:`MaxPool3d`: route ``grad`` to each window's first maximum.

    The maxima are recomputed from the live ``x`` operand (not cached by the
    pooling forward), so captured plans replay correctly; a window holding a
    NaN equals nothing and routes nothing.  First-order only.
    """

    eager_only = "routes each window's gradient through a per-call first-maximum mask"

    def __init__(self, kernel_size=2):
        self.kernel = _triple(kernel_size)

    def forward(self, g, x):
        pooled = _max_pool(x, self.kernel)
        out = np.zeros(x.shape, dtype=g.dtype)
        unrouted = np.ones(pooled.shape, dtype=bool)
        for window in _pool_windows(self.kernel):
            hit = (x[window] == pooled) & unrouted
            np.copyto(out[window], g, where=hit)
            unrouted &= ~hit
        return out

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("MaxPool3dGrad is first-order only")


class AvgPool3d(Op):
    """Non-overlapping average pooling (kernel == stride)."""

    eager_only = "a windowed mean over a reshaped view, into a fresh array"

    def __init__(self, kernel_size=2):
        self.kernel = _triple(kernel_size)

    def forward(self, x):
        n, c, d, h, w = x.shape
        kd, kh, kw = self.kernel
        if d % kd or h % kh or w % kw:
            raise ValueError(
                f"AvgPool3d requires spatial dims {(d, h, w)} divisible by kernel {self.kernel}"
            )
        windows = x.reshape(n, c, d // kd, kd, h // kh, kh, w // kw, kw)
        return windows.mean(axis=(3, 5, 7))

    def backward(self, grad):
        return (AvgPool3dGrad.apply(grad, kernel_size=self.kernel),)


class AvgPool3dGrad(Op):
    """VJP of :class:`AvgPool3d`: spread ``grad / window_volume`` uniformly."""

    eager_only = "three np.repeat copies of the scaled gradient"

    def __init__(self, kernel_size=2):
        self.kernel = _triple(kernel_size)

    def forward(self, g):
        kd, kh, kw = self.kernel
        scale = 1.0 / (kd * kh * kw)
        g = g * scale
        return np.repeat(np.repeat(np.repeat(g, kd, axis=2), kh, axis=3), kw, axis=4)

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("AvgPool3dGrad is first-order only")


class UpsampleNearest3d(Op):
    """Nearest-neighbour upsampling by integer scale factors."""

    eager_only = "three np.repeat copies, one per axis"

    def __init__(self, scale_factor=2):
        self.scale = _triple(scale_factor)

    def forward(self, x):
        sd, sh, sw = self.scale
        out = np.repeat(x, sd, axis=2)
        out = np.repeat(out, sh, axis=3)
        out = np.repeat(out, sw, axis=4)
        return out

    def backward(self, grad):
        return (UpsampleNearest3dGrad.apply(grad, scale_factor=self.scale),)


class UpsampleNearest3dGrad(Op):
    """VJP of :class:`UpsampleNearest3d`: sum each upsampled block."""

    eager_only = "a block sum over a reshaped view, into a fresh array"

    def __init__(self, scale_factor=2):
        self.scale = _triple(scale_factor)

    def forward(self, g):
        n, c, ds, hs, ws = g.shape
        sd, sh, sw = self.scale
        g = g.reshape(n, c, ds // sd, sd, hs // sh, sh, ws // sw, sw)
        return g.sum(axis=(3, 5, 7))

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("UpsampleNearest3dGrad is first-order only")


#: The axes a batch-norm statistic reduces: every axis of ``(N, C, D, H, W)`` but ``C``.
_NORM_AXES = (0, 2, 3, 4)


def _channels(a: np.ndarray) -> np.ndarray:
    """A per-channel ``(C,)`` array as a ``(1, C, 1, 1, 1)`` view."""
    return a.reshape(1, -1, 1, 1, 1)


def _inv_count(x: np.ndarray):
    """``1 / n`` in ``x``'s dtype, ``n`` the elements per channel: the composed ``ops.mean`` factor."""
    return x.dtype.type(1.0 / (x.size // x.shape[1]))


def _normalise(x, stats, eps, out, std):
    """``x_hat = (x - mean) / std`` into ``out``, and ``std = sqrt(var + eps)`` ``(1, C, 1, 1, 1)``."""
    _B.subtract(x, _channels(stats[0]), out=out)
    _B.add(_channels(stats[1]), eps, out=std)
    _B.sqrt(std, out=std)
    _B.divide(out, std, out=out)


def _stat(x) -> tuple:
    """``(shape, dtype)`` of one per-channel ``(1, C, 1, 1, 1)`` scratch vector of ``x``."""
    return (1, x.shape[1], 1, 1, 1), x.dtype


class BatchStats(KernelOp):
    """Per-channel batch mean and biased variance of ``x`` ``(N, C, D, H, W)``, as rows of a ``(2, C)`` array.

    Kernel for kernel the composed ``ops.mean`` / ``ops.var``:
    ``mean = sum(x) * (1/n)`` and ``var = sum((x - mean)**2) * (1/n)``.
    No gradient flows into it: :class:`BatchNorm`'s VJP already accounts
    for the statistics' dependence on ``x``, and a running-statistic update
    is not part of the loss.
    """

    inplace = elementwise = False

    def out_shape(self, x):
        return (2, x.shape[1])

    def scratch_shapes(self, x):
        return [(x.shape, x.dtype)]

    def kernel(self, x, out, centered):
        mean, var = _channels(out[0]), _channels(out[1])
        _B.sum(x, axis=_NORM_AXES, keepdims=True, out=mean)
        _B.multiply(mean, _inv_count(x), out=mean)
        _B.subtract(x, mean, out=centered)
        _B.multiply(centered, centered, out=centered)
        _B.sum(centered, axis=_NORM_AXES, keepdims=True, out=var)
        _B.multiply(var, _inv_count(x), out=var)

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("BatchStats carries no gradient of its own")


class BatchNorm(KernelOp):
    """Batch normalisation of ``x`` on its own statistics: ``(x - mean) / sqrt(var + eps) * weight + bias``.

    Operands ``(x, stats)`` or ``(x, stats, weight, bias)``, where ``stats``
    must be :class:`BatchStats` of ``x`` and the affine parameters are
    ``(C,)``; the kernels are those of the composed ops it replaces.  The
    VJP is the layer's, in the closed form of Ioffe & Szegedy (2015): with
    ``x_hat`` the normalised input, ``g_bias = sum(g)``, ``g_weight =
    sum(g * x_hat)`` and ``g_x = weight / std * (g - g_bias / n - x_hat *
    g_weight / n)``, the last of which already carries the path through the
    statistics, so ``stats`` gets no gradient.  It is recorded as a ``Sum``,
    :class:`BatchNormGradWeight` and :class:`BatchNormGradInput`, which read
    the forward's live ``stats`` instead of recomputing them.
    """

    inplace = elementwise = False

    def __init__(self, eps):
        self.eps = float(eps)

    def scratch_shapes(self, x, *rest):
        return [_stat(x)]

    def kernel(self, x, stats, *args):
        *affine, out, std = args
        _normalise(x, stats, self.eps, out, std)
        if affine:
            weight, bias = affine
            _B.multiply(out, _channels(weight), out=out)
            _B.add(out, _channels(bias), out=out)

    def backward(self, grad):
        x, stats, *affine = self.inputs
        need_x = self.needs_input_grad(0)
        need_w, need_b = (self.needs_input_grad(2), self.needs_input_grad(3)) if affine else (False, False)
        sum_g = _ops.sum(grad, axis=_NORM_AXES) if need_x or need_b else None
        sum_gx = (BatchNormGradWeight.apply(x, grad, stats, eps=self.eps)
                  if need_x or need_w else None)
        gx = (BatchNormGradInput.apply(x, grad, stats, sum_g, sum_gx, *affine[:1], eps=self.eps)
              if need_x else None)
        if not affine:
            return gx, None
        return gx, None, sum_gx if need_w else None, sum_g if need_b else None


class BatchNormGradWeight(KernelOp):
    """``sum(g * x_hat)`` over ``(N, D, H, W)``: the weight gradient of :class:`BatchNorm`.

    Operands ``(x, g, stats)``; ``x_hat`` is recomputed from the live
    operands, so a captured plan replays it on new batches.  First-order
    only.
    """

    inplace = elementwise = False

    def __init__(self, eps):
        self.eps = float(eps)

    def out_shape(self, x, *rest):
        return (x.shape[1],)

    def scratch_shapes(self, x, *rest):
        return [(x.shape, x.dtype), _stat(x)]

    def kernel(self, x, g, stats, out, x_hat, std):
        _normalise(x, stats, self.eps, x_hat, std)
        _B.multiply(x_hat, g, out=x_hat)
        _B.sum(x_hat, axis=_NORM_AXES, out=out)

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("BatchNormGradWeight is first-order only")


class BatchNormGradInput(KernelOp):
    """The input gradient of :class:`BatchNorm`: ``weight / std * (g - sum_g / n - x_hat * sum_gx / n)``.

    Operands ``(x, g, stats, sum_g, sum_gx)``, plus ``weight`` when affine;
    ``sum_g`` / ``sum_gx`` are the ``(C,)`` sums of ``g`` and ``g * x_hat``
    (the bias and weight gradients, computed once for both uses).
    First-order only.
    """

    inplace = elementwise = False

    def __init__(self, eps):
        self.eps = float(eps)

    def scratch_shapes(self, x, *rest):
        return [_stat(x), _stat(x)]

    def kernel(self, x, g, stats, sum_g, sum_gx, *args):
        *affine, out, std, coef = args
        _normalise(x, stats, self.eps, out, std)
        _B.multiply(_channels(sum_gx), _inv_count(x), out=coef)
        _B.multiply(out, coef, out=out)
        _B.subtract(g, out, out=out)
        _B.multiply(_channels(sum_g), _inv_count(x), out=coef)
        _B.subtract(out, coef, out=out)
        if affine:
            _B.divide(_channels(affine[0]), std, out=coef)
            _B.multiply(out, coef, out=out)
        else:
            _B.divide(out, std, out=out)

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("BatchNormGradInput is first-order only")


class BatchNormRunningStat(KernelOp):
    """A running statistic's next value, ``running * (1 - momentum) + stat * momentum``.

    Operands ``(stats, running)``, ``stat`` being row 0 (mean) of the
    :class:`BatchStats` ``stats``, or row 1 (variance) with ``variance=True``.
    The update is a buffer write, not part of the loss, so the op carries no
    gradient: its ``backward`` raises.
    """

    inplace = elementwise = False

    def __init__(self, momentum, variance):
        self.momentum = float(momentum)
        self.variance = bool(variance)

    def out_shape(self, stats, running):
        return (stats.shape[1],)

    def scratch_shapes(self, stats, running):
        return [((stats.shape[1],), stats.dtype)]

    def kernel(self, stats, running, out, step):
        _B.multiply(running, 1 - self.momentum, out=out)
        _B.multiply(stats[int(self.variance)], self.momentum, out=step)
        _B.add(out, step, out=out)

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("BatchNormRunningStat carries no gradient")


def conv3d(x, weight, stride=1, padding=0) -> Tensor:
    """Differentiable (first-order) 3D convolution."""
    return Conv3d.apply(x, weight, stride=stride, padding=padding)


def max_pool3d(x, kernel_size=2) -> Tensor:
    """Non-overlapping 3-D max pooling with window ``kernel_size``."""
    return MaxPool3d.apply(x, kernel_size=kernel_size)


def avg_pool3d(x, kernel_size=2) -> Tensor:
    """Non-overlapping 3-D average pooling with window ``kernel_size``."""
    return AvgPool3d.apply(x, kernel_size=kernel_size)


def upsample_nearest3d(x, scale_factor=2) -> Tensor:
    """Nearest-neighbour upsampling by integer ``scale_factor``."""
    return UpsampleNearest3d.apply(x, scale_factor=scale_factor)
