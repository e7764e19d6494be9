"""Neural-network specific primitives: 3D convolution, pooling, upsampling.

These ops back the U-Net encoder (Context Generation Network) and the
convolutional-decoder baseline.  The convolution family shares one
channel-major GEMM layout, ``W(C_out, K) @ cols(N, K, L) -> (N, C_out, L)``
with ``K = C_in*kd*kh*kw`` and ``L = D_out*H_out*W_out``: the product *is*
the C-contiguous NCDHW result, so nothing is transposed or copied after the
GEMM.  Backward rules are themselves *recorded primitives*
(``Conv3dGradInput`` / ``Conv3dGradWeight`` and the pooling/upsampling
adjoints below) whose forwards recompute everything from their live
operands — no forward-cached arrays — so a :mod:`repro.compile` graph
capture of a whole training step replays the encoder VJP correctly on new
batches.  The grad primitives are first-order only (their own ``backward``
raises), which is sufficient because the MeshfreeFlowNet equation loss only
needs higher-order derivatives through the continuous decoding MLP, never
through the convolutional encoder (the latent context enters the MLP as an
input, so the encoder only ever sees first-order gradients).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .tensor import Op, Tensor  # noqa: F401 - Tensor re-exported for callers

__all__ = ["conv3d", "max_pool3d", "avg_pool3d", "upsample_nearest3d"]


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected 3 values, got {value}")
        return tuple(int(v) for v in value)
    return (int(value),) * 3


def _extract_patches(x: np.ndarray, kernel: tuple[int, int, int], stride: tuple[int, int, int]) -> np.ndarray:
    """Return a read-only strided view of shape (N, C, Do, Ho, Wo, kd, kh, kw)."""
    out = tuple((size - k) // s + 1 for size, k, s in zip(x.shape[2:], kernel, stride))
    strides = (*x.strides[:2], *(step * s for step, s in zip(x.strides[2:], stride)), *x.strides[2:])
    # The windows overlap in memory, so a write through the view would land
    # in several patches at once: hand it out read-only.
    return np.lib.stride_tricks.as_strided(
        x, shape=(*x.shape[:2], *out, *kernel), strides=strides, writeable=False)


def _is_pointwise(kernel, stride, padding) -> bool:
    """A 1x1x1, stride-1, unpadded convolution: a plain channel-mixing GEMM."""
    return kernel == (1, 1, 1) and stride == (1, 1, 1) and not any(padding)


def _im2col(x: np.ndarray, kernel, stride, padding) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Channel-major columns ``(N, C*kd*kh*kw, L)`` of ``x`` and the output spatial shape.

    ``L = Do*Ho*Wo`` is the innermost axis, so the one copy this makes moves
    ``Wo``-long contiguous runs.  A pointwise convolution needs no patches at
    all: its columns are ``x`` itself with the spatial axes flattened.
    """
    n, c = x.shape[:2]
    if _is_pointwise(kernel, stride, padding):
        return x.reshape(n, c, -1), x.shape[2:]
    if any(padding):
        x = np.pad(x, ((0, 0), (0, 0), *((p, p) for p in padding)))
    patches = _extract_patches(x, kernel, stride)
    spatial = patches.shape[2:5]
    return patches.transpose(0, 1, 5, 6, 7, 2, 3, 4).reshape(n, -1, math.prod(spatial)), spatial


class Conv3d(Op):
    """3D cross-correlation as one channel-major GEMM per sample.

    Input ``(N, C_in, D, H, W)``; weight ``(C_out, C_in, kd, kh, kw)``;
    output ``(N, C_out, D_out, H_out, W_out)``, written by the GEMM straight
    into a freshly allocated array: it owns its memory, is C-contiguous and
    never aliases ``x``.  That matters beyond speed — reductions (BatchNorm
    means, loss sums) are pairwise and therefore layout-sensitive, and a
    compiled replay serves this value from a C-contiguous arena buffer, so
    the eager layout must match or the two drift by ~1 ulp.
    """

    def __init__(self, stride=1, padding=0):
        self.stride = _triple(stride)
        self.padding = _triple(padding)

    def forward(self, x, weight):
        self._x_shape = x.shape
        n, c_in = x.shape[:2]
        c_out, c_in_w = weight.shape[:2]
        if c_in != c_in_w:
            raise ValueError(f"input channels {c_in} != weight channels {c_in_w}")
        cols, spatial = _im2col(x, weight.shape[2:], self.stride, self.padding)
        out = np.empty((n, c_out, *spatial), dtype=np.result_type(x, weight))
        np.matmul(weight.reshape(c_out, -1), cols, out=out.reshape(n, c_out, -1))
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
    columns are channel-major like the forward's, so each of the ``kd*kh*kw``
    scatter-adds reads contiguous rows.  First-order only.
    """

    def __init__(self, stride, padding, x_shape):
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        self.x_shape = tuple(x_shape)

    def forward(self, g, weight):
        n, c_out, do, ho, wo = g.shape
        _, c_in, kd, kh, kw = weight.shape
        gcols = np.matmul(weight.reshape(c_out, -1).T, g.reshape(n, c_out, -1))  # (N, K, L)
        if _is_pointwise((kd, kh, kw), self.stride, self.padding):
            return gcols.reshape(self.x_shape)
        gcols = gcols.reshape(n, c_in, kd, kh, kw, do, ho, wo)

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
    :func:`_im2col`) instead of reusing the forward pass's cache, for the
    same replayability reason as :class:`Conv3dGradInput`.  First-order only.
    """

    def __init__(self, stride, padding, kernel):
        self.stride = _triple(stride)
        self.padding = _triple(padding)
        self.kernel = _triple(kernel)

    def forward(self, g, x):
        n, c_out = g.shape[:2]
        cols, _ = _im2col(x, self.kernel, self.stride, self.padding)
        grad_w = np.matmul(g.reshape(n, c_out, -1), cols.transpose(0, 2, 1)).sum(axis=0)
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

    def __init__(self, scale_factor=2):
        self.scale = _triple(scale_factor)

    def forward(self, g):
        n, c, ds, hs, ws = g.shape
        sd, sh, sw = self.scale
        g = g.reshape(n, c, ds // sd, sd, hs // sh, sh, ws // sw, sw)
        return g.sum(axis=(3, 5, 7))

    def backward(self, grad):  # pragma: no cover - never on a differentiated path
        raise NotImplementedError("UpsampleNearest3dGrad is first-order only")


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
