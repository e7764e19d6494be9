"""Differentiable primitive operations.

Every primitive in this module implements its backward rule *in terms of
tensor operations*, so any composition of these ops supports higher-order
differentiation through :func:`repro.autodiff.grad` with ``create_graph=True``.

The functions are exposed both as free functions (``ops.add``, ``ops.matmul``,
…) and as methods / operators on :class:`~repro.autodiff.tensor.Tensor`
(attached at the bottom of this module).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..backend import get_backend
from .tensor import Op, Tensor, ensure_tensor

#: The active array backend, resolved once at import time.  There is no
#: set-active-backend API (``get_backend()`` always returns the process-wide
#: singleton), so hoisting the lookup out of every ``Op.forward`` is
#: semantically free and removes a function call + global dict hit from every
#: primitive on the eager hot path.  If a backend-switching API is ever
#: added, this binding must become part of the switch.
_B = get_backend()

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt", "sin",
    "cos", "tanh", "sigmoid", "softplus", "relu", "leaky_relu", "abs",
    "maximum", "minimum", "matmul", "sum", "mean", "var", "reshape",
    "transpose", "swap_last_axes", "broadcast_to", "getitem", "put_index",
    "concatenate", "stack", "pad", "expand_dims", "squeeze", "sum_to_shape",
    "square", "clip_by_value", "dot", "outer", "norm", "l1_loss", "mse_loss",
    "floor", "sign", "greater_mask", "greater_equal_mask", "less_equal_mask",
    "leaky_relu_mask", "gather_vertices", "scatter_vertices",
]


# --------------------------------------------------------------------------- helpers
def _sum_axes_for_broadcast(from_shape: tuple[int, ...], to_shape: tuple[int, ...]):
    """Axes over which to sum in order to reduce ``from_shape`` to ``to_shape``."""
    ndiff = len(from_shape) - len(to_shape)
    axes = list(range(ndiff))
    for i, dim in enumerate(to_shape):
        if dim == 1 and from_shape[ndiff + i] != 1:
            axes.append(ndiff + i)
    return tuple(axes)


def sum_to_shape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce ``t`` to ``shape`` by summing broadcast dimensions."""
    shape = tuple(shape)
    if not isinstance(t, Tensor):
        t = ensure_tensor(t)
    if t.shape == shape:
        return t
    axes = _sum_axes_for_broadcast(t.shape, shape)
    if axes:
        t = sum(t, axis=axes, keepdims=True)
    if t.shape != shape:
        t = reshape(t, shape)
    return t


# --------------------------------------------------------------------------- arithmetic
class Add(Op):
    """Elementwise addition with broadcasting."""
    def forward(self, a, b):
        self._a_shape, self._b_shape = a.shape, b.shape
        return _B.add(a, b)

    def backward(self, grad):
        ga = sum_to_shape(grad, self._a_shape) if self.needs_input_grad(0) else None
        gb = sum_to_shape(grad, self._b_shape) if self.needs_input_grad(1) else None
        return ga, gb


class Sub(Op):
    """Elementwise subtraction with broadcasting."""
    def forward(self, a, b):
        self._a_shape, self._b_shape = a.shape, b.shape
        return _B.subtract(a, b)

    def backward(self, grad):
        ga = sum_to_shape(grad, self._a_shape) if self.needs_input_grad(0) else None
        gb = sum_to_shape(neg(grad), self._b_shape) if self.needs_input_grad(1) else None
        return ga, gb


class Mul(Op):
    """Elementwise multiplication with broadcasting."""
    def forward(self, a, b):
        self._a_shape, self._b_shape = a.shape, b.shape
        return _B.multiply(a, b)

    def backward(self, grad):
        a, b = self.inputs
        ga = sum_to_shape(mul(grad, b), self._a_shape) if self.needs_input_grad(0) else None
        gb = sum_to_shape(mul(grad, a), self._b_shape) if self.needs_input_grad(1) else None
        return ga, gb


class Div(Op):
    """Elementwise division with broadcasting."""
    def forward(self, a, b):
        self._a_shape, self._b_shape = a.shape, b.shape
        return _B.divide(a, b)

    def backward(self, grad):
        a, b = self.inputs
        ga = sum_to_shape(div(grad, b), self._a_shape) if self.needs_input_grad(0) else None
        gb = (sum_to_shape(neg(div(mul(grad, a), mul(b, b))), self._b_shape)
              if self.needs_input_grad(1) else None)
        return ga, gb


class Neg(Op):
    """Elementwise negation."""
    def forward(self, a):
        return _B.negative(a)

    def backward(self, grad):
        return (neg(grad),)


class Pow(Op):
    """Elementwise power with a constant (python scalar) exponent.

    Small integer exponents are lowered to multiplies: ``a**2`` and ``a**3``
    run as ``a*a`` / ``a*a*a`` (both forward and backward), which is several
    times faster than ``power`` on this single-core target and — for
    exponent 2 — bit-identical, since IEEE multiplication is correctly
    rounded.  Exponent 1 is the identity copy and 0.5 dispatches to
    ``sqrt``.
    """

    def __init__(self, exponent: float):
        self.exponent = float(exponent)

    def forward(self, a):
        p = self.exponent
        if p == 2.0:
            return _B.multiply(a, a)
        if p == 3.0:
            return _B.multiply(_B.multiply(a, a), a)
        if p == 1.0:
            return np.array(a, copy=True)
        if p == 0.5:
            return _B.sqrt(a)
        return _B.power(a, p)

    def backward(self, grad):
        (a,) = self.inputs
        p = self.exponent
        if p == 2.0:
            return (mul(grad, mul(a, 2.0)),)
        if p == 3.0:
            return (mul(grad, mul(mul(a, a), 3.0)),)
        if p == 1.0:
            return (grad,)
        return (mul(grad, mul(pow(a, p - 1.0), p)),)


class Exp(Op):
    """Elementwise natural exponential."""
    def forward(self, a):
        return _B.exp(a)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, exp(a)),)


class Log(Op):
    """Elementwise natural logarithm."""
    def forward(self, a):
        return _B.log(a)

    def backward(self, grad):
        (a,) = self.inputs
        return (div(grad, a),)


class Sin(Op):
    """Elementwise sine."""
    def forward(self, a):
        return _B.sin(a)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, cos(a)),)


class Cos(Op):
    """Elementwise cosine."""
    def forward(self, a):
        return _B.cos(a)

    def backward(self, grad):
        (a,) = self.inputs
        return (neg(mul(grad, sin(a))),)


class Tanh(Op):
    """Elementwise hyperbolic tangent."""
    def forward(self, a):
        return _B.tanh(a)

    def backward(self, grad):
        (a,) = self.inputs
        t = tanh(a)
        return (mul(grad, sub(1.0, mul(t, t))),)


class Sigmoid(Op):
    """Elementwise logistic sigmoid."""
    def forward(self, a):
        # Two-sided stable form in one divide: with t = exp(-|a|) <= 1,
        # a >= 0 -> 1/(1+t) and a < 0 -> t/(1+t), no overflow on either
        # side; max(t, a >= 0) selects the numerator 1 or t exactly.
        t, num = np.empty_like(a), np.empty_like(a)
        np.abs(a, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.greater_equal(a, 0.0, out=num)
        np.maximum(t, num, out=num)
        np.add(t, 1.0, out=t)
        return np.divide(num, t, out=num)

    def backward(self, grad):
        (a,) = self.inputs
        s = sigmoid(a)
        return (mul(grad, mul(s, sub(1.0, s))),)


class Softplus(Op):
    """Numerically stable ``log(1 + exp(x))``; derivative is ``sigmoid(x)``."""

    def forward(self, a):
        t, out = np.empty_like(a), np.empty_like(a)
        np.abs(a, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.maximum(a, 0.0, out=out)
        return np.add(out, t, out=out)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, sigmoid(a)),)


class ReLU(Op):
    """Elementwise rectified linear unit."""
    def forward(self, a):
        # a * (a > 0), not max(a, 0): negative inputs give -0.0, which the
        # compiled lowering reproduces bit for bit.  The mask is written in
        # a's dtype and reused as the result.
        out = np.empty_like(a)
        np.greater(a, 0, out=out)
        return np.multiply(a, out, out=out)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, greater_mask(a, 0.0)),)


class LeakyReLU(Op):
    """Elementwise leaky ReLU with configurable negative slope."""
    def __init__(self, negative_slope: float = 0.01):
        self.negative_slope = float(negative_slope)

    def forward(self, a):
        return a * np.where(a > 0, 1.0, self.negative_slope).astype(a.dtype)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, leaky_relu_mask(a, self.negative_slope)),)


class Abs(Op):
    """Elementwise absolute value (subgradient 0 at the origin)."""
    def forward(self, a):
        return np.abs(a)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, sign(a)),)


class Maximum(Op):
    """Elementwise maximum of two tensors (ties split the gradient)."""
    def forward(self, a, b):
        self._a_shape, self._b_shape = a.shape, b.shape
        return _B.maximum(a, b)

    def backward(self, grad):
        a, b = self.inputs
        mask = greater_equal_mask(a, b)
        ga = sum_to_shape(mul(grad, mask), self._a_shape) if self.needs_input_grad(0) else None
        gb = (sum_to_shape(mul(grad, sub(1.0, mask)), self._b_shape)
              if self.needs_input_grad(1) else None)
        return ga, gb


class Minimum(Op):
    """Elementwise minimum of two tensors (ties split the gradient)."""
    def forward(self, a, b):
        self._a_shape, self._b_shape = a.shape, b.shape
        return _B.minimum(a, b)

    def backward(self, grad):
        a, b = self.inputs
        mask = less_equal_mask(a, b)
        ga = sum_to_shape(mul(grad, mask), self._a_shape) if self.needs_input_grad(0) else None
        gb = (sum_to_shape(mul(grad, sub(1.0, mask)), self._b_shape)
              if self.needs_input_grad(1) else None)
        return ga, gb


class Floor(Op):
    """Elementwise floor (piecewise constant — zero gradient everywhere)."""
    def forward(self, a):
        return _B.floor(a)

    def backward(self, grad):
        return (None,)


class Sign(Op):
    """Elementwise sign (piecewise constant — zero gradient everywhere)."""
    def forward(self, a):
        return _B.sign(a)

    def backward(self, grad):
        return (None,)


class GreaterMask(Op):
    """``(a > b)`` as a 0/1 mask in ``a``'s dtype (piecewise constant).

    The mask backwards of :class:`ReLU` / :class:`Maximum` etc. are
    expressed through these primitives instead of forward-cached arrays so
    that a captured backward program recomputes every mask from the live
    batch instead of replaying the trace batch's masks.
    """
    def forward(self, a, b):
        return (a > b).astype(a.dtype)

    def backward(self, grad):
        return (None, None)


class GreaterEqualMask(Op):
    """``(a >= b)`` as a 0/1 mask in ``a``'s dtype (piecewise constant)."""
    def forward(self, a, b):
        return (a >= b).astype(a.dtype)

    def backward(self, grad):
        return (None, None)


class LessEqualMask(Op):
    """``(a <= b)`` as a 0/1 mask in ``a``'s dtype (piecewise constant)."""
    def forward(self, a, b):
        return (a <= b).astype(a.dtype)

    def backward(self, grad):
        return (None, None)


class LeakyReLUMask(Op):
    """Derivative mask of leaky ReLU: 1 where ``a > 0``, else the slope."""
    def __init__(self, negative_slope: float = 0.01):
        self.negative_slope = float(negative_slope)

    def forward(self, a):
        return np.where(a > 0, 1.0, self.negative_slope).astype(a.dtype)

    def backward(self, grad):
        return (None,)


# --------------------------------------------------------------------------- linear algebra
class MatMul(Op):
    """Matrix product over the trailing two axes, with batching."""
    def forward(self, a, b):
        self._a_shape, self._b_shape = a.shape, b.shape
        return _B.matmul(a, b)

    def backward(self, grad):
        a, b = self.inputs
        ga = gb = None
        if self.needs_input_grad(0):
            ga = sum_to_shape(matmul(grad, swap_last_axes(b)), self._a_shape)
        if self.needs_input_grad(1):
            gb = sum_to_shape(matmul(swap_last_axes(a), grad), self._b_shape)
        return ga, gb


# --------------------------------------------------------------------------- reductions & shape
class Sum(Op):
    """Reduction by summation over the given axes."""
    def __init__(self, axis=None, keepdims: bool = False):
        self.axis = axis
        self.keepdims = keepdims

    def forward(self, a):
        self._in_shape = a.shape
        return _B.sum(a, axis=self.axis, keepdims=self.keepdims)

    def backward(self, grad):
        if self.axis is None:
            kept_shape = (1,) * len(self._in_shape)
        else:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            axes = tuple(ax % len(self._in_shape) for ax in axes)
            kept_shape = tuple(
                1 if i in axes else d for i, d in enumerate(self._in_shape)
            )
        # With keepdims the gradient already has the kept shape.
        g = grad if self.keepdims else reshape(grad, kept_shape)
        return (broadcast_to(g, self._in_shape),)


class BroadcastTo(Op):
    """Broadcast to a target shape (gradient sums back)."""
    def __init__(self, shape):
        self.shape = tuple(shape)

    def forward(self, a):
        self._in_shape = a.shape
        return np.broadcast_to(a, self.shape).copy()

    def backward(self, grad):
        return (sum_to_shape(grad, self._in_shape),)


class Reshape(Op):
    """Shape change preserving element order."""
    def __init__(self, shape):
        self.shape = tuple(shape)

    def forward(self, a):
        self._in_shape = a.shape
        return a.reshape(self.shape)

    def backward(self, grad):
        return (reshape(grad, self._in_shape),)


class Transpose(Op):
    """Axis permutation."""
    def __init__(self, axes=None):
        self.axes = tuple(axes) if axes is not None else None
        # Reversing the axes is its own inverse; a permutation's is its argsort
        # (in Python: NumPy's costs more than a small transpose itself).
        self._inverse = (None if axes is None else
                         tuple(sorted(range(len(self.axes)), key=self.axes.__getitem__)))

    def forward(self, a):
        self._ndim = a.ndim
        return np.transpose(a, self.axes)

    def backward(self, grad):
        return (transpose(grad, self._inverse),)


def _is_basic_index(index) -> bool:
    """Whether ``a[index]`` is basic indexing: a NumPy view, no element twice."""
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(i, (int, np.integer, slice, type(None), type(Ellipsis)))
               for i in items)


def _basic_view(array, index):
    """``array[index]`` where that is a view of ``array``, else ``None``.

    Advanced indices copy, and so does an all-integer basic index: it
    returns a scalar, not a 0-d view.
    """
    view = array[index] if _is_basic_index(index) else None
    return view if isinstance(view, np.ndarray) else None


class GetIndex(Op):
    """``a[index]`` for arbitrary numpy indexing expressions."""

    def __init__(self, index):
        self.index = index

    def forward(self, a):
        self._in_shape = a.shape
        out = a[self.index]
        return np.array(out, copy=True)

    def backward(self, grad):
        return (put_index(grad, self.index, self._in_shape),)


class PutIndex(Op):
    """Scatter-add ``a`` into a zero array of ``shape`` at ``index``.

    This is the adjoint of :class:`GetIndex`; the pair makes gather/scatter
    fully differentiable (to any order), which is required because the latent
    context grid of MeshfreeFlowNet is gathered at the 8 bounding vertices of
    every query point and that gather lives on the second-order path of the
    equation loss.

    A basic index selects each element at most once, so the scatter is a
    plain add into the selected view — still an *add* into the zeros, never
    an assignment, so ``-0.0`` lands as ``+0.0`` exactly as ``np.add.at``
    leaves it.  Advanced indices may repeat elements and keep ``np.add.at``.
    """

    def __init__(self, index, shape):
        self.index = index
        self.shape = tuple(shape)

    def forward(self, a):
        out = np.zeros(self.shape, dtype=a.dtype)
        view = _basic_view(out, self.index)
        if view is not None:
            np.add(view, a, out=view)
        else:
            np.add.at(out, self.index, a)
        return out

    def backward(self, grad):
        return (getitem(grad, self.index),)


class GatherVertices(Op):
    """Batched gather of latent-grid vertices at tape-computed indices.

    ``grid`` has layout ``(N, n_t, n_z, n_x, C)``; ``it`` / ``iz`` / ``ix``
    are ``(N, P)`` tensors holding exact integers in floating storage
    (products of :func:`floor` / :func:`clip_by_value`, kept floating so the
    index arithmetic itself stays on the tape).  The integer cast happens
    inside ``forward``, so a captured program replayed on a new batch
    recomputes the gather locations from the live index tensors instead of
    replaying the trace batch's.  Together with :class:`ScatterVertices`
    (its adjoint) the gather is differentiable with respect to the grid
    data to any order; the index operands are piecewise constant and
    receive no gradient.
    """

    def forward(self, grid, it, iz, ix):
        self._grid_shape = grid.shape
        batch = np.arange(grid.shape[0])[:, None]
        # Advanced indexing already returns a fresh C-contiguous array.
        return grid[batch, it.astype(np.int64), iz.astype(np.int64), ix.astype(np.int64)]

    def backward(self, grad):
        _, it, iz, ix = self.inputs
        g = (scatter_vertices(grad, it, iz, ix, self._grid_shape)
             if self.needs_input_grad(0) else None)
        return (g, None, None, None)


class ScatterVertices(Op):
    """Adjoint of :class:`GatherVertices`: scatter-add rows into a zero grid."""

    def __init__(self, grid_shape):
        self.grid_shape = tuple(grid_shape)

    def forward(self, g, it, iz, ix):
        out = np.zeros(self.grid_shape, dtype=g.dtype)
        batch = np.arange(self.grid_shape[0])[:, None]
        index = (batch, it.astype(np.int64), iz.astype(np.int64), ix.astype(np.int64))
        np.add.at(out, index, g)
        return out

    def backward(self, grad):
        _, it, iz, ix = self.inputs
        g = gather_vertices(grad, it, iz, ix) if self.needs_input_grad(0) else None
        return (g, None, None, None)


class Concatenate(Op):
    """Concatenation of tensors along one axis."""
    def __init__(self, axis: int = 0):
        self.axis = axis

    def forward(self, *arrays):
        self._sizes = [a.shape[self.axis] for a in arrays]
        return np.concatenate(arrays, axis=self.axis)

    def backward(self, grad):
        grads = []
        start = 0
        for i, size in enumerate(self._sizes):
            if self.needs_input_grad(i):
                index = [slice(None)] * grad.ndim
                index[self.axis] = slice(start, start + size)
                grads.append(getitem(grad, tuple(index)))
            else:
                grads.append(None)
            start += size
        return tuple(grads)


class Pad(Op):
    """Constant (zero) padding."""

    def __init__(self, pad_width):
        self.pad_width = tuple(tuple(p) for p in pad_width)

    def forward(self, a):
        self._in_shape = a.shape
        return np.pad(a, self.pad_width, mode="constant")

    def backward(self, grad):
        index = tuple(
            slice(p[0], p[0] + d) for p, d in zip(self.pad_width, self._in_shape)
        )
        return (getitem(grad, index),)


# --------------------------------------------------------------------------- functional wrappers
def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    return Add.apply(a, b)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    return Sub.apply(a, b)


def mul(a, b) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    return Mul.apply(a, b)


def div(a, b) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    return Div.apply(a, b)


def neg(a) -> Tensor:
    """Elementwise ``-a``."""
    return Neg.apply(a)


def pow(a, exponent: float) -> Tensor:
    """Elementwise power ``a ** exponent`` for a scalar exponent."""
    return Pow.apply(a, exponent=exponent)


def square(a) -> Tensor:
    """Elementwise square ``a ** 2``."""
    a = ensure_tensor(a)
    return mul(a, a)


def exp(a) -> Tensor:
    """Elementwise natural exponential."""
    return Exp.apply(a)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    return Log.apply(a)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    return Pow.apply(a, exponent=0.5)


def sin(a) -> Tensor:
    """Elementwise sine."""
    return Sin.apply(a)


def cos(a) -> Tensor:
    """Elementwise cosine."""
    return Cos.apply(a)


def tanh(a) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return Tanh.apply(a)


def sigmoid(a) -> Tensor:
    """Elementwise logistic sigmoid."""
    return Sigmoid.apply(a)


def softplus(a) -> Tensor:
    """Elementwise numerically stable softplus ``log(1 + exp(a))``."""
    return Softplus.apply(a)


def relu(a) -> Tensor:
    """Elementwise rectified linear unit ``max(a, 0)``."""
    return ReLU.apply(a)


def leaky_relu(a, negative_slope: float = 0.01) -> Tensor:
    """Elementwise leaky ReLU with the given negative slope."""
    return LeakyReLU.apply(a, negative_slope=negative_slope)


def abs(a) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value."""
    return Abs.apply(a)


def maximum(a, b) -> Tensor:
    """Elementwise maximum of ``a`` and ``b``."""
    return Maximum.apply(a, b)


def minimum(a, b) -> Tensor:
    """Elementwise minimum of ``a`` and ``b``."""
    return Minimum.apply(a, b)


def clip_by_value(a, low: float, high: float) -> Tensor:
    """Clamp ``a`` to the closed interval ``[low, high]``."""
    return minimum(maximum(a, float(low)), float(high))


def floor(a) -> Tensor:
    """Elementwise floor (zero gradient)."""
    return Floor.apply(a)


def sign(a) -> Tensor:
    """Elementwise sign (zero gradient)."""
    return Sign.apply(a)


def greater_mask(a, b) -> Tensor:
    """``(a > b)`` as a 0/1 mask in ``a``'s dtype (zero gradient)."""
    return GreaterMask.apply(a, b)


def greater_equal_mask(a, b) -> Tensor:
    """``(a >= b)`` as a 0/1 mask in ``a``'s dtype (zero gradient)."""
    return GreaterEqualMask.apply(a, b)


def less_equal_mask(a, b) -> Tensor:
    """``(a <= b)`` as a 0/1 mask in ``a``'s dtype (zero gradient)."""
    return LessEqualMask.apply(a, b)


def leaky_relu_mask(a, negative_slope: float = 0.01) -> Tensor:
    """Leaky-ReLU derivative mask: 1 where ``a > 0``, else the slope."""
    return LeakyReLUMask.apply(a, negative_slope=negative_slope)


def gather_vertices(grid, it, iz, ix) -> Tensor:
    """Batched vertex gather ``grid[b, it, iz, ix]`` with tape-held indices."""
    return GatherVertices.apply(grid, it, iz, ix)


def scatter_vertices(g, it, iz, ix, grid_shape) -> Tensor:
    """Adjoint of :func:`gather_vertices`: scatter-add into zeros of ``grid_shape``."""
    return ScatterVertices.apply(g, it, iz, ix, grid_shape=grid_shape)


def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b`` over the trailing two axes."""
    return MatMul.apply(a, b)


def dot(a, b) -> Tensor:
    """Inner product of two 1-D tensors."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    return sum(mul(a, b))


def outer(a, b) -> Tensor:
    """Outer product of two 1-D tensors."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    return matmul(reshape(a, (-1, 1)), reshape(b, (1, -1)))


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum of elements over the given axes (all axes by default)."""
    return Sum.apply(a, axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over the given axes (all axes by default)."""
    a = ensure_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return mul(sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def var(a, axis=None, keepdims: bool = False) -> Tensor:
    """Biased (population) variance, matching BatchNorm semantics."""
    a = ensure_tensor(a)
    mu = mean(a, axis=axis, keepdims=True)
    centered = sub(a, mu)
    v = mean(mul(centered, centered), axis=axis, keepdims=keepdims)
    return v


def norm(a, ord: float = 2.0) -> Tensor:
    """Flattened vector norm."""
    a = ensure_tensor(a)
    if ord == 1:
        return sum(abs(a))
    if ord == 2:
        return sqrt(sum(square(a)))
    return pow(sum(pow(abs(a), ord)), 1.0 / ord)


def reshape(a, shape) -> Tensor:
    """Reshape ``a`` to ``shape`` preserving element order."""
    a = ensure_tensor(a)
    shape = tuple(shape) if not isinstance(shape, int) else (shape,)
    if -1 in shape:
        known = 1
        for s in shape:
            if s != -1:
                known *= s
        shape = tuple(a.size // known if s == -1 else s for s in shape)
    return Reshape.apply(a, shape=shape)


def transpose(a, axes=None) -> Tensor:
    """Permute axes (reverse them when ``axes`` is ``None``)."""
    return Transpose.apply(a, axes=axes)


def swap_last_axes(a) -> Tensor:
    """Swap the final two axes (used by matmul backward)."""
    a = ensure_tensor(a)
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, axes)


def broadcast_to(a, shape) -> Tensor:
    """Broadcast ``a`` to ``shape``."""
    return BroadcastTo.apply(a, shape=shape)


def getitem(a, index) -> Tensor:
    """Differentiable indexing/slicing ``a[index]``."""
    return GetIndex.apply(a, index=index)


def put_index(a, index, shape) -> Tensor:
    """Adjoint of :func:`getitem`: scatter ``a`` into zeros of ``shape``."""
    return PutIndex.apply(a, index=index, shape=shape)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    return Concatenate.apply(*tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [ensure_tensor(t) for t in tensors]
    expanded = [expand_dims(t, axis) for t in tensors]
    return concatenate(expanded, axis=axis)


def pad(a, pad_width) -> Tensor:
    """Zero-pad ``a`` with per-axis ``pad_width`` (numpy convention)."""
    return Pad.apply(a, pad_width=pad_width)


def expand_dims(a, axis: int) -> Tensor:
    """Insert a singleton axis at ``axis``."""
    a = ensure_tensor(a)
    shape = list(a.shape)
    if axis < 0:
        axis = len(shape) + 1 + axis
    shape.insert(axis, 1)
    return reshape(a, shape)


def squeeze(a, axis: Optional[int] = None) -> Tensor:
    """Remove singleton axes (a specific one when ``axis`` is given)."""
    a = ensure_tensor(a)
    if axis is None:
        shape = tuple(d for d in a.shape if d != 1)
    else:
        shape = tuple(d for i, d in enumerate(a.shape) if i != axis % a.ndim or d != 1)
    return reshape(a, shape)


# --------------------------------------------------------------------------- losses
def l1_loss(pred, target) -> Tensor:
    """Mean absolute error."""
    return mean(abs(sub(pred, target)))


def mse_loss(pred, target) -> Tensor:
    """Mean squared error."""
    return mean(square(sub(pred, target)))


# --------------------------------------------------------------------------- Tensor operator plumbing
def _binary_left(fn):
    def method(self, other):
        return fn(self, other)

    return method


def _binary_right(fn):
    def method(self, other):
        return fn(other, self)

    return method


Tensor.__add__ = _binary_left(add)
Tensor.__radd__ = _binary_right(add)
Tensor.__sub__ = _binary_left(sub)
Tensor.__rsub__ = _binary_right(sub)
Tensor.__mul__ = _binary_left(mul)
Tensor.__rmul__ = _binary_right(mul)
Tensor.__truediv__ = _binary_left(div)
Tensor.__rtruediv__ = _binary_right(div)
Tensor.__matmul__ = _binary_left(matmul)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__pow__ = lambda self, p: pow(self, p)
Tensor.__getitem__ = lambda self, index: getitem(self, index)

Tensor.sum = lambda self, axis=None, keepdims=False: sum(self, axis=axis, keepdims=keepdims)
Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis=axis, keepdims=keepdims)
Tensor.var = lambda self, axis=None, keepdims=False: var(self, axis=axis, keepdims=keepdims)
Tensor.reshape = lambda self, *shape: reshape(self, shape[0] if len(shape) == 1 and not isinstance(shape[0], int) else shape)
Tensor.transpose = lambda self, axes=None: transpose(self, axes)
Tensor.exp = lambda self: exp(self)
Tensor.log = lambda self: log(self)
Tensor.sqrt = lambda self: sqrt(self)
Tensor.tanh = lambda self: tanh(self)
Tensor.sigmoid = lambda self: sigmoid(self)
Tensor.relu = lambda self: relu(self)
Tensor.abs = lambda self: abs(self)
Tensor.square = lambda self: square(self)
Tensor.flatten = lambda self: reshape(self, (-1,))

# Comparison operators return plain numpy boolean arrays (non-differentiable).
Tensor.__gt__ = lambda self, other: self.data > (other.data if isinstance(other, Tensor) else other)
Tensor.__lt__ = lambda self, other: self.data < (other.data if isinstance(other, Tensor) else other)
Tensor.__ge__ = lambda self, other: self.data >= (other.data if isinstance(other, Tensor) else other)
Tensor.__le__ = lambda self, other: self.data <= (other.data if isinstance(other, Tensor) else other)
