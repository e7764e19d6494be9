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


# --------------------------------------------------------------------------- kernel contract
class KernelOp(Op):
    """An op whose forward is a fixed sequence of backend kernels: one :meth:`kernel` call.

    ``kernel(*operands, out, *scratch)`` writes the result into ``out`` (in
    the first operand's dtype) through ``out=`` kernels only, using the buffers
    :meth:`scratch_shapes` lists.  The eager :meth:`forward` allocates
    ``out`` and the scratch; a compiled plan (:mod:`repro.compile.codegen`)
    makes the same call on arena buffers, so eager and compiled run the
    same kernels on the same operands and agree bit for bit by
    construction.  An op that *is* one backend kernel names it in
    :attr:`kernel_name` instead, and ``kernel(*operands, out)`` is that
    kernel.

    Beside the kernel the class states the two facts the compiled executor
    reads, :attr:`inplace` and :attr:`elementwise`.
    """

    #: The backend kernel a one-call op is, by name (``None``: ``kernel`` is a method).
    kernel_name: Optional[str] = None
    #: ``kernel`` is done reading an operand element before it writes ``out``
    #: there, so ``out`` may be a dying same-shape operand's buffer.
    inplace = True
    #: Elementwise: consecutive elementwise ops share one generated function.
    elementwise = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kernel_name" in cls.__dict__:
            cls.kernel = staticmethod(getattr(_B, cls.kernel_name))

    def out_shape(self, *operands) -> tuple:
        """Shape of ``out`` (by default the first operand's)."""
        return operands[0].shape

    def scratch_shapes(self, *operands) -> list:
        """``(shape, dtype)`` of each scratch buffer ``kernel`` takes after ``out``.

        ``operands`` need only ``shape`` and ``dtype``: a compiled plan passes
        its traced values.
        """
        return []

    def forward(self, *operands):
        # Scratch before ``out``: the kept result then lands above the freed
        # scratch in the heap, which holds a training step's peak RSS down.
        scratch = [np.empty(shape, dtype) for shape, dtype in self.scratch_shapes(*operands)]
        out = np.empty(self.out_shape(*operands), operands[0].dtype)
        self.kernel(*operands, out, *scratch)
        return out


class UfuncOp(KernelOp):
    """A :class:`KernelOp` whose kernel has ufunc ``out`` semantics and no scratch.

    Passed ``out=None``, the kernel allocates and returns the very array its
    ``out=`` form writes, so the eager forward lets it.
    """

    def forward(self, *operands):
        return self.kernel(*operands, None)


# --------------------------------------------------------------------------- arithmetic
class Add(UfuncOp):
    """Elementwise addition with broadcasting."""
    kernel_name = "add"

    def backward(self, grad):
        a, b = self.inputs
        ga = sum_to_shape(grad, a.shape) if self.needs_input_grad(0) else None
        gb = sum_to_shape(grad, b.shape) if self.needs_input_grad(1) else None
        return ga, gb


class Sub(UfuncOp):
    """Elementwise subtraction with broadcasting."""
    kernel_name = "subtract"

    def backward(self, grad):
        a, b = self.inputs
        ga = sum_to_shape(grad, a.shape) if self.needs_input_grad(0) else None
        gb = sum_to_shape(neg(grad), b.shape) if self.needs_input_grad(1) else None
        return ga, gb


class Mul(UfuncOp):
    """Elementwise multiplication with broadcasting."""
    kernel_name = "multiply"

    def backward(self, grad):
        a, b = self.inputs
        ga = sum_to_shape(mul(grad, b), a.shape) if self.needs_input_grad(0) else None
        gb = sum_to_shape(mul(grad, a), b.shape) if self.needs_input_grad(1) else None
        return ga, gb


class Div(UfuncOp):
    """Elementwise division with broadcasting."""
    kernel_name = "divide"

    def backward(self, grad):
        a, b = self.inputs
        ga = sum_to_shape(div(grad, b), a.shape) if self.needs_input_grad(0) else None
        gb = (sum_to_shape(neg(div(mul(grad, a), mul(b, b))), b.shape)
              if self.needs_input_grad(1) else None)
        return ga, gb


class Neg(UfuncOp):
    """Elementwise negation."""
    kernel_name = "negative"

    def backward(self, grad):
        return (neg(grad),)


class Pow(KernelOp):
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

    @property
    def inplace(self):
        """``a**3`` reads ``a`` again after its first write to ``out``."""
        return self.exponent != 3.0

    def kernel(self, a, out):
        p = self.exponent
        if p == 2.0:
            _B.multiply(a, a, out=out)
        elif p == 3.0:
            _B.multiply(a, a, out=out)
            _B.multiply(out, a, out=out)
        elif p == 1.0:
            _B.copyto(out, a)
        elif p == 0.5:
            _B.sqrt(a, out=out)
        else:
            _B.power(a, p, out=out)

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


class Exp(UfuncOp):
    """Elementwise natural exponential."""
    kernel_name = "exp"

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, exp(a)),)


class Log(UfuncOp):
    """Elementwise natural logarithm."""
    kernel_name = "log"

    def backward(self, grad):
        (a,) = self.inputs
        return (div(grad, a),)


class Sin(UfuncOp):
    """Elementwise sine."""
    kernel_name = "sin"

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, cos(a)),)


class Cos(UfuncOp):
    """Elementwise cosine."""
    kernel_name = "cos"

    def backward(self, grad):
        (a,) = self.inputs
        return (neg(mul(grad, sin(a))),)


class Tanh(UfuncOp):
    """Elementwise hyperbolic tangent."""
    kernel_name = "tanh"

    def backward(self, grad):
        (a,) = self.inputs
        t = tanh(a)
        return (mul(grad, sub(1.0, mul(t, t))),)


def _same(a) -> list:
    """One scratch buffer shaped and typed like ``a``."""
    return [(a.shape, a.dtype)]


def _mask(a) -> list:
    """One boolean scratch buffer shaped like ``a``."""
    return [(a.shape, np.bool_)]


class Sigmoid(KernelOp):
    """Elementwise logistic sigmoid."""

    scratch_shapes = staticmethod(_same)

    def kernel(self, a, out, t):
        # Two-sided stable form in one divide: with t = exp(-|a|) <= 1,
        # a >= 0 -> 1/(1+t) and a < 0 -> t/(1+t), no overflow on either
        # side; max(t, a >= 0) selects the numerator 1 or t exactly.
        _B.abs(a, out=t)
        _B.negative(t, out=t)
        _B.exp(t, out=t)
        _B.greater_equal(a, 0.0, out=out)
        _B.maximum(t, out, out=out)
        _B.add(t, 1.0, out=t)
        _B.divide(out, t, out=out)

    def backward(self, grad):
        (a,) = self.inputs
        s = sigmoid(a)
        return (mul(grad, mul(s, sub(1.0, s))),)


class Softplus(KernelOp):
    """Numerically stable ``log(1 + exp(x))``; derivative is ``sigmoid(x)``."""

    scratch_shapes = staticmethod(_same)

    def kernel(self, a, out, t):
        _B.abs(a, out=t)
        _B.negative(t, out=t)
        _B.exp(t, out=t)
        _B.log1p(t, out=t)
        _B.maximum(a, 0.0, out=out)
        _B.add(out, t, out=out)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, sigmoid(a)),)


class ReLU(KernelOp):
    """Elementwise rectified linear unit."""

    inplace = False  # reads ``a`` after writing the mask into ``out``

    def kernel(self, a, out):
        # a * (a > 0), not max(a, 0): negative inputs give -0.0.
        _B.greater(a, 0.0, out=out)
        _B.multiply(a, out, out=out)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, greater_mask(a, 0.0)),)


def _leaky_slopes(a, slope, out, positive):
    """``where(a > 0, 1, slope)`` into ``out``: fill with the slope, then copy 1 where positive."""
    _B.greater(a, 0.0, out=positive)
    out.fill(slope)
    _B.copyto(out, 1.0, where=positive)


class LeakyReLU(KernelOp):
    """Elementwise leaky ReLU with configurable negative slope: ``a * where(a > 0, 1, slope)``."""

    inplace = False  # reads ``a`` after writing the slopes into ``out``
    scratch_shapes = staticmethod(_mask)

    def __init__(self, negative_slope: float = 0.01):
        self.negative_slope = float(negative_slope)

    def kernel(self, a, out, positive):
        _leaky_slopes(a, self.negative_slope, out, positive)
        _B.multiply(a, out, out=out)

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, leaky_relu_mask(a, self.negative_slope)),)


class Abs(UfuncOp):
    """Elementwise absolute value (subgradient 0 at the origin)."""
    kernel_name = "abs"

    def backward(self, grad):
        (a,) = self.inputs
        return (mul(grad, sign(a)),)


class Maximum(UfuncOp):
    """Elementwise maximum of two tensors (ties split the gradient)."""
    kernel_name = "maximum"

    def backward(self, grad):
        a, b = self.inputs
        mask = greater_equal_mask(a, b)
        ga = sum_to_shape(mul(grad, mask), a.shape) if self.needs_input_grad(0) else None
        gb = (sum_to_shape(mul(grad, sub(1.0, mask)), b.shape)
              if self.needs_input_grad(1) else None)
        return ga, gb


class Minimum(UfuncOp):
    """Elementwise minimum of two tensors (ties split the gradient)."""
    kernel_name = "minimum"

    def backward(self, grad):
        a, b = self.inputs
        mask = less_equal_mask(a, b)
        ga = sum_to_shape(mul(grad, mask), a.shape) if self.needs_input_grad(0) else None
        gb = (sum_to_shape(mul(grad, sub(1.0, mask)), b.shape)
              if self.needs_input_grad(1) else None)
        return ga, gb


class Floor(UfuncOp):
    """Elementwise floor (piecewise constant — zero gradient everywhere)."""
    kernel_name = "floor"

    def backward(self, grad):
        return (None,)


class Sign(UfuncOp):
    """Elementwise sign (piecewise constant — zero gradient everywhere)."""
    kernel_name = "sign"

    def backward(self, grad):
        return (None,)


class _Mask(KernelOp):
    """A comparison as a 0/1 mask in ``a``'s dtype (piecewise constant).

    The comparison kernel writes its booleans straight into the float
    ``out``.  The mask backwards of :class:`ReLU` / :class:`Maximum` etc.
    are expressed through these primitives instead of forward-cached arrays
    so that a captured backward program recomputes every mask from the live
    batch instead of replaying the trace batch's masks.
    """

    def out_shape(self, a, b):
        return np.broadcast(a, b).shape

    def backward(self, grad):
        return (None, None)


class GreaterMask(_Mask):
    """``(a > b)`` as a 0/1 mask in ``a``'s dtype."""
    kernel_name = "greater"


class GreaterEqualMask(_Mask):
    """``(a >= b)`` as a 0/1 mask in ``a``'s dtype."""
    kernel_name = "greater_equal"


class LessEqualMask(_Mask):
    """``(a <= b)`` as a 0/1 mask in ``a``'s dtype."""
    kernel_name = "less_equal"


class LeakyReLUMask(KernelOp):
    """Derivative mask of leaky ReLU: 1 where ``a > 0``, else the slope."""

    scratch_shapes = staticmethod(_mask)

    def __init__(self, negative_slope: float = 0.01):
        self.negative_slope = float(negative_slope)

    def kernel(self, a, out, positive):
        _leaky_slopes(a, self.negative_slope, out, positive)

    def backward(self, grad):
        return (None,)


# --------------------------------------------------------------------------- linear algebra
class MatMul(UfuncOp):
    """Matrix product over the trailing two axes, with batching."""
    kernel_name = "matmul"
    inplace = elementwise = False

    def backward(self, grad):
        a, b = self.inputs
        ga = gb = None
        if self.needs_input_grad(0):
            ga = sum_to_shape(matmul(grad, swap_last_axes(b)), a.shape)
        if self.needs_input_grad(1):
            gb = sum_to_shape(matmul(swap_last_axes(a), grad), b.shape)
        return ga, gb


# --------------------------------------------------------------------------- reductions & shape
class Sum(UfuncOp):
    """Reduction by summation over the given axes, onto ``initial``."""
    inplace = elementwise = False

    def __init__(self, axis=None, keepdims: bool = False, initial: float = 0.0):
        self.axis = axis
        self.keepdims = keepdims
        self.initial = initial

    def kernel(self, a, out):
        return _B.sum(a, axis=self.axis, keepdims=self.keepdims, out=out, initial=self.initial)

    def backward(self, grad):
        in_shape = self.inputs[0].shape
        if self.axis is None:
            kept_shape = (1,) * len(in_shape)
        else:
            axes = self.axis if isinstance(self.axis, tuple) else (self.axis,)
            axes = tuple(ax % len(in_shape) for ax in axes)
            kept_shape = tuple(1 if i in axes else d for i, d in enumerate(in_shape))
        # With keepdims the gradient already has the kept shape.
        g = grad if self.keepdims else reshape(grad, kept_shape)
        return (broadcast_to(g, in_shape),)


class BroadcastTo(KernelOp):
    """Broadcast to a target shape (gradient sums back)."""
    inplace = False

    def __init__(self, shape):
        self.shape = tuple(shape)

    def out_shape(self, a):
        return self.shape

    def kernel(self, a, out):
        _B.copyto(out, a)

    def backward(self, grad):
        return (sum_to_shape(grad, self.inputs[0].shape),)


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

    eager_only = "an advanced index gathers data-dependent rows (a basic one is a view)"

    def __init__(self, index):
        self.index = index

    def forward(self, a):
        self._in_shape = a.shape
        out = a[self.index]
        return np.array(out, copy=True)

    def backward(self, grad):
        return (put_index(grad, self.index, self._in_shape),)


class PutIndex(KernelOp):
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

    inplace = elementwise = False

    def __init__(self, index, shape):
        self.index = index
        self.shape = tuple(shape)

    def out_shape(self, a):
        return self.shape

    def kernel(self, a, out):
        out.fill(0.0)
        view = _basic_view(out, self.index)
        if view is not None:
            _B.add(view, a, out=view)
        else:
            np.add.at(out, self.index, a)

    def backward(self, grad):
        return (getitem(grad, self.index),)


def _vertex_rows(grid_shape, it, iz, ix) -> np.ndarray:
    """``(N, M)`` row of each indexed vertex in the grid viewed as ``(N·n_t·n_z·n_x, C)``."""
    n, nt, nz, nx = grid_shape[:4]
    batch = np.arange(n)[:, None] * nt
    return ((batch + it.astype(np.int64)) * nz + iz.astype(np.int64)) * nx + ix.astype(np.int64)


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

    The gather is one ``take`` of whole rows through the flat vertex index
    (a strided grid, such as the channel-last view of an ``(N, C, ...)``
    grid, is flattened into a copy first).
    """

    eager_only = "a row gather through tape-computed indices, into a fresh array"

    def forward(self, grid, it, iz, ix):
        self._grid_shape = grid.shape
        rows = _vertex_rows(grid.shape, it, iz, ix)
        return grid.reshape(-1, grid.shape[-1]).take(rows, axis=0)

    def backward(self, grad):
        _, it, iz, ix = self.inputs
        g = (scatter_vertices(grad, it, iz, ix, self._grid_shape)
             if self.needs_input_grad(0) else None)
        return (g, None, None, None)


class ScatterVertices(Op):
    """Adjoint of :class:`GatherVertices`: scatter-add rows into a zero grid.

    One unbuffered ``np.add.at`` over the flat element index
    ``row * C + channel``: each output element receives its addends in
    ``(N, P)`` order onto ``+0.0``, exactly as the four-array ``np.add.at``
    over ``(batch, it, iz, ix)`` adds them, but without its per-row
    overhead.  (``np.bincount`` is as fast but accumulates float32 weights in
    float64, which rounds differently.)
    """

    eager_only = "an unbuffered scatter-add through tape-computed indices"

    def __init__(self, grid_shape):
        self.grid_shape = tuple(grid_shape)

    def forward(self, g, it, iz, ix):
        out = np.zeros(self.grid_shape, dtype=g.dtype)
        channels = self.grid_shape[-1]
        rows = _vertex_rows(self.grid_shape, it, iz, ix)
        np.add.at(out.reshape(-1), (rows[..., None] * channels + np.arange(channels)).ravel(),
                  g.reshape(-1))
        return out

    def backward(self, grad):
        _, it, iz, ix = self.inputs
        g = gather_vertices(grad, it, iz, ix) if self.needs_input_grad(0) else None
        return (g, None, None, None)


class Concatenate(UfuncOp):
    """Concatenation of tensors along one axis."""
    inplace = elementwise = False

    def __init__(self, axis: int = 0):
        self.axis = axis

    def kernel(self, *args):
        *arrays, out = args
        return np.concatenate(arrays, axis=self.axis, out=out)

    def backward(self, grad):
        grads, start = [], 0
        for i, a in enumerate(self.inputs):
            stop = start + a.shape[self.axis]
            if self.needs_input_grad(i):
                index = [slice(None)] * grad.ndim
                index[self.axis] = slice(start, stop)
                grads.append(getitem(grad, tuple(index)))
            else:
                grads.append(None)
            start = stop
        return tuple(grads)


class Pad(KernelOp):
    """Constant (zero) padding, one ``(before, after)`` pair per axis: a zero fill and an interior copy."""
    inplace = elementwise = False

    def __init__(self, pad_width):
        self.pad_width = tuple(tuple(p) for p in pad_width)

    def _interior(self, shape):
        """The index of the input's place in the padded result."""
        return tuple(slice(lo, lo + d) for (lo, _), d in zip(self.pad_width, shape, strict=True))

    def out_shape(self, a):
        return tuple(lo + d + hi for (lo, hi), d in zip(self.pad_width, a.shape, strict=True))

    def kernel(self, a, out):
        out.fill(0.0)
        _B.copyto(out[self._interior(a.shape)], a)

    def backward(self, grad):
        return (getitem(grad, self._interior(self.inputs[0].shape)),)


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


def sum(a, axis=None, keepdims: bool = False, initial: float = 0.0) -> Tensor:  # noqa: A001
    """Sum of elements over the given axes (all axes by default).

    The sum starts from ``initial``: NumPy's ``0.0`` by default, which turns
    a sum of negative zeros into ``+0.0``.  ``-0.0`` is IEEE addition's exact
    identity, so with it a reduction over a non-innermost axis is bit for
    bit the running sum ``((x_0 + x_1) + x_2) + ...``, signed zeros included.
    """
    return Sum.apply(a, axis=axis, keepdims=keepdims, initial=initial)


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
