"""One lowering per op: the table every compiled kernel step is built from.

:data:`LOWERINGS` maps each op class the executor can run without its
eager ``forward`` to one :class:`Lowering` — the op's whole compile-side
contract: the emitter that writes its source lines, whether it may write
over a dying same-shape operand, whether it may join an elementwise
region, and which instances have a kernel lowering at all.  Nothing else
in :mod:`repro.compile` lists op classes; an op absent from the table
runs as an eager-fallback step.

:class:`StepFunction` accumulates the lines of consecutive nodes into one
generated Python function, compiled once and kept on the plan.  Its body
is a flat sequence of backend ``out=`` kernel calls on arena buffers, so
steady-state execution allocates nothing.

Operand binding rules
---------------------

* **Stable** objects — trace constants, arena buffers (outputs and
  transient scratch), kernels and scalar arguments — are the function's
  default arguments, local variables at run time.  Parameters are named
  by position, so structurally equal functions (the repeated layers of a
  derivative graph) share one source and one code object.
* **Unstable** slots — program inputs, view-step outputs and
  eager-fallback outputs — are loaded from ``env`` in the function
  preamble, because :meth:`CompiledPlan.run` rebinds them on every call.
* Scratch is taken from the arena while the node is emitted and handed
  back before the next node's output is assigned: it is free for any later
  node's storage, and no generated function owns memory of its own.
"""

from __future__ import annotations

import functools
import types
from typing import Callable, NamedTuple

import numpy as np

from ..autodiff import nn_ops as _nn_ops, ops as _ops
from ..backend import get_backend

__all__ = ["LOWERINGS", "Lowering", "StepFunction", "lowering_of"]

_B = get_backend()
_NO_GLOBALS: dict = {}


def _always(op) -> bool:
    return True


def _never(op) -> bool:
    return False


class Lowering(NamedTuple):
    """The compile-side contract of one op class.

    ``emit(fn, node, out, *operands)`` returns the source lines computing
    ``node`` into the bound buffer named ``out``; ``operands`` are the
    bound names of ``node.in_ids``.
    """

    emit: Callable
    #: ``op -> bool``: the lines finish reading every operand before the
    #: first write to ``out``, so ``out`` may be a dying operand's buffer.
    inplace: Callable = _always
    #: Elementwise: consecutive region-eligible nodes share one function.
    region: bool = True
    #: ``op -> bool``: instances it rejects take the eager-fallback step.
    lowers: Callable = _always


@functools.lru_cache(maxsize=4096)
def _code(source: str):
    """Code object of the ``_step`` function ``source`` defines."""
    namespace: dict = {}
    exec(compile(source, "<repro.compile.codegen>", "exec"), namespace)
    return namespace["_step"].__code__


class StepFunction:
    """Source of one generated plan step, built node by node."""

    def __init__(self, values, env, arena):
        self.values, self.env, self.arena = values, env, arena
        self.op_names: list[str] = []
        self._bindings: dict[str, object] = {}  # default-argument name -> object
        self._names: dict[int, str] = {}        # value id -> local name
        self._preamble: list[str] = []
        self._body: list[str] = []
        self._transient: list[np.ndarray] = []

    @property
    def label(self) -> str:
        """The op name of a one-op function, ``fused[N]`` for a region."""
        n = len(self.op_names)
        return self.op_names[0] if n == 1 else f"fused[{n}]"

    def bind(self, obj) -> str:
        """Bind ``obj`` as a default argument; returns its local name."""
        name = f"x{len(self._bindings)}"
        self._bindings[name] = obj
        return name

    def name_of(self, vid: int) -> str:
        """Local name of value ``vid``, binding or loading it on first use."""
        name = self._names.get(vid)
        if name is None:
            array = self.env[vid]
            if array is not None:
                name = self.bind(array)
            else:  # unstable slot: re-read on every run
                name = f"u{len(self._preamble)}"
                self._preamble.append(f"{name} = env[{self.bind(vid)}]")
            self._names[vid] = name
        return name

    def scratch(self, like: str, dtype=None, shape=None) -> str:
        """Transient arena array shaped like the bound buffer ``like`` (or ``shape``)."""
        buf = self._bindings[like]
        array = self.arena.acquire(buf.shape if shape is None else shape,
                                   buf.dtype if dtype is None else dtype)
        self._transient.append(array)
        return self.bind(array)

    def call(self, kernel: str, *args, **kwargs) -> str:
        """One backend kernel call; non-name arguments are bound objects."""
        self._bindings[kernel] = getattr(_B, kernel)
        parts = [a if isinstance(a, str) else self.bind(a) for a in args]
        parts += [f"{k}={v if isinstance(v, str) else self.bind(v)}" for k, v in kwargs.items()]
        return f"{kernel}({', '.join(parts)})"

    def add(self, node, lowering: Lowering) -> None:
        """Emit ``node`` (its output buffer is already in ``env``)."""
        out = self.name_of(node.out_id)
        operands = [self.name_of(vid) for vid in node.in_ids]
        self._body.extend(lowering.emit(self, node, out, *operands))
        self.op_names.append(node.op_name)
        for array in self._transient:
            self.arena.release(array)
        self._transient.clear()

    def build(self) -> Callable:
        """Compile the accumulated lines into ``step(env)``."""
        lines = [f"def _step(env, {', '.join(self._bindings)}):"]
        lines.extend("    " + line for line in self._preamble + self._body)
        # Every name is a parameter: the function needs no globals of its own.
        return types.FunctionType(_code("\n".join(lines) + "\n"), _NO_GLOBALS, "_step",
                                  tuple(self._bindings.values()))


# -------------------------------------------------------------------- emitters
def _kernel(kernel: str) -> Callable:
    """``kernel(*operands, out=out)`` — unary, binary and comparison-mask
    ops (``np.greater(a, b, out=float_buf)`` performs the bool -> float
    cast, matching the eager ``(a > b).astype(dtype)`` exactly), matmul."""
    return lambda fn, node, out, *operands: [fn.call(kernel, *operands, out=out)]


def _copy(fn, node, out, a):
    return [fn.call("copyto", out, a)]


def _pow(fn, node, out, a):
    p = node.op.exponent
    if p == 2.0:
        return [fn.call("multiply", a, a, out=out)]
    if p == 3.0:  # reads ``a`` after the first write: never in place
        return [fn.call("multiply", a, a, out=out), fn.call("multiply", out, a, out=out)]
    if p == 1.0:
        return _copy(fn, node, out, a)
    if p == 0.5:
        return [fn.call("sqrt", a, out=out)]
    return [fn.call("power", a, p, out=out)]


def _relu(fn, node, out, a):
    # Same form as the eager op (a * (a > 0)) rather than max(a, 0):
    # bit-identical including the sign of zero for negative inputs.
    mask = fn.scratch(out)
    return [fn.call("greater", a, 0.0, out=mask), fn.call("multiply", a, mask, out=out)]


def _leaky_relu(fn, node, out, a):
    # max(slope*a, a) == leaky_relu(a) only for slopes in [0, 1] (the
    # entry's ``lowers``); reads ``a`` after the first write.
    return [fn.call("multiply", a, node.op.negative_slope, out=out),
            fn.call("maximum", out, a, out=out)]


def _leaky_relu_mask(fn, node, out, a):
    # fill(slope) + copyto(1, where=a>0) == where(a > 0, 1, slope).
    mask = fn.scratch(out, np.bool_)
    return [fn.call("greater", a, 0.0, out=mask),
            f"{out}.fill({fn.bind(node.op.negative_slope)})",
            fn.call("copyto", out, 1.0, where=mask)]


def _sigmoid(fn, node, out, a):
    # The eager op's seven kernels: t = exp(-|a|), then max(t, a >= 0) —
    # the numerator 1 or t — over 1 + t.
    t = fn.scratch(out)
    return [
        fn.call("abs", a, out=t),
        fn.call("negative", t, out=t),
        fn.call("exp", t, out=t),
        fn.call("greater_equal", a, 0.0, out=out),
        fn.call("maximum", t, out, out=out),
        fn.call("add", t, 1.0, out=t),
        fn.call("divide", out, t, out=out),
    ]


def _softplus(fn, node, out, a):
    s = fn.scratch(out)
    return [
        fn.call("abs", a, out=s),
        fn.call("negative", s, out=s),
        fn.call("exp", s, out=s),
        fn.call("log1p", s, out=s),
        fn.call("maximum", a, 0.0, out=out),
        fn.call("add", out, s, out=out),
    ]


def _sum(fn, node, out, a):
    return [fn.call("sum", a, axis=node.op.axis, keepdims=node.op.keepdims,
                    initial=node.op.initial, out=out)]


def _concatenate(fn, node, out, *operands):
    buf, axis = fn.env[node.out_id], node.op.axis
    lines, start = [], 0
    for vid, name in zip(node.in_ids, operands):
        index = [slice(None)] * buf.ndim
        stop = start + fn.values[vid].shape[axis]
        index[axis] = slice(start, stop)
        lines.append(fn.call("copyto", fn.bind(buf[tuple(index)]), name))
        start = stop
    return lines


def _pad(fn, node, out, a):
    interior = fn.env[node.out_id][tuple(
        slice(p[0], p[0] + d)
        for p, d in zip(node.op.pad_width, fn.values[node.in_ids[0]].shape)
    )]
    return [f"{out}.fill(0.0)", fn.call("copyto", fn.bind(interior), a)]


def _put_index(fn, node, out, a):
    # The eager op's two branches: a basic index is a plain add into a view
    # of the (stable) arena buffer, an advanced one scatters with add.at.
    index = node.op.index
    view = _ops._basic_view(fn.env[node.out_id], index)
    if view is not None:
        target = fn.bind(view)
        return [f"{out}.fill(0.0)", fn.call("add", target, a, out=target)]
    return [f"{out}.fill(0.0)", f"{fn.bind(np.add.at)}({out}, {fn.bind(index)}, {a})"]


def _batch_norm_kernel(fn, node, out, *operands):
    # The eager forward's own kernel call, on arena scratch instead of
    # fresh arrays: the same kernels on the same operands.
    first = fn.values[node.in_ids[0]]
    scratch = [fn.scratch(out, first.dtype, shape) for shape in node.op.scratch_shapes(first.shape)]
    return [f"{fn.bind(node.op.kernel)}({', '.join([*operands, out, *scratch])})"]


def _standalone(emit: Callable) -> Lowering:
    """Kernel-bound ops: a function of their own, never in place."""
    return Lowering(emit, inplace=_never, region=False)


LOWERINGS: dict[type, Lowering] = {
    **{cls: Lowering(_kernel(kernel)) for cls, kernel in (
        (_ops.Neg, "negative"), (_ops.Exp, "exp"), (_ops.Log, "log"),
        (_ops.Sin, "sin"), (_ops.Cos, "cos"), (_ops.Tanh, "tanh"),
        (_ops.Abs, "abs"), (_ops.Sign, "sign"), (_ops.Floor, "floor"),
        (_ops.Add, "add"), (_ops.Sub, "subtract"), (_ops.Mul, "multiply"),
        (_ops.Div, "divide"), (_ops.Maximum, "maximum"), (_ops.Minimum, "minimum"),
        (_ops.GreaterMask, "greater"), (_ops.GreaterEqualMask, "greater_equal"),
        (_ops.LessEqualMask, "less_equal"),
    )},
    _ops.Pow: Lowering(_pow, inplace=lambda op: op.exponent != 3.0),
    _ops.ReLU: Lowering(_relu),
    _ops.LeakyReLU: Lowering(_leaky_relu, inplace=_never,
                             lowers=lambda op: 0.0 <= op.negative_slope <= 1.0),
    _ops.LeakyReLUMask: Lowering(_leaky_relu_mask),
    _ops.Sigmoid: Lowering(_sigmoid),
    _ops.Softplus: Lowering(_softplus),
    _ops.BroadcastTo: Lowering(_copy, inplace=_never),
    _ops.MatMul: _standalone(_kernel("matmul")),
    _ops.Sum: _standalone(_sum),
    _ops.Concatenate: _standalone(_concatenate),
    _ops.Pad: _standalone(_pad),
    _ops.PutIndex: _standalone(_put_index),
    **{cls: _standalone(_batch_norm_kernel) for cls in (
        _nn_ops.BatchStats, _nn_ops.BatchNorm, _nn_ops.BatchNormGradWeight,
        _nn_ops.BatchNormGradInput, _nn_ops.BatchNormRunningStat,
    )},
}


def lowering_of(op) -> Lowering | None:
    """The table entry that lowers ``op``, or ``None`` (eager fallback)."""
    entry = LOWERINGS.get(type(op))
    return entry if entry is not None and entry.lowers(op) else None
