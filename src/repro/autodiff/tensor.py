"""Core reverse-mode automatic differentiation engine.

This module provides the :class:`Tensor` class, the dynamic computation graph
machinery, the functional :func:`grad` API (analogous to
``torch.autograd.grad``) and the :func:`no_grad` context manager.

The engine supports *higher-order* differentiation: the backward rule of every
mathematical primitive is itself expressed in terms of differentiable tensor
operations, so gradients of gradients (as required by the PDE equation loss of
MeshfreeFlowNet, which differentiates the decoder output with respect to its
space-time input coordinates and then differentiates the resulting residual
with respect to the network parameters) are obtained by simply calling
:func:`grad` with ``create_graph=True``.

Only the neural-network primitives that never participate in the second-order
path (3D convolution, pooling, nearest-neighbour upsampling, training-mode
batch norm — see ``repro.autodiff.nn_ops``) implement value-level backward
rules and are therefore first-order only.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable, Optional, Sequence

import numpy as np

from ..backend import SUPPORTED_DTYPES, canonical_dtype, default_dtype, get_backend, operand_dtype

_FLOAT32, _FLOAT64 = SUPPORTED_DTYPES

__all__ = [
    "Tensor",
    "Op",
    "grad",
    "no_grad",
    "enable_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "ensure_tensor",
    "record_state_update",
    "collect_state_updates",
]


class _AutogradState(threading.local):
    """Per-thread autograd mode flags.

    The grad/inference modes are *thread-local*: serving worker threads run
    their hot paths under :func:`inference_mode` concurrently with, say, a
    training loop on the main thread, and a save/restore race on shared
    globals could otherwise leak a disabled-grad state across threads.
    Every thread starts with graph recording enabled.
    """

    def __init__(self):
        self.grad_enabled = True
        self.inference_mode = False
        #: Active graph tracer (``repro.compile``) or ``None``.  When set,
        #: every :meth:`Op.apply` reports ``(op, input tensors, output
        #: tensor, the op's constructor kwargs)`` so the compile subsystem
        #: can capture a linear program of primitives.  Thread-local like
        #: the mode flags, so a serving worker compiling a plan never
        #: records ops from other threads.
        self.tracer = None
        #: Active state-update collector (``collect_state_updates``) or
        #: ``None``.  Modules with recurrent buffers (BatchNorm running
        #: stats) route their in-place updates through
        #: :func:`record_state_update` so a graph capture can observe the
        #: buffer writes as extra traced outputs instead of untraceable
        #: side effects.
        self.state_effects = None


_state = _AutogradState()

#: Optional process-wide per-op profiling hook (``repro.obs``).  Unlike the
#: thread-local tracer, the hook is deliberately global: observability is
#: enabled for the whole process so one serving request traces across the
#: gateway, worker and engine threads.  ``None`` (the default) costs each
#: :meth:`Op.apply` a single global read and falsy check.
_OP_HOOK = None


def set_op_hook(hook) -> None:
    """Install (or with ``None`` remove) the process-wide per-op profiling hook.

    The hook protocol is ``token = hook.start()`` before an op's forward and
    ``hook.finish(token, op_name, out_data)`` after; see
    :class:`repro.obs.profile.OpProfiler`.  Managed by
    :func:`repro.obs.runtime.enable` / ``disable`` — not meant to be called
    directly by user code.
    """
    global _OP_HOOK
    _OP_HOOK = hook


def is_tracing() -> bool:
    """Whether a :mod:`repro.compile` tracer is recording on this thread."""
    return _state.tracer is not None


@contextlib.contextmanager
def tracing(tracer):
    """Install ``tracer`` as this thread's op recorder for the context.

    Used by :mod:`repro.compile` during graph capture; nesting is rejected
    because a trace-within-a-trace would double-record every primitive.
    """
    if _state.tracer is not None:
        raise RuntimeError("op tracing cannot be nested")
    _state.tracer = tracer
    try:
        yield tracer
    finally:
        _state.tracer = None


def record_state_update(target: np.ndarray, value: "Tensor") -> None:
    """Apply a module buffer update and report it to any active collector.

    ``target`` is a live module buffer (e.g. BatchNorm's ``running_mean``)
    and ``value`` a tensor holding its new contents, computed with
    differentiable ops.  The write ``target[...] = value.data`` happens
    immediately — eager semantics are unchanged — and, inside a
    :func:`collect_state_updates` context, the ``(target, value)`` pair is
    recorded so a graph capture can re-emit the write after every replay
    (the value tensor is a traced output; the target array is re-written
    from the replayed value).
    """
    target[...] = value.data
    collector = _state.state_effects
    if collector is not None:
        collector.append((target, value))


@contextlib.contextmanager
def collect_state_updates():
    """Collect ``(buffer, value)`` state updates issued inside the context.

    Yields the (initially empty) list that :func:`record_state_update`
    appends to.  Used by :mod:`repro.compile` when tracing a full training
    step so that recurrent buffer writes become explicit program outputs.
    Nesting is rejected, mirroring :func:`tracing`.
    """
    if _state.state_effects is not None:
        raise RuntimeError("state-update collection cannot be nested")
    collector: list = []
    _state.state_effects = collector
    try:
        yield collector
    finally:
        _state.state_effects = None


def is_grad_enabled() -> bool:
    """Return whether operations currently record a computation graph."""
    return _state.grad_enabled


def is_inference_mode() -> bool:
    """Return whether this thread is inside :func:`inference_mode`."""
    return _state.inference_mode


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (this thread only).

    Inside the context every new :class:`Tensor` produced by an operation is a
    leaf without history; this mirrors ``torch.no_grad`` and is used both by
    user code (e.g. evaluation loops) and internally when backward passes do
    not need to be differentiable themselves.
    """
    previous = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


@contextlib.contextmanager
def enable_grad():
    """Context manager that (re-)enables graph construction (this thread only)."""
    if _state.inference_mode:
        raise RuntimeError("enable_grad() cannot be nested inside inference_mode()")
    previous = _state.grad_enabled
    _state.grad_enabled = True
    try:
        yield
    finally:
        _state.grad_enabled = previous


@contextlib.contextmanager
def inference_mode():
    """Context manager for graph-free inference that cannot be re-enabled.

    :func:`no_grad` plus one promise: inside the context
    :func:`enable_grad` raises ``RuntimeError`` (mirroring
    ``torch.inference_mode``), so code holding an output knows no graph
    can hang off it.  :meth:`Op.apply` has a single dispatch path and
    treats the two contexts alike; :func:`is_inference_mode` is what lets
    callers such as :mod:`repro.compile` tell a serving call from a
    training one.  The mode is per-thread, so concurrent serving workers
    never affect other threads.
    """
    prev_grad, prev_inf = _state.grad_enabled, _state.inference_mode
    _state.grad_enabled = False
    _state.inference_mode = True
    try:
        yield
    finally:
        _state.grad_enabled, _state.inference_mode = prev_grad, prev_inf


class Op:
    """Base class for differentiable operations (graph nodes).

    Subclasses implement :meth:`forward` (returning a raw ``numpy`` array) and
    :meth:`backward` (returning one gradient :class:`Tensor` — or ``None`` —
    per input).  ``backward`` receives the upstream gradient as a
    :class:`Tensor` and must be written using tensor operations whenever the
    op may participate in higher-order differentiation.  A rule with more
    than one input computes only the gradients :meth:`needs_input_grad`
    asks for and returns ``None`` in the other slots.
    """

    #: Inputs captured by :meth:`apply`.
    inputs: tuple["Tensor", ...]
    #: Why a compiled plan runs this op's eager ``forward`` (an op that is
    #: neither a ``KernelOp`` nor a view states one).
    eager_only: Optional[str] = None

    def forward(self, *xs: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: "Tensor") -> Sequence[Optional["Tensor"]]:  # pragma: no cover - abstract
        raise NotImplementedError

    def needs_input_grad(self, i: int) -> bool:
        """Whether a sweep will keep this op's gradient for input ``i``.

        :meth:`apply` marks every tensor downstream of a leaf that requires
        grad, in first-order and ``create_graph=True`` sweeps alike, so an
        input without the flag is a constant (a Python scalar, the
        low-resolution batch, the query coordinates at gamma=0) and a
        gradient computed for it would be dropped by the sweep.
        """
        return self.inputs[i].requires_grad

    @classmethod
    def apply(cls, *inputs, **kwargs) -> "Tensor":
        """Run the op on ``inputs`` and (optionally) record it in the graph.

        One path for every mode: the grad flag decides only whether the
        output remembers the op.  Non-tensor operands are coerced under the
        backend promotion rule (see :func:`_coerce_operands`).
        """
        hook = _OP_HOOK
        token = hook.start() if hook is not None else None
        state = _state.__dict__  # this thread's flags, fetched once
        for x in inputs:
            if not isinstance(x, Tensor):
                inputs = _coerce_operands(inputs)
                break
        op = cls(**kwargs)
        if len(inputs) == 2:  # spelled out: a comprehension is 0.3 us, a fifth of a small op
            a, b = inputs
            data = op.forward(a.data, b.data)
        elif len(inputs) == 1:
            data = op.forward(inputs[0].data)
        else:
            data = op.forward(*[t.data for t in inputs])
        out = _wrap(data)
        if state["grad_enabled"]:
            for t in inputs:
                if t.requires_grad:
                    op.inputs = inputs
                    out._op = op
                    out.requires_grad = True
                    break
        tracer = state["tracer"]
        if tracer is not None:
            tracer.record(op, inputs, out, kwargs)
        if hook is not None:
            hook.finish(token, cls.__name__, out.data)
        return out


class Tensor:
    """A multidimensional array that records the operations applied to it.

    Parameters
    ----------
    data:
        Array-like initial value.  Data that already carries a floating
        dtype (an ndarray or another tensor) keeps it; dtype-less data
        (Python scalars/lists, integer arrays) materialises as the active
        :func:`repro.backend.precision` policy dtype — ``float64`` by
        default, for numerical robustness of gradient checks and PDE
        residuals.
    requires_grad:
        Whether gradients should be accumulated for this tensor when calling
        :meth:`backward` / :func:`grad`.
    dtype:
        Explicit dtype override; beats both the data's own dtype and the
        policy.
    """

    __slots__ = ("data", "requires_grad", "grad", "_op", "name")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            src = getattr(data, "dtype", None)
            # NB: explicit None guard — ``np.dtype('float64') == None`` is
            # truthy because NumPy coerces None to float64 in comparisons.
            dtype = src if (src is not None and src in SUPPORTED_DTYPES) else default_dtype()
        self.data = get_backend().asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._op: Optional[Op] = None
        self.name = name

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})\n{self.data!r}"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return _wrap(self.data)

    def astype(self, dtype) -> "Tensor":
        """Return a leaf copy of this tensor cast to ``dtype``.

        The cast is graph-cutting (like :meth:`detach`): precision changes
        are a deployment decision, not a differentiable op.  ``requires_grad``
        is preserved so cast parameters remain trainable leaves.
        """
        return Tensor(self.data.astype(canonical_dtype(dtype), copy=True),
                      requires_grad=self.requires_grad, name=self.name)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def is_leaf(self) -> bool:
        return self._op is None

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # -------------------------------------------------------------- backward
    def backward(self, grad_output: Optional["Tensor"] = None) -> None:
        """Accumulate gradients of ``self`` into every reachable leaf ``.grad``.

        ``grad_output`` defaults to ones (so scalar losses can simply call
        ``loss.backward()``).
        """
        if grad_output is None:
            grad_output = Tensor(np.ones_like(self.data))
        grads = _backward_pass([self], [ensure_tensor(grad_output)], create_graph=False)
        for node, g in grads.items():
            if node.requires_grad and node.is_leaf():
                arr = g.data
                if node.grad is None:
                    node.grad = np.array(arr, dtype=node.data.dtype, copy=True)
                else:
                    node.grad = node.grad + arr


def ensure_tensor(x, dtype=None) -> Tensor:
    """Coerce scalars / arrays / tensors into a :class:`Tensor`.

    ``dtype`` names the dtype that *weak* (dtype-less) data — Python
    scalars, lists, integer arrays — should materialise as; data already
    carrying a floating dtype keeps it.  With ``dtype=None`` weak data
    falls back to the active precision policy.  Tensors pass through
    unchanged either way (this function never casts).
    """
    if isinstance(x, Tensor):
        return x
    xd = getattr(x, "dtype", None)
    if dtype is not None and xd is not None and xd in SUPPORTED_DTYPES:
        dtype = None  # strong operand: keep its own dtype
    return Tensor(x, requires_grad=False, dtype=dtype)


def _wrap(data) -> Tensor:
    """A history-free tensor around an op result, skipping the constructor.

    A float32 / float64 ``ndarray`` is exactly what ``Tensor(data)`` would
    store, so the slots are filled directly.  Anything else — the NumPy
    scalar of a full reduction, a bool or integer array — goes through
    the constructor, which gives it the dtype and 0-d shape it always had.
    """
    if type(data) is not np.ndarray or (data.dtype is not _FLOAT64 and data.dtype is not _FLOAT32):
        return Tensor(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._op = None
    out.name = None
    return out


def _coerce_operands(inputs) -> tuple[Tensor, ...]:
    """Coerce an op's operand list to tensors under the promotion rule.

    Strong operands (tensors, floating arrays/scalars) keep their dtype;
    weak operands adopt :func:`repro.backend.operand_dtype` of the whole
    operand list, so ``float32_tensor * 2.0`` stays float32 instead of
    minting a float64 constant (which NumPy 2 promotion would then spread
    over the result).  Python ``float`` / ``int`` operands beside tensors
    of one dtype — ``mul(t, 2.0)``, every backward rule's constants — take
    that dtype without the promotion walk.
    """
    dtype = None
    for x in inputs:
        if isinstance(x, Tensor):
            if dtype is None:
                dtype = x.data.dtype
            elif x.data.dtype is not dtype:
                break
        elif type(x) is not float and type(x) is not int:
            break
    else:
        if dtype is _FLOAT64 or dtype is _FLOAT32:
            return tuple([x if isinstance(x, Tensor) else _wrap(np.array(x, dtype=dtype))
                          for x in inputs])
    weak = operand_dtype(inputs)
    return tuple(ensure_tensor(x, dtype=weak) for x in inputs)


def _topological_order(roots: Iterable[Tensor]) -> list[Tensor]:
    """Return tensors in topological order (inputs before outputs)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(r, False) for r in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._op is not None:
            for parent in node._op.inputs:
                if id(parent) not in visited:
                    stack.append((parent, False))
    return order


def _backward_pass(
    outputs: Sequence[Tensor],
    grad_outputs: Sequence[Tensor],
    create_graph: bool,
) -> dict[Tensor, Tensor]:
    """Core reverse-mode sweep shared by :func:`grad` and ``Tensor.backward``.

    Returns a mapping from every visited tensor that requires grad to its
    accumulated gradient tensor.
    """
    grads: dict[int, Tensor] = {}
    nodes: dict[int, Tensor] = {}

    for out, gout in zip(outputs, grad_outputs):
        if gout.shape != out.shape:
            raise ValueError(
                f"grad_output shape {gout.shape} does not match output shape {out.shape}"
            )
        _accumulate(grads, nodes, out, gout, create_graph)

    order = _topological_order(outputs)
    ctx = enable_grad() if create_graph else no_grad()
    with ctx:
        for node in reversed(order):
            if node._op is None:
                continue
            gout = grads.get(id(node))
            if gout is None:
                continue
            input_grads = node._op.backward(gout)
            for parent, g in zip(node._op.inputs, input_grads):
                if g is None:
                    continue
                if not (parent.requires_grad or parent._op is not None):
                    continue
                _accumulate(grads, nodes, parent, g, create_graph)
    return {nodes[k]: v for k, v in grads.items()}


def _accumulate(grads, nodes, node: Tensor, g: Tensor, create_graph: bool) -> None:
    # Rule outputs of a ``no_grad`` sweep carry no history already; only a
    # caller's ``grad_output`` (or a rule handing back a graph tensor) does.
    if not create_graph and (g._op is not None or g.requires_grad):
        g = g.detach()
    if g.shape != node.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match tensor shape {node.shape}"
        )
    key = id(node)
    nodes[key] = node
    if key in grads:
        grads[key] = grads[key] + g  # ``ops.add``, through the operator ``ops`` attaches
    else:
        grads[key] = g


def grad(
    outputs,
    inputs,
    grad_outputs=None,
    create_graph: bool = False,
    allow_unused: bool = True,
):
    """Compute gradients of ``outputs`` with respect to ``inputs``.

    Mirrors ``torch.autograd.grad``.  When ``create_graph=True`` the returned
    gradients carry their own computation graph and can be differentiated
    again — this is how the MeshfreeFlowNet equation loss obtains
    ``d(residual)/d(parameters)`` where the residual already contains
    ``dy/dx`` and ``d2y/dx2`` terms.

    Parameters
    ----------
    outputs:
        Tensor or sequence of tensors to differentiate.
    inputs:
        Tensor or sequence of tensors with respect to which the gradient is
        taken.
    grad_outputs:
        Upstream gradients (default: ones for each output).
    create_graph:
        Build a differentiable graph for the gradient computation itself.
    allow_unused:
        If ``False``, raise when one of ``inputs`` does not participate in the
        computation of ``outputs``; otherwise return ``None`` for it.
    """
    single_output = isinstance(outputs, Tensor)
    single_input = isinstance(inputs, Tensor)
    outputs_seq = [outputs] if single_output else list(outputs)
    inputs_seq = [inputs] if single_input else list(inputs)

    if grad_outputs is None:
        grad_outputs_seq = [Tensor(np.ones_like(o.data)) for o in outputs_seq]
    else:
        if isinstance(grad_outputs, Tensor):
            grad_outputs_seq = [grad_outputs]
        else:
            grad_outputs_seq = [ensure_tensor(g) for g in grad_outputs]
    if len(grad_outputs_seq) != len(outputs_seq):
        raise ValueError("grad_outputs must match outputs in length")

    grads_map = _backward_pass(outputs_seq, grad_outputs_seq, create_graph)
    by_id = {id(k): v for k, v in grads_map.items()}

    results: list[Optional[Tensor]] = []
    for inp in inputs_seq:
        g = by_id.get(id(inp))
        if g is None and not allow_unused:
            raise RuntimeError("One of the differentiated tensors was not used in the graph")
        results.append(g)
    if single_input:
        return results[0]
    return tuple(results)
