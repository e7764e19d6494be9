"""Graph capture: record a function's primitive ops as a linear program.

Tracing piggybacks on the one choke point every tensor operation already
goes through — :meth:`repro.autodiff.tensor.Op.apply` — via the thread-local
tracer hook installed by :func:`repro.autodiff.tensor.tracing`.  Running a
function once under the hook therefore captures *everything* expressed in
tensor ops, including backward passes built by
:func:`repro.autodiff.grad` with ``create_graph=True`` (their backward rules
are themselves tensor ops), which is how derivative graphs become
compilable programs.

The capture is a straight-line :class:`Program`: Python control flow is
baked in (loops unrolled, branches resolved), and any value produced
*outside* the op layer — raw NumPy index arithmetic, freshly constructed
tensors — is captured as a **constant** holding a reference to its array.
A trace is therefore only valid while the traced computation is
shape-stable and data-independent; :mod:`repro.compile.api` keys plans by
input shapes/dtypes and the precision policy so a mismatch re-traces
instead of replaying a stale program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..autodiff.tensor import Op, Tensor, tracing

__all__ = ["Value", "Node", "Program", "Tracer", "trace"]

#: Storage classes a traced value can belong to.
INPUT, CONSTANT, INTERMEDIATE = "input", "constant", "intermediate"


@dataclass
class Value:
    """One SSA value of a traced program.

    ``data`` is only populated for constants, and holds a *reference* to
    the array seen at trace time (not a copy) — parameters captured as
    constants therefore observe in-place weight updates without a
    re-trace; rebinding a parameter's array is caught by the module
    fingerprint in :mod:`repro.compile.api`.  ``foldable`` marks constants
    that constant folding may snapshot: captured :class:`~repro.nn.module.
    Parameter` tensors are flagged unfoldable at capture time (their live
    values must keep flowing through), and the caller can pin further
    arrays (module buffers) via ``compile_program``'s ``pinned``.
    """

    vid: int
    kind: str
    shape: tuple[int, ...]
    dtype: np.dtype
    data: Optional[np.ndarray] = None
    foldable: bool = True

    @property
    def nbytes(self) -> int:
        size = 1
        for s in self.shape:
            size *= s
        return size * self.dtype.itemsize


@dataclass
class Node:
    """One primitive application: ``values[out_id] = op(*values[in_ids])``.

    The recorded :class:`~repro.autodiff.tensor.Op` instance carries the
    op's static attributes (axes, exponent, index expressions, …); the
    executor reads those but never calls the op's ``backward``.
    ``kwargs`` are the keyword arguments :meth:`Op.apply` constructed the
    op with — with the op class and the operands, everything its output
    depends on, which is what value numbering
    (:func:`repro.compile.passes.common_subexpr_elim`) keys on.
    """

    op: Op
    in_ids: tuple[int, ...]
    out_id: int
    kwargs: dict

    @property
    def op_name(self) -> str:
        return type(self.op).__name__


@dataclass
class Program:
    """A linear program of primitive ops over a value table."""

    values: list[Value] = field(default_factory=list)
    nodes: list[Node] = field(default_factory=list)
    input_ids: list[int] = field(default_factory=list)
    output_ids: list[int] = field(default_factory=list)

    def describe(self) -> str:
        """Human-readable listing (one line per op), for tests and debugging."""
        lines = [
            f"program: {len(self.input_ids)} inputs, {len(self.nodes)} ops, "
            f"{len(self.output_ids)} outputs"
        ]
        for node in self.nodes:
            args = ", ".join(f"v{i}" for i in node.in_ids)
            out = self.values[node.out_id]
            lines.append(f"  v{node.out_id} = {node.op_name}({args})  # {out.shape} {out.dtype}")
        return "\n".join(lines)

    def dump(self) -> str:
        """Annotated listing: per-op index, shapes and value liveness.

        Complements :meth:`describe` with the information the executor's
        arena allocator works from — where each value is read for the
        last time (``dies@j``), or whether it is a program output /
        never consumed.  For buffer assignments and fused-region
        boundaries of the *lowered* plan, see
        :meth:`repro.compile.executor.CompiledPlan.dump`.
        """
        last: dict[int, int] = {}
        for j, node in enumerate(self.nodes):
            for vid in node.in_ids:
                last[vid] = j
        out_set = set(self.output_ids)
        lines = [
            f"program: {len(self.input_ids)} inputs, {len(self.nodes)} ops, "
            f"{len(self.output_ids)} outputs"
        ]
        for j, node in enumerate(self.nodes):
            args = ", ".join(f"v{i}" for i in node.in_ids)
            out = self.values[node.out_id]
            if node.out_id in out_set:
                life = "output"
            elif node.out_id in last:
                life = f"dies@{last[node.out_id]}"
            else:
                life = "unused"
            lines.append(
                f"  [{j:4d}] v{node.out_id} = {node.op_name}({args})"
                f"  # {out.shape} {np.dtype(out.dtype).str} {life}"
            )
        return "\n".join(lines)


class Tracer:
    """Records every :meth:`Op.apply` into a :class:`Program` under way.

    Keeps a strong reference to every tensor it has seen so that ``id()``
    keys can never be recycled mid-trace (a garbage-collected intermediate
    whose id is reused by a new tensor would corrupt the value table).
    """

    def __init__(self):
        self.program = Program()
        self._vid_by_tensor: dict[int, int] = {}
        self._keepalive: list[Tensor] = []

    # ------------------------------------------------------------- values
    def _new_value(self, kind: str, tensor: Tensor) -> int:
        vid = len(self.program.values)
        data = tensor.data if kind == CONSTANT else None
        # A captured Parameter is a live weight: folding must never bake a
        # snapshot of it, so in-place optimizer updates keep flowing into
        # replays.  (Imported lazily; nn depends on autodiff, not on us.)
        from ..nn.module import Parameter

        foldable = not (kind == CONSTANT and isinstance(tensor, Parameter))
        self.program.values.append(
            Value(vid=vid, kind=kind, shape=tuple(tensor.shape),
                  dtype=np.dtype(tensor.dtype), data=data, foldable=foldable)
        )
        self._vid_by_tensor[id(tensor)] = vid
        self._keepalive.append(tensor)
        return vid

    def add_input(self, tensor: Tensor) -> int:
        """Register ``tensor`` as a program input (call before tracing)."""
        existing = self._vid_by_tensor.get(id(tensor))
        if existing is not None:
            return existing
        vid = self._new_value(INPUT, tensor)
        self.program.input_ids.append(vid)
        return vid

    def value_of(self, tensor: Tensor) -> int:
        """The value id of ``tensor``, capturing it as a constant if unseen."""
        vid = self._vid_by_tensor.get(id(tensor))
        if vid is None:
            vid = self._new_value(CONSTANT, tensor)
        return vid

    # -------------------------------------------------------------- hook
    def record(self, op: Op, inputs: Sequence[Tensor], out: Tensor, kwargs: dict) -> None:
        """Op-application callback invoked by :meth:`Op.apply`."""
        in_ids = tuple(self.value_of(t) for t in inputs)
        out_id = self._new_value(INTERMEDIATE, out)
        self.program.nodes.append(Node(op=op, in_ids=in_ids, out_id=out_id, kwargs=kwargs))


def trace(fn, *inputs: Tensor) -> tuple[Program, object, object]:
    """Run ``fn(*inputs)`` under the tracer; returns ``(program, structure,
    result)``.

    ``inputs`` must be tensors; they become the program's inputs in order.
    ``fn`` may return a single tensor or a flat sequence of tensors (with
    ``None`` holes, as :func:`repro.autodiff.grad` produces for unused
    inputs).  ``structure`` describes how to re-assemble the executor's
    output list into the function's return shape: ``"single"`` or a tuple
    with ``None`` markers.  ``result`` is the eager return value of the
    traced call itself — callers serving a cache miss can hand it out
    directly instead of re-executing the fresh plan on the same inputs.
    """
    tracer = Tracer()
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError(f"trace inputs must be Tensors; got {type(t).__name__}")
        tracer.add_input(t)
    with tracing(tracer):
        result = fn(*inputs)

    program = tracer.program
    if isinstance(result, Tensor):
        program.output_ids.append(tracer.value_of(result))
        return program, "single", result
    if isinstance(result, (tuple, list)):
        structure: list[Optional[int]] = []
        slot = 0
        for item in result:
            if item is None:
                structure.append(None)
                continue
            if not isinstance(item, Tensor):
                raise TypeError(
                    f"traced function returned a non-tensor element: {type(item).__name__}"
                )
            program.output_ids.append(tracer.value_of(item))
            structure.append(slot)
            slot += 1
        return program, tuple(structure), tuple(result)
    raise TypeError(
        f"traced function must return a Tensor or a sequence of Tensors; "
        f"got {type(result).__name__}"
    )
