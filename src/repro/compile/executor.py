"""Plan execution: generated kernel steps over a liveness-managed arena.

:func:`compile_program` lowers a traced :class:`~repro.compile.tracer.Program`
into a :class:`CompiledPlan` — a flat list of steps plus a set of
pre-allocated arena buffers — in **one walk** over the program that
assigns each node's storage and emits its code in the same step:

* a :class:`~repro.autodiff.ops.KernelOp` writes into an arena buffer
  through its own ``kernel`` — the call its eager forward makes — built
  on the backend's ``out=`` **in-place kernel registry**
  (:class:`repro.backend.ArrayBackend`);
* when an operand's storage dies at the node that consumes it (liveness
  pass), shapes match and the op's ``inplace`` allows it, the node writes
  straight over the operand's buffer, so a whole Linear-bias-softplus
  chain flows through one buffer with zero transient arrays;
* each maximal run of consecutive ``elementwise`` nodes — of any
  length — becomes one generated function; matmuls, reductions,
  concatenations, pads and scatters get a function each, and per-run
  views and fallbacks end a run because they rebind ``env`` slots
  generated code must observe;
* view ops (reshape / transpose / basic slicing) run as NumPy views and
  charge their liveness to the storage root.  A view of an array that
  never moves — an arena buffer, a constant, or such a view — is
  **bound once** at compile time: it is no step at all and ends no run.
  Only views of plan inputs and fallback outputs (fresh arrays every
  run) rebind per run;
* every other op (its class states an ``eager_only`` reason; an
  advanced-index ``GetIndex`` is one) falls back to the recorded op's
  eager ``forward`` — counted in
  ``runtime_allocs`` so the allocation-regression test can pin hot plans
  at zero.

Steady-state execution of a fully-lowered plan performs **no array
allocation**: buffers are acquired once at compile time and reused across
calls.  The returned output arrays are those same buffers — valid until
the next ``run()`` — so callers that retain results must copy (the API
layer's ``copy_outputs`` flag).  Plans are **not thread-safe**; each
serving worker compiles its own (engines are already per-thread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..autodiff import ops as _ops
from ..autodiff.ops import KernelOp
from ..obs import runtime as _obs
from .codegen import StepFunction
from .passes import (
    alias_roots,
    common_subexpr_elim,
    constant_fold,
    dead_code_elim,
    is_view_node,
    last_uses,
)
from .tracer import CONSTANT, INTERMEDIATE, Node, Program

__all__ = ["CompiledPlan", "PlanStats", "compile_program"]


@dataclass
class PlanStats:
    """Compile- and run-time accounting for one plan.

    ``n_traced_ops - n_folded - n_dead - n_merged == n_ops``, the ops the
    plan actually runs.  ``n_codegen_regions`` counts the maximal
    elementwise runs (length >= 1, one generated function each) and
    ``n_codegen_ops`` the ops inside them.
    """

    n_traced_ops: int = 0
    n_folded: int = 0
    n_dead: int = 0
    n_merged: int = 0
    n_ops: int = 0
    n_inplace: int = 0
    n_views: int = 0
    n_fallback: int = 0
    n_buffers: int = 0
    arena_bytes: int = 0
    n_codegen_regions: int = 0
    n_codegen_ops: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _Arena:
    """Shape/dtype-keyed free-list of pre-allocated buffers."""

    def __init__(self):
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._slots: dict[int, int] = {}
        self.allocated: list[np.ndarray] = []

    def acquire(self, shape, dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        pool = self._free.get(key)
        if pool:
            return pool.pop()
        buf = np.empty(shape, dtype=dtype)
        self._slots[id(buf)] = len(self.allocated)
        self.allocated.append(buf)
        return buf

    def slot(self, buf) -> int | None:
        """Index in :attr:`allocated` of an arena-owned buffer, else ``None``."""
        return self._slots.get(id(buf))

    def release(self, buf: np.ndarray) -> None:
        self._free.setdefault((buf.shape, buf.dtype.str), []).append(buf)


def _bind_view(node: Node, env) -> bool:
    """Bind ``env[out]`` once if the view's operand never moves; whether it did.

    The operand is fixed at compile time when its slot is already filled
    (an arena buffer, a constant, or a view bound here).  A "view" that
    copies — a scalar from an all-integer index — must stay per run.
    """
    source = env[node.in_ids[0]]
    if source is None:
        return False
    _view_step(node)(env)
    if np.may_share_memory(env[node.out_id], source):
        return True
    env[node.out_id] = None
    return False


def _view_step(node: Node) -> Callable:
    """Step closure for a view node: rebinds ``env[out]`` each run."""
    op, i, o = node.op, node.in_ids[0], node.out_id
    if isinstance(op, _ops.Reshape):
        shape = op.shape
        return lambda env: env.__setitem__(o, env[i].reshape(shape))
    if isinstance(op, _ops.Transpose):
        axes = op.axes
        return lambda env: env.__setitem__(o, np.transpose(env[i], axes))
    index = op.index  # basic-index GetIndex
    return lambda env: env.__setitem__(o, env[i][index])


class CompiledPlan:
    """An executable fused program over pre-allocated buffers.

    Created by :func:`compile_program`; run with positional input arrays
    matching the trace inputs.  Returned arrays are arena-owned: valid
    until the next :meth:`run` (callers that keep results must copy).
    """

    def __init__(self, program: Program, steps, env, input_ids, output_ids,
                 stats: PlanStats, alloc_cell, step_names, layout):
        self.program = program
        self._steps = steps
        self._env = env
        self._input_ids = input_ids
        self._output_ids = output_ids
        self.stats = stats
        self._alloc_cell = alloc_cell
        #: What each step is — the op class of a one-op function,
        #: ``fused[N]`` for an N-op region, ``view:X``, ``fallback:X`` —
        #: and the ``kernel=`` label of the per-kernel profiler.
        self.step_names = step_names
        #: One record per *lowered op*: op name, output value, storage
        #: kind, arena buffer slot, liveness and region membership.
        #: Feeds :meth:`dump`.
        self.layout = layout
        self._kernel_hists: dict = {}

    @property
    def runtime_allocs(self) -> int:
        """Arrays allocated by fallback steps across all runs (0 = fully fused)."""
        return self._alloc_cell[0]

    def run(self, *inputs: np.ndarray) -> list[np.ndarray]:
        """Execute the plan; returns one array per program output."""
        env = self._env
        input_ids = self._input_ids
        if len(inputs) != len(input_ids):
            raise ValueError(f"plan expects {len(input_ids)} inputs, got {len(inputs)}")
        for vid, array in zip(input_ids, inputs):
            env[vid] = array
        if _obs.kernels:
            self._run_steps_profiled(env)
        else:
            for step in self._steps:
                step(env)
        return [env[vid] for vid in self._output_ids]

    def _run_steps_profiled(self, env) -> None:
        """Profiled run loop: per-kernel wall time into the metrics registry.

        Observes ``compile.kernel_seconds{kernel=...}`` per step and, when
        tracing is also on, emits a ``kernel.<name>`` trace event nested
        under the active span.  Only reached when
        :data:`repro.obs.runtime.kernels` is set, so the default
        :meth:`run` loop stays untouched.
        """
        import time

        from ..obs.metrics import REGISTRY
        from ..obs.trace import add_event

        hists = self._kernel_hists
        names = self.step_names
        emit = _obs.tracing
        for idx, step in enumerate(self._steps):
            name = names[idx]
            t0 = time.perf_counter()
            step(env)
            t1 = time.perf_counter()
            hist = hists.get(name)
            if hist is None:
                hist = hists[name] = REGISTRY.histogram(
                    "compile.kernel_seconds", kernel=name)
            hist.observe(t1 - t0)
            if emit:
                add_event(f"kernel.{name}", t0, t1, index=idx)

    def describe(self) -> str:
        """The optimized program listing plus fusion/arena statistics."""
        stats = ", ".join(f"{k}={v}" for k, v in self.stats.as_dict().items())
        return f"{self.program.describe()}\n  [{stats}]"

    def dump(self) -> str:
        """Pretty-print the lowered plan: ops, liveness, buffers, regions.

        One line per lowered op (fused regions keep per-op lines, tagged
        with their region id), showing the output value, its storage
        (arena buffer slot, ``view`` or ``fallback``), and the step at
        which the value's storage dies (``output`` values never die).
        """
        s = self.stats
        n_ops = len(self.layout)
        lines = [
            f"plan: {len(self._input_ids)} inputs, {len(self._output_ids)} outputs, "
            f"{n_ops} ops in {len(self._steps)} steps "
            f"({s.n_codegen_ops} ops fused into {s.n_codegen_regions} regions), "
            f"arena: {s.n_buffers} buffers / {s.arena_bytes} bytes"
        ]
        for e in self.layout:
            if e["kind"] == "kernel":
                storage = f"buf[{e['buffer']}]" if e["buffer"] is not None else "buf[?]"
            else:
                storage = e["kind"]
            die = e["last_use"]
            life = "output" if die is None or die >= n_ops else f"dies@{die}"
            region = f"  region={e['region']}" if e["region"] is not None else ""
            lines.append(
                f"  [{e['index']:4d}] {e['op']:<22} v{e['out']:<5} "
                f"{e['dtype']}{e['shape']}  {storage:<10} {life}{region}"
            )
        return "\n".join(lines)


def compile_program(program: Program, pinned=()) -> CompiledPlan:
    """Optimize ``program`` and lower it onto an arena-backed executor.

    ``pinned`` lists arrays (module parameters/buffers) whose live values
    must keep flowing into replays — constant folding will not snapshot
    anything sharing memory with them, and value numbering will not merge
    it with a byte-equal constant.
    """
    stats = PlanStats(n_traced_ops=len(program.nodes))
    stats.n_folded = constant_fold(program, pinned=pinned)
    stats.n_dead = dead_code_elim(program)
    # Before liveness: the arena's in-place decisions must see the merged uses.
    stats.n_merged = common_subexpr_elim(program, pinned=pinned)
    stats.n_ops = len(program.nodes)

    values = program.values
    roots = alias_roots(program)
    last = last_uses(program, roots)
    arena = _Arena()
    alloc_cell = [0]
    buffers: dict[int, np.ndarray] = {}  # root vid -> owned arena buffer
    steps: list[Callable] = []
    step_names: list[str] = []
    layout: list[dict] = []
    env: list = [None] * len(values)
    for value in values:
        if value.kind == CONSTANT:
            env[value.vid] = value.data

    fn = region = None  # the open generated function; its id if a region

    def close():
        nonlocal fn, region
        if fn is not None:
            steps.append(fn.build())
            step_names.append(fn.label)
            fn = region = None

    for j, node in enumerate(program.nodes):
        out_val, op = values[node.out_id], node.op
        buf = None
        if is_view_node(node):
            kind = "view"
            stats.n_views += 1
            if not _bind_view(node, env):
                close()
                steps.append(_view_step(node))
                step_names.append(f"view:{type(op).__name__}")
        elif not isinstance(op, KernelOp):
            # Not lowered: run the recorded op eagerly (fresh output array
            # each run) and count the allocation.
            close()
            kind = "fallback"
            in_ids, out_id = node.in_ids, node.out_id

            def step(env, in_ids=in_ids, out_id=out_id, op=op):
                env[out_id] = op.forward(*(env[i] for i in in_ids))
                alloc_cell[0] += 1

            steps.append(step)
            step_names.append(f"fallback:{type(op).__name__}")
            stats.n_fallback += 1
        else:
            kind = "kernel"
            if op.inplace:
                for vid in node.in_ids:
                    root = roots.get(vid, vid)
                    source = values[vid]
                    if (source.kind == INTERMEDIATE and vid == root
                            and root in buffers and last.get(root) == j
                            and source.shape == out_val.shape
                            and source.dtype == out_val.dtype):
                        buf = buffers.pop(root)
                        stats.n_inplace += 1
                        break
            if buf is None:
                buf = arena.acquire(out_val.shape, out_val.dtype)
            buffers[node.out_id] = env[node.out_id] = buf
            if region is None or not op.elementwise:
                close()
                fn = StepFunction(values, env, arena)
                if op.elementwise:
                    region = stats.n_codegen_regions
                    stats.n_codegen_regions += 1
            # Scratch the node takes is back in the arena before the next
            # node's output is assigned (see repro.compile.codegen).
            fn.add(node)
            stats.n_codegen_ops += op.elementwise
        layout.append({
            "index": j,
            "op": node.op_name,
            "out": node.out_id,
            "shape": tuple(out_val.shape),
            "dtype": np.dtype(out_val.dtype).str,
            "kind": kind,
            "buffer": arena.slot(buf),
            "last_use": last.get(roots.get(node.out_id, node.out_id)),
            "region": region,
        })
        for vid in set(node.in_ids):
            root = roots.get(vid, vid)
            if last.get(root) == j and root in buffers:
                arena.release(buffers.pop(root))
    close()

    stats.n_buffers = len(arena.allocated)
    stats.arena_bytes = int(sum(b.nbytes for b in arena.allocated))
    return CompiledPlan(program, steps, env, list(program.input_ids),
                        list(program.output_ids), stats, alloc_cell,
                        step_names, layout)
