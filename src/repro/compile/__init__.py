"""Graph-capture fused executor for the autodiff hot paths.

The eager tape pays one ``Op.apply`` — graph bookkeeping, operand
coercion and a freshly allocated output array — per primitive.  On this
single-core target that Python-side overhead, not FLOPs, dominates the
ImNet decode and derivative stacks.  This subsystem removes it:

1. **Trace** (:mod:`~repro.compile.tracer`) — run a module or function
   once under a thread-local hook on ``Op.apply``, capturing a linear
   program of primitives.  Backward passes built with
   ``grad(create_graph=True)`` are ops too, so derivative graphs trace
   the same way.
2. **Optimize** (:mod:`~repro.compile.passes`) — constant folding,
   dead-code elimination, value numbering (two nodes of one op class,
   with the same static arguments over the same operands, run once;
   constants stay distinct values unless they are 0-d and snapshottable
   under folding's own rule — not a Parameter, sharing no memory with a
   pinned array — and then merge by dtype and bytes) and alias/liveness
   analysis of the merged program.
3. **Lower** (:mod:`~repro.compile.codegen`,
   :mod:`~repro.compile.executor`) — one walk over the program assigns
   every node an arena buffer (writing in place over a dying operand
   where the op allows) and emits its lines from the op's single entry in
   :data:`~repro.compile.codegen.LOWERINGS`; each maximal run of
   elementwise nodes becomes one generated Python function (compiled
   once, kept with the plan) whose body is a flat sequence of bound
   ``out=`` kernel calls.  Steady-state execution allocates nothing.
4. **Cache** (:mod:`~repro.compile.api`) — plans keyed by (module
   fingerprint, input shapes/dtypes, precision policy), with automatic
   eager fallback whenever replay could be wrong (trace failure,
   impure module, unsupported request).  Fallback is never silent: the
   wrapper warns once per reason (:class:`CompileFallbackWarning`) and
   counts occurrences in the observability registry.

**Adding an op** is one ``LOWERINGS`` entry — its emitter, whether it may
write over a dying same-shape operand, whether it joins elementwise
regions — plus a case in ``tests/test_compile.py::LOWERING_CASES``; the
test parametrised over the table's keys fails until the case exists.  An
op without an entry still runs, as an eager-fallback step.

**Three entry points**, each with a caller — there is no other way onto
a plan:

* :func:`compile` ``(module)`` — no-grad decode plans for a
  single-argument module.  Called by ``InferenceEngine(compile=True)``
  on ``model.imnet`` (and by ``bench``'s ``compile.imnet`` probe).  A
  call that requires gradients runs the eager module instead, warned
  once and counted as ``unsupported``.
* :func:`compile_fn` ``(fn)`` — a free function of tensors, which may
  itself call ``grad(create_graph=True)``: nested derivative stacks
  trace like any other ops.  Called by the microbenchmark gate in
  ``benchmarks/`` and the generated-program tests.
* :class:`~repro.compile.training.CompiledTrainingStep` — an entire
  physics-constrained training step (forward, PDE residuals, loss,
  parameter VJP) as one replayable program.  Called by
  ``Trainer`` / ``DistributedTrainer`` under ``TrainerConfig(compile=True)``
  — the only compiled object a trainer owns — and by ``bench``'s
  ``train-eqloss`` workload.

Plans that read a module's state (the first and the third) share one
guard, :meth:`CompiledFunction.check_module_state`.

>>> from repro import compile as rcompile
>>> fast_decoder = rcompile.compile(model.imnet)
>>> y = fast_decoder(x)                      # traces once, replays after
"""

from .api import (
    CompiledFunction,
    CompiledModule,
    CompileFallbackWarning,
    compile,
    compile_fn,
)
from .executor import CompiledPlan, PlanStats, compile_program
from .tracer import Node, Program, Tracer, Value, trace
from .training import CompiledTrainingStep

__all__ = [
    "compile",
    "compile_fn",
    "CompiledFunction",
    "CompiledModule",
    "CompiledTrainingStep",
    "CompileFallbackWarning",
    "CompiledPlan",
    "PlanStats",
    "compile_program",
    "trace",
    "Tracer",
    "Program",
    "Node",
    "Value",
]
