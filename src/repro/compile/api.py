"""Plan caching, the module-state guard and eager fallback.

:mod:`repro.compile` states the three entry points and who calls each;
this module holds two of them.  :func:`compile` wraps an ``nn.Module``
(and :func:`compile_fn` a free function of tensors) in a callable that
traces the computation once per ``(input shapes/dtypes, precision
policy)`` key, optimizes and lowers it to a
:class:`~repro.compile.executor.CompiledPlan`, and replays the plan on
subsequent calls.  Plans that read a module's state are additionally
guarded by that module's **state identity** (parameter/buffer array
identities, ``requires_grad`` and training flags — one implementation,
:meth:`CompiledFunction.check_module_state`): an ``astype`` cast or a
parameter rebind invalidates every cached plan, while in-place weight
updates flow through without a re-trace because constants hold array
references.

Fallback to eager execution is automatic whenever replaying a plan could
be wrong or lossy, and is **never silent**: the first fallback of each
kind per wrapper emits a :class:`CompileFallbackWarning`, and every
fallback is counted in the wrapper's metrics collector as
``compile.fallbacks{fn=...,reason=...}``.  The reasons:

* ``unsupported`` — a call through :func:`compile`'s wrapper requires
  gradients.  Its plans serve no-grad calls only, so the module runs
  eagerly and the graph is recorded, bit-identically.  (Training through
  a plan is :class:`~repro.compile.training.CompiledTrainingStep`'s job.)
* ``trace-failure`` — a trace or lowering failure for a given key
  permanently falls back for that key (recorded in
  :attr:`CompiledFunction.fallback_keys`).
* ``impure`` — the module's forward has replay-unsafe side effects (an
  active Dropout mask); used by :class:`~repro.compile.training.
  CompiledTrainingStep`, while :func:`compile` rejects such modules
  outright at wrap time.

Thread affinity: a compiled wrapper owns mutable plan state and arena
buffers — use one wrapper per thread (serving workers already build one
engine, and therefore one wrapper, each).
"""

from __future__ import annotations

import itertools
import warnings
from collections import OrderedDict

from ..autodiff.tensor import Tensor, is_grad_enabled, is_inference_mode, is_tracing
from ..backend import default_dtype
from ..obs.metrics import REGISTRY as _REGISTRY
from ..obs.trace import span as _span
from .executor import CompiledPlan, compile_program
from .tracer import trace

__all__ = ["compile", "compile_fn", "CompiledFunction", "CompiledModule",
           "CompileFallbackWarning"]


class CompileFallbackWarning(UserWarning):
    """A compiled entry point served a call with eager execution.

    Emitted **once per (wrapper, reason)** so hot loops do not spam; the
    per-call counts live in the wrapper's metrics collector under
    ``compile.fallbacks{fn=...,reason=...}``.  Reasons: ``trace-failure``
    (the computation could not be captured or lowered), ``impure``
    (replay-unsafe side effects such as an active Dropout), and
    ``unsupported`` (gradients requested through :func:`compile`'s
    wrapper, whose plans serve no-grad calls only).  Eager execution is
    always numerically identical; the warning flags a *performance*
    degradation, not a correctness problem.
    """

#: Per-process sequence distinguishing same-named compiled wrappers (one per
#: serving worker replica) in the metrics plane.
_fn_seq = itertools.count(1)


def _make_plan_collector(fn: "CompiledFunction"):
    """Pull-based metrics collector for one compiled wrapper's plan cache.

    Built as a free function over a weakref so the closure itself never
    keeps the wrapper alive (the registry also weakrefs the owner — this
    is belt and braces against reference cycles).
    """
    import weakref

    ref = weakref.ref(fn)

    def collect() -> dict:
        obj = ref()
        if obj is None:
            return {}
        tag = f'fn="{obj._metric_name}"'
        out = {
            f"compile.plan_hits{{{tag}}}": obj.plan_hits,
            f"compile.eager_calls{{{tag}}}": obj.eager_calls,
            f"compile.retraces{{{tag}}}": obj.retraces,
            f"compile.n_plans{{{tag}}}": len(obj._plans),
        }
        for reason, count in obj.fallbacks.items():
            out[f'compile.fallbacks{{fn="{obj._metric_name}",reason="{reason}"}}'] = count
        return out

    return collect


def _check_compilable(module) -> None:
    """Reject modules whose forward is impure under replay."""
    from .. import nn

    for sub in module.modules():
        if isinstance(sub, nn.Dropout) and sub.training and sub.p > 0.0:
            raise ValueError(
                "cannot compile a module containing an active Dropout layer: "
                "the sampled mask would be baked into the plan; call .eval() first"
            )
        if isinstance(sub, nn.BatchNorm3d) and sub.training and sub.track_running_stats:
            raise ValueError(
                "cannot compile a module containing a training-mode BatchNorm3d: "
                "running-statistic updates are a side effect plans do not replay; "
                "call .eval() first"
            )


class CompiledFunction:
    """A function of tensors with per-shape compiled plans.

    Parameters
    ----------
    fn:
        Callable taking :class:`Tensor` positional arguments and returning
        a tensor or a flat sequence of tensors.  The computation must be
        expressible as a fixed program for fixed input shapes: Python
        control flow is baked in at trace time and any value produced
        outside the op layer is captured as a constant.
    copy_outputs:
        When ``True`` (default) results are copied out of the plan's arena
        so they remain valid indefinitely.  ``False`` returns arena-owned
        arrays — valid only until the next call — for allocation-free hot
        loops that consume results immediately (the inference engine).
    max_plans:
        LRU bound on cached plans (one per input-signature/policy key).
    module:
        Optional ``nn.Module`` whose state the traced function reads.  Its
        parameter and buffer arrays are *pinned* — their live values must
        keep flowing into replays, so constant folding will not snapshot
        anything sharing their memory — and :meth:`check_module_state`
        drops every plan when the identity of that state changes.
    extra_key:
        Optional zero-argument callable returning a hashable mixed into
        the plan key — for non-tensor state the traced function bakes in
        as Python scalars (e.g. per-batch coordinate scales in the
        compiled training step).
    """

    def __init__(self, fn, copy_outputs: bool = True, max_plans: int = 16,
                 module=None, extra_key=None):
        self._fn = fn
        self._copy_outputs = bool(copy_outputs)
        self._max_plans = int(max_plans)
        self._module = module
        self._extra_key = extra_key
        self._plans: "OrderedDict[tuple, tuple[CompiledPlan, object]]" = OrderedDict()
        #: Keys that failed to trace/lower and permanently run eagerly.
        self.fallback_keys: set = set()
        #: Eager-fallback counts by reason (``trace-failure`` / ``impure``
        #: / ``unsupported``), published through the metrics collector.
        self.fallbacks: dict[str, int] = {}
        self._warned_reasons: set[str] = set()
        #: Calls served by a compiled plan / eagerly.
        self.plan_hits = 0
        self.eager_calls = 0
        #: Trace-and-lower attempts (cache misses, fingerprint invalidations).
        self.retraces = 0
        # Publish plan-cache stats into the global metrics plane.  The
        # collector holds this wrapper by weakref and is pull-based: zero
        # cost until a snapshot / scrape asks for it.
        name = getattr(fn, "__name__", None) or type(fn).__name__
        self._metric_name = f"{name}#{next(_fn_seq)}"
        _REGISTRY.add_collector(_make_plan_collector(self), owner=self)
        self._snapshot_state()

    # --------------------------------------------------------------- guards
    def _state_key(self) -> tuple:
        """Cheap per-call identity of the module state plans depend on.

        Parameter ``requires_grad`` flags are included: un-freezing a
        parameter must invalidate cached VJP plans, whose unused-input
        ``None`` slots were baked in at trace time.
        """
        modules = self._modules
        return (
            tuple(id(p.data) for p in self.params),
            tuple(p.requires_grad for p in self.params),
            tuple(m.training for m in modules),
            tuple(id(b) for m in modules for b in m._buffers.values()),
        )

    def _snapshot_state(self) -> None:
        """Capture the identity snapshot the per-call guard compares."""
        module = self._module
        #: The module's parameters as of the last snapshot.
        self.params = [] if module is None else list(module.parameters())
        self._modules = [] if module is None else list(module.modules())
        self._snapshot = self._state_key()

    def check_module_state(self) -> bool:
        """Invalidate all plans when the module's state identity changed.

        Wrappers call this once per call, *before* assembling the inputs
        (which may be :attr:`params` themselves); returns whether anything
        changed.  The guard is intentionally cheap — array identities and
        flags — so the compiled hot path is not taxed by a full recursive
        fingerprint walk.  In-place value updates pass (plans hold
        references); ``astype`` casts, ``load``-rebinds and mode or
        ``requires_grad`` flips clear the cache and re-trace lazily.
        """
        if self._state_key() == self._snapshot:
            return False
        self.clear()
        self._snapshot_state()
        return True

    # ------------------------------------------------------------- fallbacks
    def _note_fallback(self, reason: str, detail: str = "") -> None:
        """Count an eager fallback and warn the first time a reason occurs."""
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        if reason not in self._warned_reasons:
            self._warned_reasons.add(reason)
            suffix = f": {detail}" if detail else ""
            warnings.warn(
                f"compiled entry point '{self._metric_name}' is serving calls "
                f"with eager execution (reason: {reason}){suffix}",
                CompileFallbackWarning, stacklevel=4)

    # ----------------------------------------------------------------- keys
    def _key(self, tensors) -> tuple:
        # requires_grad flags are part of the signature: they decide which
        # internal grad() calls of a traced function produce real programs.
        extra = self._extra_key() if self._extra_key is not None else None
        return (
            default_dtype().str,
            extra,
            tuple((t.shape, t.dtype.str, t.requires_grad) for t in tensors),
        )

    def _compile(self, key, tensors):
        """Trace + lower a new plan; returns the trace call's own result.

        The trace *is* a full eager evaluation, so its result serves the
        cache-miss call directly — a fresh key costs one execution, not
        two.  Returns ``None`` (and records a permanent fallback key) when
        the computation cannot be captured.
        """
        self.retraces += 1
        try:
            # Live module state that constant folding must never snapshot.
            pinned = [p.data for p in self.params] + [
                b for m in self._modules for b in m._buffers.values()]
            with _span("compile.trace", fn=self._metric_name):
                program, structure, result = trace(self._fn, *tensors)
                plan = compile_program(program, pinned=pinned)
        except Exception as exc:
            self.fallback_keys.add(key)
            self._note_fallback("trace-failure", f"{type(exc).__name__}: {exc}")
            return None
        self._plans[key] = (plan, structure)
        if len(self._plans) > self._max_plans:
            self._plans.popitem(last=False)
        return result

    # ---------------------------------------------------------------- calls
    def _eager(self, tensors):
        self.eager_calls += 1
        return self._fn(*tensors)

    def __call__(self, *args):
        """Run the compiled (or, on a fallback key, eager) function.

        Compiled execution never records an autodiff graph: outputs are
        leaves even for ``requires_grad`` inputs — those flags only feed
        the *internal* ``grad()`` calls of the traced function.  Wrap a
        module with :func:`compile` instead when callers differentiate
        *through* the result.
        """
        if is_tracing():
            # Someone else's trace is recording: replaying a plan would
            # capture our output as a frozen constant in *their* program.
            # Run eagerly so our primitives are recorded like any others.
            return self._fn(*args)
        tensors = [a if isinstance(a, Tensor) else Tensor(a) for a in args]
        key = self._key(tensors)
        entry = self._plans.get(key)
        if entry is None:
            if key in self.fallback_keys:
                self._note_fallback("trace-failure")
                return self._eager(tensors)
            result = self._compile(key, tensors)
            if result is None:
                return self._eager(tensors)
            # Detached so miss and hit calls have identical (leaf) semantics.
            if isinstance(result, Tensor):
                return result.detach()
            return tuple(None if t is None else t.detach() for t in result)
        self._plans.move_to_end(key)
        plan, structure = entry
        with _span("compile.plan_run", fn=self._metric_name):
            outs = plan.run(*(t.data for t in tensors))
        if self._copy_outputs:
            outs = [o.copy() for o in outs]
        self.plan_hits += 1
        if structure == "single":
            return Tensor(outs[0])
        return tuple(None if slot is None else Tensor(outs[slot]) for slot in structure)

    # ------------------------------------------------------------ inspection
    @property
    def plans(self) -> list[CompiledPlan]:
        """Currently cached plans (most recently used last)."""
        return [plan for plan, _ in self._plans.values()]

    def stats(self) -> dict:
        """Aggregate cache / fusion statistics for telemetry and tests."""
        return {
            "n_plans": len(self._plans),
            "plan_hits": self.plan_hits,
            "eager_calls": self.eager_calls,
            "retraces": self.retraces,
            "n_fallback_keys": len(self.fallback_keys),
            "fallbacks": dict(self.fallbacks),
            "runtime_allocs": sum(p.runtime_allocs for p in self.plans),
            "arena_bytes": sum(p.stats.arena_bytes for p in self.plans),
        }

    def clear(self) -> None:
        """Drop every cached plan (and permanent-fallback record)."""
        self._plans.clear()
        self.fallback_keys.clear()


class CompiledModule:
    """Compiled wrapper around a single-argument ``nn.Module``.

    Behaves like the module itself (``wrapper(x) -> Tensor``) with plans
    cached per input signature and precision policy, guarded by the
    module's state identity.  Plans serve **no-grad** calls; a call that
    requires gradients falls back to the eager module so the autodiff
    graph is recorded as usual (warned once as an ``unsupported``
    fallback).

    Not registered as a sub-module on purpose: assigning a wrapper to a
    model attribute must not change ``state_dict`` layout or checkpoint
    compatibility.
    """

    def __init__(self, module, copy_outputs: bool = True, max_plans: int = 16):
        _check_compilable(module)
        self.module = module
        self._fn = CompiledFunction(module, copy_outputs=copy_outputs,
                                    max_plans=max_plans, module=module)

    # ---------------------------------------------------------------- calls
    def __call__(self, x) -> Tensor:
        if is_tracing():
            # Another trace is recording: run the eager module so its
            # primitives land in that program instead of a frozen replay.
            return self.module(x)
        x = x if isinstance(x, Tensor) else Tensor(x)
        if self._fn.check_module_state():
            _check_compilable(self.module)
        needs_grad = (
            is_grad_enabled()
            and not is_inference_mode()
            and (x.requires_grad or any(p.requires_grad for p in self._fn.params))
        )
        if not needs_grad:
            return self._fn(x)
        # Grad paths run eagerly, bit-identically.
        self._fn._note_fallback(
            "unsupported", "gradients requested through a compiled module")
        return self._fn._eager([x])

    # ------------------------------------------------------------ inspection
    def stats(self) -> dict:
        """Plan-cache and fusion statistics."""
        return self._fn.stats()

    @property
    def plans(self) -> list[CompiledPlan]:
        return self._fn.plans

    def clear(self) -> None:
        """Invalidate every cached plan."""
        self._fn.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledModule({self.module!r})"


def compile(module, copy_outputs: bool = True,
            max_plans: int = 16) -> CompiledModule:  # noqa: A001 - mirrors torch.compile
    """Wrap ``module`` in a graph-captured, fused, buffer-reusing executor.

    See :class:`CompiledModule`.  The wrapper is a drop-in callable for
    single-tensor-argument modules (the ImNet decoder); pass it anywhere a
    decoder callable is accepted.
    """
    return CompiledModule(module, copy_outputs=copy_outputs, max_plans=max_plans)


def compile_fn(fn, copy_outputs: bool = True, max_plans: int = 16) -> CompiledFunction:
    """Compile a free function of tensors (see :class:`CompiledFunction`).

    The function may internally call :func:`repro.autodiff.grad` with
    ``create_graph=True`` — derivative graphs are ops like any others, so
    first- and second-order computations trace into replayable plans (the
    equivalence tests exercise exactly this on the decoder MLP).
    """
    return CompiledFunction(fn, copy_outputs=copy_outputs, max_plans=max_plans)
