"""Process-wide observability switchboard: one module-level check per hook.

Every instrumentation seam in the codebase — :func:`repro.obs.trace.span`
sites, the per-op tape hook in :meth:`repro.autodiff.tensor.Op.apply`, the
per-kernel timing loop in :class:`repro.compile.executor.CompiledPlan` —
guards itself on one of the module-level booleans below (``tracing``,
``ops``, ``kernels``, ``memory``).  With everything off (the default) the
only cost a hot path pays is a module-attribute read and a falsy check;
the instrumentation-overhead benchmark (``.benchmarks/BENCH_pr7.json``) enforces that
this stays within 3% of the uninstrumented compiled decode path.

State is deliberately *process-wide*, not thread-local: serving worker
threads, the HTTP gateway thread and the training loop must all flip on
together so one request yields one cross-thread trace.  Flags are plain
module attributes; :func:`enable` / :func:`disable` are the only writers
and are safe to call from any thread (they only rebind attributes and
install/remove the op hook).
"""

from __future__ import annotations

import contextlib

__all__ = ["enable", "disable", "is_enabled", "observed"]

#: Any instrumentation active (the single cheap "is observability on" check).
enabled = False
#: Structured span tracing (:func:`repro.obs.trace.span` records events).
tracing = False
#: Per-op wall-time profiling hook on eager tape execution.
ops = False
#: Per-kernel timings inside compiled-plan execution.
kernels = False
#: tracemalloc memory probes inside the per-op hook.
memory = False

#: Whether :func:`enable` started tracemalloc itself (so :func:`disable`
#: knows to stop it rather than clobbering a caller-owned tracing session).
_started_tracemalloc = False


def enable(trace: bool = True, profile_ops: bool = False,
           profile_kernels: bool = False, profile_memory: bool = False) -> None:
    """Turn on observability instrumentation process-wide.

    Parameters
    ----------
    trace:
        Record structured spans (:func:`repro.obs.trace.span`) into the
        process trace buffer, exportable as a Chrome ``trace_event`` JSON.
    profile_ops:
        Install the per-op tape hook: every eager :meth:`Op.apply` records
        its wall time into the ``tape.op_seconds`` histogram family (one
        series per op class) and, when tracing is also on, emits a
        ``tape.<OpName>`` trace event nested under the current span.
    profile_kernels:
        Time every step of compiled-plan execution into the
        ``compile.kernel_seconds`` histogram family.
    profile_memory:
        Additionally probe ``tracemalloc`` around every eager op (implies
        ``profile_ops``); tracemalloc is started if not already tracing
        and stopped again by :func:`disable`.

    Calling :func:`enable` again reconfigures the flags; :func:`disable`
    turns everything off.  Instrumentation never changes computed values —
    the integration tests pin engine/server outputs bit-identical with
    everything enabled.
    """
    global enabled, tracing, ops, kernels, memory, _started_tracemalloc
    tracing = bool(trace)
    ops = bool(profile_ops or profile_memory)
    kernels = bool(profile_kernels)
    memory = bool(profile_memory)
    # ``enabled`` is True for *any* enable() call — including a
    # metrics-only ``enable(trace=False)`` — because it also gates pure
    # metric emission (e.g. the trainer's per-epoch gauges).
    enabled = True
    if memory:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            _started_tracemalloc = True
    # Lazy imports: the hook seam lives in autodiff and must not be a
    # hard import dependency of the switchboard (no cycles).
    from ..autodiff import tensor as _tensor
    from .profile import OpProfiler

    _tensor.set_op_hook(OpProfiler(trace_events=tracing, memory=memory) if ops else None)


def disable() -> None:
    """Turn off all observability instrumentation (hooks are uninstalled)."""
    global enabled, tracing, ops, kernels, memory, _started_tracemalloc
    enabled = tracing = ops = kernels = memory = False
    from ..autodiff import tensor as _tensor

    _tensor.set_op_hook(None)
    if _started_tracemalloc:
        import tracemalloc

        tracemalloc.stop()
        _started_tracemalloc = False


def is_enabled() -> bool:
    """Whether any observability instrumentation is currently on."""
    return enabled


@contextlib.contextmanager
def observed(trace: bool = True, profile_ops: bool = False,
             profile_kernels: bool = False, profile_memory: bool = False):
    """Context manager enabling instrumentation for a block, then disabling.

    Convenience for tests and scripts::

        with obs.observed(profile_ops=True):
            engine.predict_grid(lowres, shape)
        obs.write_chrome_trace("trace.json")
    """
    enable(trace=trace, profile_ops=profile_ops,
           profile_kernels=profile_kernels, profile_memory=profile_memory)
    try:
        yield
    finally:
        disable()
