"""The experiment DAG and its resumable, cache-aware executor.

:class:`Pipeline` holds a set of :class:`~repro.pipeline.stage.Stage` nodes
and answers graph questions (topological order, upstream closure, downstream
cone).  :func:`run_pipeline` executes one:

1. Artifact fingerprints are computed for every stage in topological order
   (hash chaining — see :meth:`Stage.compute_fingerprint`).
2. The stage selection is resolved: ``until`` restricts the run to a target
   stage plus its upstream closure, ``start_from`` forces recompute of a
   stage *and its whole downstream cone*, ``force`` forces individual
   stages.  Everything else with a stored artifact is a **cache hit** and is
   loaded instead of recomputed; a corrupted artifact is detected (digest
   mismatch) and transparently recomputed.
3. Ready stages run as soon as all of their dependencies are done — with
   ``jobs > 1`` independent stages (sweep points, ablation grid cells) run
   concurrently on a thread pool.  Stage bodies are deterministic and
   self-seeded, so parallel execution is bit-identical to serial.

Every stage run is wrapped in a ``pipeline.stage`` observability span, and
the executor publishes the ``pipeline.*`` metrics family (cache hits/misses,
stages computed/failed, per-stage wall time) through :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..faults import TransientError, is_transient
from .artifacts import ArtifactCorrupted, ArtifactStore
from .stage import Stage, StageContext, topological_order

__all__ = ["Pipeline", "RunReport", "StageResult", "run_pipeline"]


class Pipeline:
    """An immutable-once-built collection of stages forming a DAG."""

    def __init__(self, stages: Iterable[Stage] = (), name: str = "pipeline"):
        self.name = name
        self._stages: dict[str, Stage] = {}
        for stage in stages:
            self.add(stage)

    # ------------------------------------------------------------- building
    def add(self, stage: Stage) -> Stage:
        """Register a stage (duplicate names raise); returns it."""
        if stage.name in self._stages:
            raise ValueError(f"duplicate stage name '{stage.name}'")
        self._stages[stage.name] = stage
        return stage

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def __getitem__(self, name: str) -> Stage:
        try:
            return self._stages[name]
        except KeyError:
            raise KeyError(
                f"unknown stage '{name}'; available: {sorted(self._stages)}"
            ) from None

    @property
    def stages(self) -> list[Stage]:
        """Stages in declaration order."""
        return list(self._stages.values())

    # ---------------------------------------------------------------- graph
    def topo_order(self) -> list[Stage]:
        """Topologically sorted stages (validates deps and acyclicity)."""
        return topological_order(self.stages)

    def upstream_closure(self, names: Iterable[str]) -> set[str]:
        """The named stages plus everything they transitively depend on."""
        todo = [self[n].name for n in names]
        seen: set[str] = set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            todo.extend(self[name].deps)
        return seen

    def downstream_cone(self, names: Iterable[str]) -> set[str]:
        """The named stages plus everything that transitively depends on them."""
        roots = {self[n].name for n in names}
        consumers: dict[str, set[str]] = {n: set() for n in self._stages}
        for stage in self.stages:
            for dep in stage.deps:
                consumers[dep].add(stage.name)
        todo, seen = list(roots), set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            todo.extend(consumers[name])
        return seen

    def fingerprints(self) -> dict[str, str]:
        """Artifact fingerprint of every stage (hash-chained, topo order)."""
        fps: dict[str, str] = {}
        for stage in self.topo_order():
            fps[stage.name] = stage.compute_fingerprint(fps)
        return fps


@dataclass
class StageResult:
    """Outcome of one stage in a pipeline run."""

    name: str
    fingerprint: str
    status: str          #: "computed" | "cached" | "skipped" | "failed"
    seconds: float = 0.0
    error: Optional[str] = None
    attempts: int = 1    #: executions of the stage body (> 1 after retries)


@dataclass
class RunReport:
    """Everything a pipeline run produced (inspection + assertions in tests)."""

    pipeline: str
    results: dict[str, StageResult] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0

    def counts(self) -> dict[str, int]:
        """Stage totals by status (``computed`` / ``cached`` / ``skipped`` / ``failed``)."""
        out: dict[str, int] = {}
        for result in self.results.values():
            out[result.status] = out.get(result.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        """True when no selected stage failed."""
        return not any(r.status == "failed" for r in self.results.values())

    def manifest(self) -> dict:
        """Machine-readable run summary (written as ``manifest.json``)."""
        return {
            "pipeline": self.pipeline,
            "seconds": self.seconds,
            "counts": self.counts(),
            "stages": [
                {"name": r.name, "fingerprint": r.fingerprint,
                 "status": r.status, "seconds": r.seconds,
                 **({"attempts": r.attempts} if r.attempts > 1 else {}),
                 **({"error": r.error} if r.error else {})}
                for r in self.results.values()
            ],
        }


def _emit_metrics(status: str, stage: str, seconds: float) -> None:
    """Publish one stage outcome into the ``pipeline.*`` metrics family."""
    from ..obs import runtime as _obs

    if not _obs.enabled:
        return
    from ..obs.metrics import REGISTRY

    if status == "cached":
        REGISTRY.counter("pipeline.cache_hits").inc()
    elif status == "computed":
        REGISTRY.counter("pipeline.cache_misses").inc()
        REGISTRY.counter("pipeline.stages_computed").inc()
        REGISTRY.histogram("pipeline.stage_seconds").observe(seconds)
    elif status == "failed":
        REGISTRY.counter("pipeline.stages_failed").inc()


def _emit_retry(stage: str) -> None:
    """Count one retried (or transiently failed) stage execution."""
    from ..obs import runtime as _obs

    if not _obs.enabled:
        return
    from ..obs.metrics import REGISTRY

    REGISTRY.counter("pipeline.retries", stage=stage).inc()


def run_pipeline(pipeline: Pipeline, store: Optional[ArtifactStore] = None,
                 until: Optional[str | Sequence[str]] = None,
                 start_from: Optional[str | Sequence[str]] = None,
                 force: Iterable[str] = (), jobs: int = 1,
                 keep_values: bool = True) -> RunReport:
    """Execute ``pipeline`` (see module docstring for the selection rules).

    Parameters
    ----------
    store:
        Artifact store for cache lookups and result persistence.  ``None``
        runs fully in memory: every selected stage computes exactly once.
    until:
        Target stage name(s); only their upstream closure runs.
    start_from:
        Stage name(s) forced to recompute together with their downstream
        cone (the CGAT-style ``--from``).
    force:
        Individual stage names forced to recompute (no cone expansion).
    jobs:
        Max concurrently running stages (threads).
    keep_values:
        Keep every stage value in :attr:`RunReport.values` (tests and
        in-memory runs read them; the CLI disables this to keep memory flat
        and retains only terminal stages' values).
    """
    order = pipeline.topo_order()
    fps = pipeline.fingerprints()

    selected = {s.name for s in order}
    if until is not None:
        targets = [until] if isinstance(until, str) else list(until)
        selected = pipeline.upstream_closure(targets)
    forced: set[str] = {pipeline[n].name for n in force}
    if start_from is not None:
        roots = [start_from] if isinstance(start_from, str) else list(start_from)
        forced |= pipeline.downstream_cone(roots)
    forced &= selected

    report = RunReport(pipeline=pipeline.name)
    for stage in order:
        if stage.name not in selected:
            report.results[stage.name] = StageResult(stage.name, fps[stage.name], "skipped")

    values: dict[str, object] = {}
    remaining_consumers: dict[str, int] = {name: 0 for name in selected}
    for stage in order:
        if stage.name not in selected:
            continue
        for dep in stage.deps:
            remaining_consumers[dep] += 1

    def release_dep(dep: str) -> None:
        """Drop a dependency's cached value once its last consumer finished."""
        remaining_consumers[dep] -= 1
        if remaining_consumers[dep] == 0 and not keep_values:
            values.pop(dep, None)

    def classify(exc: BaseException) -> bool:
        # ArtifactCorrupted counts as transient at the retry layer: a
        # recompute-and-rewrite fixes a torn artifact.
        return is_transient(exc, extra=(ArtifactCorrupted,))

    def execute(stage: Stage) -> StageResult:
        from ..obs import span

        fp = fps[stage.name]
        attempts = {"n": 1}

        def count_retry(attempt: int, exc: BaseException) -> None:
            attempts["n"] += 1
            _emit_retry(stage.name)

        def under_retry(fn):
            if stage.retry is None:
                return fn()
            try:
                return stage.retry.call(fn, label=stage.name,
                                        classify=classify, on_retry=count_retry)
            except Exception as exc:
                # Carry the attempt count out to the failed-StageResult
                # builder in the scheduling loop below.
                exc._pipeline_attempts = attempts["n"]
                raise

        def under_retry_load(fn):
            # Corruption is NOT retried here: re-reading the same torn
            # bytes cannot help — the except below deletes and recomputes.
            if stage.retry is None:
                return fn()
            return stage.retry.call(fn, label=stage.name,
                                    classify=is_transient, on_retry=count_retry)

        if store is not None and stage.name not in forced and store.has(fp):
            try:
                t0 = time.perf_counter()
                values[stage.name] = under_retry_load(lambda: store.load(fp))
                result = StageResult(stage.name, fp, "cached",
                                     seconds=time.perf_counter() - t0)
                _emit_metrics("cached", stage.name, result.seconds)
                return result
            except ArtifactCorrupted:
                store.delete(fp)  # fall through to a clean recompute
            except TransientError:
                # Store IO kept failing transiently even after retries;
                # recomputing below still yields a correct artifact.
                _emit_retry(stage.name)
        ctx = StageContext(
            params=stage.params, fingerprint=fp,
            inputs={dep: values[dep] for dep in stage.deps},
            scratch=store.scratch_dir(fp) if store is not None else None,
        )

        def compute():
            with span("pipeline.stage", stage=stage.name, fingerprint=fp[:12]):
                return stage.fn(ctx)

        t0 = time.perf_counter()
        value = under_retry(compute)
        elapsed = time.perf_counter() - t0
        if store is not None:
            under_retry(lambda: store.save(
                fp, value, stage=stage.name,
                meta={"params": dict(stage.params), "deps": list(stage.deps),
                      "seconds": elapsed, "version": stage.version}))
        values[stage.name] = value
        result = StageResult(stage.name, fp, "computed", seconds=elapsed,
                             attempts=attempts["n"])
        _emit_metrics("computed", stage.name, elapsed)
        return result

    t_start = time.perf_counter()
    pending = [s for s in order if s.name in selected]
    done: set[str] = set()
    failed_cone: set[str] = set()

    def ready(stage: Stage) -> bool:
        return all(dep in done for dep in stage.deps)

    with ThreadPoolExecutor(max_workers=max(1, int(jobs))) as pool:
        futures = {}
        while pending or futures:
            launchable = [s for s in pending if ready(s) and s.name not in failed_cone]
            for stage in launchable:
                pending.remove(stage)
                futures[pool.submit(execute, stage)] = stage
            # Anything inside a failed stage's cone can never become ready.
            for stage in [s for s in pending if s.name in failed_cone]:
                pending.remove(stage)
                report.results[stage.name] = StageResult(
                    stage.name, fps[stage.name], "skipped",
                    error="upstream stage failed")
            if not futures:
                break
            completed, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in completed:
                stage = futures.pop(future)
                try:
                    result = future.result()
                except Exception as exc:  # stage body raised: poison its cone
                    result = StageResult(stage.name, fps[stage.name], "failed",
                                         error=f"{type(exc).__name__}: {exc}",
                                         attempts=getattr(exc, "_pipeline_attempts", 1))
                    _emit_metrics("failed", stage.name, 0.0)
                    failed_cone |= pipeline.downstream_cone([stage.name])
                report.results[stage.name] = result
                done.add(stage.name)
                for dep in stage.deps:
                    release_dep(dep)

    if not keep_values:
        # Retain only values nothing consumed (terminal stages of the selection).
        for name in list(values):
            if remaining_consumers.get(name, 0) != 0:
                values.pop(name, None)
    report.values = values
    report.seconds = time.perf_counter() - t_start
    # Present results in topological order regardless of completion order.
    report.results = {s.name: report.results[s.name] for s in order
                      if s.name in report.results}
    return report
