"""Fault-tolerance layer: no-fault overhead gate + chaos survival record.

The PR 10 acceptance gate.  With no :class:`~repro.faults.FaultPlan` active,
the only per-batch additions on the serving hot path are module-global
``ACTIVE is None`` guards, so a supervised ``_serve_batch`` call must stay
within **3%** of invoking ``run_batch`` directly (interleaved min-of-rounds,
drift-symmetric, smallest-of-trials — the same methodology as the PR 7
observability gate).  A second entry records a seeded chaos wave through a
live server: every request resolves to a definite status and none are lost.
"""

import gc
import time

import numpy as np
import pytest

from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.faults import FaultPlan
from repro.serving import (
    STATUS_ERROR,
    STATUS_OK,
    MicroBatchScheduler,
    ModelServer,
    QueryRequest,
    run_batch,
)

N_POINTS = 2048
BATCH_REQUESTS = 2
OVERHEAD_GATE = 0.03


def _interleaved_best(fn_a, fn_b, rounds):
    """Fastest round of two callables timed alternately (drift-symmetric)."""
    best_a = best_b = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


@pytest.mark.benchmark(group="faults")
def test_no_fault_overhead_gate(bench_artifact):
    """Supervised serve path ≤3% over bare run_batch when no plan is active."""
    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
    rng = np.random.default_rng(0)
    server = ModelServer(model, n_workers=1)
    server.register_domain("d", rng.standard_normal((1, 4, 4, 16, 16)))
    engines = server._worker_engines[0]
    coords = rng.random((BATCH_REQUESTS, N_POINTS, 3))

    def fresh_batch():
        """A never-resolved micro-batch of BATCH_REQUESTS point queries."""
        feeder = MicroBatchScheduler()
        for i in range(BATCH_REQUESTS):
            feeder.submit(QueryRequest("d", coords=coords[i]))
        batch = feeder.next_batch()
        assert len(batch) == BATCH_REQUESTS
        return batch

    def raw_arm():
        # Exactly what the pre-supervision worker loop executed.
        run_batch(engines, fresh_batch(), server._resolve_domain,
                  telemetry=server.telemetry, default_dtype=server.precisions[0])

    def supervised_arm():
        # The supervised path: the faults ACTIVE guard + the same call.
        server._serve_batch(engines, fresh_batch())

    try:
        raw_arm()  # warm the latent-tile cache and allocators
        supervised_arm()
        gc.collect()
        overhead = np.inf
        t_raw = t_supervised = np.inf
        # Smallest ratio of independent trials: the guard cost is a
        # constant, so noise can only inflate the ratio, never hide a
        # real regression.
        for _ in range(3):
            trial_raw, trial_supervised = _interleaved_best(
                raw_arm, supervised_arm, rounds=10)
            if trial_supervised / trial_raw - 1.0 < overhead:
                overhead = trial_supervised / trial_raw - 1.0
                t_raw, t_supervised = trial_raw, trial_supervised
    finally:
        server.close()

    points = BATCH_REQUESTS * N_POINTS
    for mode, seconds in (("raw", t_raw), ("supervised", t_supervised)):
        bench_artifact(
            f"faults_serve_batch[{mode}]", artifact="BENCH_pr10.json",
            mode=mode, dtype="float64",
            throughput=round(points / seconds), throughput_unit="points/s",
            latency_ms={"p50": round(seconds * 1e3, 3)},
        )
    bench_artifact(
        "faults_disabled_overhead", artifact="BENCH_pr10.json",
        overhead_pct=round(overhead * 100, 2), gate_pct=OVERHEAD_GATE * 100,
    )
    assert overhead <= OVERHEAD_GATE, (
        f"no-fault serve overhead {overhead:.1%} exceeds the {OVERHEAD_GATE:.0%} gate "
        f"(raw {t_raw * 1e3:.2f} ms vs supervised {t_supervised * 1e3:.2f} ms)"
    )


@pytest.mark.benchmark(group="faults")
def test_chaos_survival_record(bench_artifact):
    """Seeded chaos wave: every request resolves definitely, none are lost."""
    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
    rng = np.random.default_rng(1)
    server = ModelServer(model, n_workers=2, breaker_cooldown=0.05)
    server.register_domain("d", rng.standard_normal((1, 4, 4, 16, 16)))
    coords = rng.random((32, 3))

    plan = FaultPlan(seed=10, name="bench-chaos")
    plan.fail("serving.worker", every=4, message="replica crash")
    plan.delay("serving.batch", 0.002, p=0.2)
    try:
        with plan:
            results = [server.query(QueryRequest("d", coords=coords), timeout=60)
                       for _ in range(24)]
        statuses = [r.status for r in results]
        stats = server.stats()
    finally:
        server.close()

    definite = sum(s in (STATUS_OK, STATUS_ERROR) for s in statuses)
    assert definite == len(results)  # nothing hung or was silently dropped
    assert statuses.count(STATUS_ERROR) >= 1
    bench_artifact(
        "faults_chaos_survival", artifact="BENCH_pr10.json",
        requests=len(results), ok=statuses.count(STATUS_OK),
        errors=statuses.count(STATUS_ERROR), lost=len(results) - definite,
        faults_injected={f"{site}:{kind}": n
                         for (site, kind), n in sorted(plan.injected().items())},
        worker_crashes=stats["worker_crashes"],
    )
