#!/usr/bin/env python
"""Chaos demo: a seeded fault plan against a live server + recovered training.

Two acts, both driven by the deterministic fault-injection framework
(:mod:`repro.faults`) with observability turned on so every fault, retry
and breaker transition lands in the metrics/trace artifacts:

1. **Self-healing serving** — a seeded :class:`FaultPlan` crashes worker
   replicas and injects batch latency while a wave of requests runs
   through a live :class:`ModelServer`.  Crashed batches resolve with
   ``status="error"`` and are simply resubmitted; the demo prints faults
   injected vs. requests lost (**zero** — every request gets a definite
   answer and the retried wave completes OK).
2. **Checkpoint-recovering training** — the same training run twice: once
   fault-free, once with an injected mid-run communicator fault that
   triggers the epoch-rollback recovery boundary.  The demo prints the
   recovery count and the maximum parameter difference between the two
   runs (**0.0** — recovery is bit-identical).

Artifacts (``--out``, default ``chaos-artifacts/``): ``trace.json`` with
``faults.*`` span events and ``metrics.jsonl`` including ``faults.injected``,
``retries.attempts`` and ``serving.worker_crashes`` series.  Run with
``python examples/chaos_demo.py`` (under a minute on one core).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro import obs
from repro.backend import precision
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.data import SuperResolutionDataset
from repro.faults import FaultPlan
from repro.serving import (
    STATUS_ERROR,
    STATUS_OK,
    ModelServer,
    QueryRequest,
)
from repro.simulation import synthetic_convection
from repro.training import DistributedTrainer, TrainerConfig


def chaotic_serving(out_dir: Path, n_requests: int) -> None:
    """A seeded chaos wave through a live server; lost requests must be zero."""
    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
    rng = np.random.default_rng(7)
    server = ModelServer(model, n_workers=2, breaker_cooldown=0.05)
    server.register_domain("rb", rng.standard_normal((1, 4, 4, 16, 16)))

    plan = FaultPlan(seed=42, name="serving-chaos")
    plan.fail("serving.worker", every=4, message="replica crash")
    plan.delay("serving.batch", 0.002, p=0.2)

    try:
        requests = [QueryRequest("rb", coords=rng.random((24, 3)))
                    for _ in range(n_requests)]
        resubmissions = 0
        with plan:
            results = [server.query(req, timeout=60) for req in requests]
            # Crashed batches resolved with status="error"; the request
            # objects are immutable, so errored ones are simply resubmitted —
            # still under chaos, so a retry can be poisoned again and goes
            # back in the queue until it lands on a healthy replica.
            pending = [req for req, res in zip(requests, results)
                       if res.status == STATUS_ERROR]
            for _ in range(10):
                if not pending:
                    break
                resubmissions += len(pending)
                outcomes = [server.query(req, timeout=60) for req in pending]
                pending = [req for req, res in zip(pending, outcomes)
                           if res.status == STATUS_ERROR]

        statuses = [r.status for r in results]
        hung = sum(s not in (STATUS_OK, STATUS_ERROR) for s in statuses)
        lost = hung + len(pending)
        injected = {f"{site}:{kind}": n
                    for (site, kind), n in sorted(plan.injected().items())}
        stats = server.stats()
        print(f"requests: {len(results)} "
              f"(first-try ok {statuses.count(STATUS_OK)}, "
              f"resubmissions until served {resubmissions})")
        print(f"faults injected: {injected}")
        print(f"worker crashes: {stats['worker_crashes']}, "
              f"breaker transitions: {stats['breaker_transitions']}, "
              f"breakers now: {stats['breakers']}")
        print(f"requests lost: {lost}")
        assert lost == 0, "the survival contract was violated"
    finally:
        drained = server.close()
        print(f"graceful drain: {drained}")


def recovered_training(epochs: int) -> None:
    """The same run fault-free and faulted: recovery must be bit-identical."""
    sim = synthetic_convection(nt=16, nz=16, nx=64, seed=3)
    dataset = SuperResolutionDataset(sim, lr_factors=(2, 2, 4),
                                     crop_shape_lr=(4, 4, 8), n_points=32,
                                     samples_per_epoch=8, seed=0)

    def run(plan: FaultPlan | None) -> DistributedTrainer:
        with precision("float64"):
            model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=3,
                                                               unet_norm="group"))
        trainer = DistributedTrainer(
            model, dataset,
            config=TrainerConfig(epochs=epochs, batch_size=1, world_size=4,
                                 gamma=0.0, steps_per_epoch=2,
                                 learning_rate=1e-2, max_epoch_retries=2))
        if plan is None:
            trainer.train()
        else:
            with plan:
                trainer.train()
        return trainer

    clean = run(None)

    plan = FaultPlan(seed=42, name="training-chaos")
    plan.fail("comm.allreduce", at=(3,), message="rank lost mid-epoch")
    faulted = run(plan)

    max_diff = max(float(np.max(np.abs(pa.data - pb.data)))
                   for pa, pb in zip(clean.model.parameters(),
                                     faulted.model.parameters()))
    print(f"injected: {plan.injected()}")
    print(f"epoch recoveries: {faulted.epoch_recoveries}")
    print(f"max parameter difference vs fault-free run: {max_diff}")
    assert faulted.epoch_recoveries == 1
    assert max_diff == 0.0, "recovery was not bit-identical"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("chaos-artifacts"),
                        help="directory for trace.json and metrics.jsonl")
    parser.add_argument("--requests", type=int, default=16,
                        help="requests in the serving chaos wave")
    parser.add_argument("--epochs", type=int, default=2,
                        help="epochs of the recovered training run")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    obs.enable(trace=True)
    try:
        print("=== 1. Self-healing serving under a seeded fault plan ===")
        chaotic_serving(args.out, args.requests)

        print("\n=== 2. Interrupted-and-recovered training ===")
        recovered_training(args.epochs)
    finally:
        obs.disable()

    trace_path = obs.write_chrome_trace(str(args.out / "trace.json"))
    fault_events = [e for e in obs.events() if e["name"].startswith("faults.")]
    obs.append_metrics_jsonl(str(args.out / "metrics.jsonl"))
    snap = obs.get_registry().snapshot()
    chaos_counters = {k: v for k, v in snap["counters"].items()
                      if k.split("{", 1)[0] in ("faults.injected",
                                                "retries.attempts",
                                                "serving.worker_crashes",
                                                "faults.breaker_transitions",
                                                "training.recoveries")}
    print(f"\nwrote {trace_path} ({len(fault_events)} faults.* span events) "
          f"and {args.out / 'metrics.jsonl'}")
    print(f"chaos metric series: {chaos_counters}")


if __name__ == "__main__":
    main()
