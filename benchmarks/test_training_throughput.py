"""Training-step throughput gates: distributed and compiled training.

Two acceptance gates share this module:

* **Distributed (ISSUE 4)** — at the same global batch (``world_size x
  batch_size`` samples from the same dataset, same model, same
  optimizer), a :class:`DistributedTrainer` step — node-fused
  forward/backward passes plus the bucketed ring all-reduce — must
  deliver **>= 1.5x** the step throughput of the seed's serial
  micro-batch loop, which rebuilt one tiny autodiff graph per worker and
  unconditionally requested query-coordinate gradients.  The baseline is
  a frozen replica of the seed ``Trainer.train_step`` (commit 6a03051)
  so the comparison keeps measuring the same thing as the underlying ops
  evolve.  Recorded in ``BENCH_pr4.json``.
* **Compiled training step (ISSUE 8)** — with the *equation loss active*
  (residuals built on derivatives carried through the forward pass, one
  first-order backward), ``TrainerConfig.compile=True`` replays
  each micro-batch as one :class:`~repro.compile.CompiledTrainingStep`
  plan and must deliver **>= 1.5x** the throughput of the identical
  eager trainer, while remaining bit-identical to it.  Recorded in
  ``BENCH_pr8.json``.

Both measurements include data sampling and the optimizer update; the
gates use best-of-round timings with the compared paths interleaved so
background-load drift hits them symmetrically.
"""

import time

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import LossWeights, MeshfreeFlowNet, MeshfreeFlowNetConfig, compute_losses
from repro.data import SuperResolutionDataset
from repro.optim import Adam
from repro.simulation import synthetic_convection
from repro.training import DistributedTrainer, Trainer, TrainerConfig

WORLD_SIZE = 8
BATCH_SIZE = 2
N_POINTS = 128
ROUNDS = 4


@pytest.fixture(scope="module")
def training_setup():
    """Shared dataset/model scale for the throughput comparison."""
    result = synthetic_convection(nt=16, nz=16, nx=64, seed=3)
    dataset = SuperResolutionDataset(
        result, lr_factors=(2, 2, 4), crop_shape_lr=(4, 4, 8),
        n_points=N_POINTS, samples_per_epoch=64, seed=0,
    )
    return dataset


def seed_serial_step(model, optimizer, dataset, weights, step_index):
    """The seed's serial micro-batch loop (trainer.py @ 6a03051), frozen.

    One optimizer step = ``world_size`` independent micro-batch graphs,
    each backwarded with a 1/world_size-scaled loss, coordinates always
    requiring gradients.
    """
    optimizer.zero_grad()
    global_batch = BATCH_SIZE * WORLD_SIZE
    base = step_index * global_batch
    for rank in range(WORLD_SIZE):
        indices = [(base + rank * BATCH_SIZE + i) % 64 for i in range(BATCH_SIZE)]
        batch = dataset.sample_batch(indices, epoch=0)
        total, _ = compute_losses(
            model, Tensor(batch.lowres), Tensor(batch.coords, requires_grad=True),
            Tensor(batch.targets), None, weights, coord_scales=batch.coord_scales,
        )
        (total * (1.0 / WORLD_SIZE)).backward()
    optimizer.step()


@pytest.mark.benchmark(group="training")
def test_distributed_step_throughput(benchmark, bench_artifact, training_setup):
    """DistributedTrainer (allreduce path) >= 1.5x the seed serial loop."""
    dataset = training_setup
    weights = LossWeights(gamma=0.0)

    serial_model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(unet_norm="group"))
    serial_opt = Adam(serial_model.parameters(), lr=1e-3)

    config = TrainerConfig(
        epochs=1, batch_size=BATCH_SIZE, world_size=WORLD_SIZE, nodes=2,
        gamma=0.0, steps_per_epoch=ROUNDS, learning_rate=1e-3,
    )
    dist_model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(unet_norm="group"))
    trainer = DistributedTrainer(dist_model, dataset, config=config)
    trainer.model.train()
    trainer._begin_epoch(0)

    # Warm both paths (first-touch allocations, import-time caches).
    seed_serial_step(serial_model, serial_opt, dataset, weights, 0)
    trainer.train_step(0, 0)

    t_serial = t_dist = np.inf
    for round_index in range(1, ROUNDS):
        start = time.perf_counter()
        seed_serial_step(serial_model, serial_opt, dataset, weights, round_index)
        t_serial = min(t_serial, time.perf_counter() - start)
        start = time.perf_counter()
        trainer.train_step(round_index, 0)
        t_dist = min(t_dist, time.perf_counter() - start)

    benchmark.pedantic(lambda: trainer.train_step(0, 0), rounds=1, iterations=1)

    samples = WORLD_SIZE * BATCH_SIZE
    speedup = t_serial / t_dist
    for name, seconds in (("serial-seed", t_serial), ("allreduce", t_dist)):
        bench_artifact(
            f"training_step[{name}]", artifact="BENCH_pr4.json",
            dtype="float64",
            world_size=WORLD_SIZE, batch_size=BATCH_SIZE,
            throughput=round(samples / seconds, 1), throughput_unit="samples/s",
            latency_ms={"p50": round(seconds * 1e3, 3)},
        )
    bench_artifact(
        "training_step[speedup]", artifact="BENCH_pr4.json",
        speedup=round(speedup, 2), nodes=2,
        comm_bytes_per_step=int(trainer.communicator.total_bytes
                                / max(trainer.communicator.num_collectives, 1)
                                * trainer.buckets.num_buckets),
    )
    benchmark.extra_info.update({
        "speedup": round(speedup, 2),
        "serial_ms": round(t_serial * 1e3, 2),
        "allreduce_ms": round(t_dist * 1e3, 2),
    })
    assert speedup >= 1.5, (
        f"allreduce path speedup {speedup:.2f}x below the 1.5x acceptance bar "
        f"(serial {t_serial * 1e3:.1f} ms vs allreduce {t_dist * 1e3:.1f} ms per step)"
    )


@pytest.mark.benchmark(group="training")
def test_allreduce_gradients_match_serial(benchmark, training_setup):
    """Cross-check inside the benchmark scale: both paths yield the same gradient."""
    dataset = training_setup
    weights = LossWeights(gamma=0.0)
    config = TrainerConfig(epochs=1, batch_size=BATCH_SIZE, world_size=4,
                           gamma=0.0, steps_per_epoch=1)
    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(unet_norm="group"))
    trainer = DistributedTrainer(model, dataset, config=config)

    def sync():
        return trainer.synchronize_gradients(0, 0)

    benchmark.pedantic(sync, rounds=1, iterations=1)

    reference = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(unet_norm="group"))
    reference.load_state_dict(model.state_dict())
    reference.zero_grad()
    for _node, _acc, _rank, indices in trainer.last_step_indices:
        batch = dataset.sample_batch(indices, epoch=0)
        total, _ = compute_losses(
            reference, Tensor(batch.lowres), Tensor(batch.coords, requires_grad=True),
            Tensor(batch.targets), None, weights, coord_scales=batch.coord_scales,
        )
        (total * (1.0 / config.world_size)).backward()
    worst = max(
        float(np.max(np.abs(p.grad - q.grad)))
        for p, q in zip(model.parameters(), reference.parameters())
    )
    benchmark.extra_info["max_grad_diff"] = worst
    assert worst <= 1e-12


@pytest.mark.benchmark(group="training")
def test_compiled_equation_loss_step_throughput(benchmark, bench_artifact):
    """Compiled physics-constrained step >= 1.5x the eager trainer (ISSUE 8).

    Same scenario dataset, same seeded model init, equation loss ON
    (gamma > 0, so the parameter VJP runs back through the decoder's
    forward derivative pass): the only difference between the two
    trainers is ``TrainerConfig.compile``.  Besides the throughput gate,
    the measured steps must stay bit-identical and fallback-free — a
    speedup obtained by silently degrading the computation is a failure.
    """
    from repro.scenarios import get_scenario

    scenario = get_scenario("rayleigh_benard")
    hr = scenario.generate(nt=16, nz=16, nx=32, seed=3)
    dataset = scenario.make_dataset(
        results=hr, lr_factors=(2, 2, 2), crop_shape_lr=(4, 4, 8),
        n_points=N_POINTS, samples_per_epoch=64, seed=0,
    )
    pde_system = scenario.make_pde_system()

    def make_trainer(compile_flag):
        model = scenario.build_model("tiny")
        config = TrainerConfig(
            epochs=1, batch_size=BATCH_SIZE, world_size=1, gamma=0.0125,
            steps_per_epoch=ROUNDS, learning_rate=1e-3, seed=0,
            compile=compile_flag,
        )
        return Trainer(model, dataset, pde_system=pde_system, config=config)

    eager_tr, compiled_tr = make_trainer(False), make_trainer(True)
    records = [eager_tr.train_step(0, 0), compiled_tr.train_step(0, 0)]  # warm
    assert records[0] == records[1]  # bit-identical losses from step one

    t_eager = t_compiled = np.inf
    for round_index in range(1, ROUNDS):
        start = time.perf_counter()
        r_eager = eager_tr.train_step(round_index, 0)
        t_eager = min(t_eager, time.perf_counter() - start)
        start = time.perf_counter()
        r_compiled = compiled_tr.train_step(round_index, 0)
        t_compiled = min(t_compiled, time.perf_counter() - start)
        assert r_eager == r_compiled, f"round {round_index} diverged"

    benchmark.pedantic(lambda: compiled_tr.train_step(0, 0), rounds=1, iterations=1)

    stats = compiled_tr._compiled_step.stats()
    assert stats["fallbacks"] == {}, f"silent-degradation guard: {stats}"
    assert stats["plan_hits"] >= ROUNDS, stats

    samples = BATCH_SIZE
    speedup = t_eager / t_compiled
    for name, seconds in (("eager-eqloss", t_eager), ("compiled-eqloss", t_compiled)):
        bench_artifact(
            f"training_step[{name}]", artifact="BENCH_pr8.json",
            dtype="float64", scenario=scenario.name, gamma=0.0125,
            batch_size=BATCH_SIZE, n_points=N_POINTS,
            throughput=round(samples / seconds, 1), throughput_unit="samples/s",
            latency_ms={"p50": round(seconds * 1e3, 3)},
        )
    plan_stats = [plan.stats for plan in compiled_tr._compiled_step.plans]
    bench_artifact(
        "training_step[compile-speedup]", artifact="BENCH_pr8.json",
        speedup=round(speedup, 2),
        n_plans=stats["n_plans"], arena_bytes=stats["arena_bytes"],
        # What was traced, what value numbering merged away, what runs.
        n_traced_ops=sum(s.n_traced_ops for s in plan_stats),
        n_merged=sum(s.n_merged for s in plan_stats),
        n_ops=sum(s.n_ops for s in plan_stats),
    )
    benchmark.extra_info.update({
        "speedup": round(speedup, 2),
        "eager_ms": round(t_eager * 1e3, 2),
        "compiled_ms": round(t_compiled * 1e3, 2),
    })
    assert speedup >= 1.5, (
        f"compiled training step speedup {speedup:.2f}x below the 1.5x bar "
        f"(eager {t_eager * 1e3:.1f} ms vs compiled {t_compiled * 1e3:.1f} ms)"
    )
