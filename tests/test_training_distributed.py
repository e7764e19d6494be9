"""DistributedTrainer: sharding, bucketed all-reduce, bit-identical resume.

The bit-identity tests enforce the PR's headline acceptance criterion: a
run that is interrupted, checkpointed, reloaded into a *fresh* trainer and
continued must produce bitwise-equal parameters, optimizer state and
history to an uninterrupted run — in the float64 policy, the float32
policy, and the float32-with-float64-master-weights mixed-precision mode.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.backend import precision
from repro.core import LossWeights, MeshfreeFlowNet, MeshfreeFlowNetConfig, compute_losses
from repro.training import DistributedTrainer, Trainer, TrainerConfig


def make_model(dtype="float64", seed=3):
    with precision(dtype):
        return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=seed, unet_norm="group"))


def dist_config(**overrides):
    base = dict(epochs=2, batch_size=1, world_size=4, gamma=0.0,
                steps_per_epoch=2, learning_rate=1e-2)
    base.update(overrides)
    return TrainerConfig(**base)


def assert_same_params(a, b):
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.data.dtype == pb.data.dtype
        assert np.array_equal(pa.data, pb.data)


def assert_same_history(ha, hb):
    """Histories must agree bitwise on everything except wall-clock telemetry."""
    assert len(ha) == len(hb)
    for ra, rb in zip(ha.records, hb.records):
        assert set(ra) == set(rb)
        for key in ra:
            if key == "wall_time":
                continue
            assert ra[key] == rb[key], f"history field {key}: {ra[key]} != {rb[key]}"


class TestConfigValidation:
    def test_momentum_range(self):
        with pytest.raises(ValueError):
            TrainerConfig(momentum=1.5)

    def test_scheduler_name(self):
        with pytest.raises(ValueError):
            TrainerConfig(scheduler="plateau")

    def test_nodes_must_divide_world(self):
        with pytest.raises(ValueError):
            TrainerConfig(world_size=4, nodes=3)
        with pytest.raises(ValueError):
            TrainerConfig(nodes=0)

    def test_allreduce_algorithm(self):
        with pytest.raises(ValueError):
            TrainerConfig(allreduce_algorithm="tree")

    def test_accumulate_steps(self):
        with pytest.raises(ValueError):
            TrainerConfig(accumulate_steps=0)


class TestGradientEquivalence:
    """All-reduce-averaged gradients == the seed's serial micro-batch average."""

    @pytest.mark.parametrize("nodes", [None, 2, 1])
    def test_allreduce_matches_serial_average(self, tiny_dataset, nodes):
        model = make_model()
        cfg = dist_config(nodes=nodes)
        trainer = DistributedTrainer(model, tiny_dataset, config=cfg)
        trainer.synchronize_gradients(0, 0)
        dist_grads = [p.grad.copy() for p in model.parameters()]

        # Serial reference (the seed semantics): per micro-batch, backward the
        # 1/world_size-scaled loss and accumulate — on the same batches.
        ref = make_model()
        ref.load_state_dict(model.state_dict())
        ref.zero_grad()
        weights = LossWeights(gamma=0.0)
        for _node, _acc, _rank, indices in trainer.last_step_indices:
            batch = tiny_dataset.sample_batch(indices, epoch=0)
            total, _ = compute_losses(
                ref, Tensor(batch.lowres), Tensor(batch.coords, requires_grad=True),
                Tensor(batch.targets), None, weights, coord_scales=batch.coord_scales)
            (total * (1.0 / cfg.world_size)).backward()

        for got, want in zip(dist_grads, ref.parameters()):
            assert np.max(np.abs(got - want.grad)) <= 1e-12

    def test_gradient_accumulation_matches_larger_batch(self, tiny_dataset):
        """accumulate_steps=2 must average gradients over both micro-rounds."""
        model = make_model()
        cfg = dist_config(world_size=2, accumulate_steps=2)
        trainer = DistributedTrainer(model, tiny_dataset, config=cfg)
        trainer.synchronize_gradients(0, 0)
        dist_grads = [p.grad.copy() for p in model.parameters()]
        assert len(trainer.last_step_indices) == 4  # 2 ranks x 2 accumulation rounds

        ref = make_model()
        ref.load_state_dict(model.state_dict())
        ref.zero_grad()
        weights = LossWeights(gamma=0.0)
        n_micro = len(trainer.last_step_indices)
        for _node, _acc, _rank, indices in trainer.last_step_indices:
            batch = tiny_dataset.sample_batch(indices, epoch=0)
            total, _ = compute_losses(
                ref, Tensor(batch.lowres), Tensor(batch.coords), Tensor(batch.targets),
                None, weights, coord_scales=batch.coord_scales)
            (total * (1.0 / n_micro)).backward()
        for got, want in zip(dist_grads, ref.parameters()):
            assert np.max(np.abs(got - want.grad)) <= 1e-12

    def test_training_decreases_loss(self, tiny_dataset):
        model = make_model()
        trainer = DistributedTrainer(model, tiny_dataset,
                                     config=dist_config(epochs=4, steps_per_epoch=4))
        history = trainer.train()
        assert history[-1]["loss"] < history[0]["loss"]


class TestSharding:
    def test_ranks_draw_only_from_their_shards(self, tiny_dataset):
        cfg = dist_config(world_size=4, steps_per_epoch=2)
        trainer = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        trainer._begin_epoch(0)
        shards = {rank: set(s.indices()) for rank, s in enumerate(trainer._samplers)}
        drawn: dict[int, list[int]] = {rank: [] for rank in shards}
        for step in range(2):
            trainer.synchronize_gradients(step, 0)
            for _node, _acc, rank, indices in trainer.last_step_indices:
                drawn[rank].extend(indices)
        for rank, indices in drawn.items():
            assert set(indices) <= shards[rank]

    def test_epoch_covers_every_sample_exactly_once(self, tiny_dataset):
        """steps * batch == shard size: the union of draws is the whole epoch."""
        # 8 samples, 4 ranks -> shard of 2 each; 2 steps of batch 1 walk it fully.
        cfg = dist_config(world_size=4, batch_size=1, steps_per_epoch=2)
        trainer = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        trainer._begin_epoch(0)
        seen: list[int] = []
        for step in range(2):
            trainer.synchronize_gradients(step, 0)
            seen.extend(i for *_, idx in trainer.last_step_indices for i in idx)
        assert sorted(seen) == list(range(len(tiny_dataset)))

    def test_comm_telemetry_recorded(self, tiny_dataset):
        trainer = DistributedTrainer(make_model(), tiny_dataset,
                                     config=dist_config(epochs=1))
        history = trainer.train()
        assert history[0]["comm_bytes"] > 0
        assert history[0]["collectives"] >= trainer.buckets.num_buckets
        assert history[0]["nodes"] == 4

    @pytest.mark.parametrize("algorithm", ["ring", "naive"])
    def test_single_node_has_no_traffic(self, tiny_dataset, algorithm):
        trainer = DistributedTrainer(
            make_model(), tiny_dataset,
            config=dist_config(epochs=1, nodes=1, allreduce_algorithm=algorithm))
        history = trainer.train()
        assert history[0]["comm_bytes"] == 0


def run_interrupted_and_straight(tmp_path, dataset, dtype, **config_overrides):
    """Train 4 epochs straight vs 2 + checkpoint + fresh trainer + 2 more."""
    cfg = dist_config(epochs=4, **config_overrides)

    straight = DistributedTrainer(make_model(dtype), dataset, config=cfg)
    straight.train()

    first = DistributedTrainer(make_model(dtype), dataset, config=cfg)
    first.train(2)
    path = tmp_path / "interrupt.npz"
    first.save(path)

    resumed = DistributedTrainer(make_model(dtype, seed=99), dataset, config=cfg)
    resumed.resume(path)
    resumed.train(2)
    return straight, resumed


class TestBitIdenticalResume:
    @pytest.mark.parametrize("dtype,master", [
        ("float64", False),
        ("float32", False),
        ("float32", True),
    ])
    def test_resume_bit_identical(self, tmp_path, tiny_dataset, dtype, master):
        straight, resumed = run_interrupted_and_straight(
            tmp_path, tiny_dataset, dtype, master_weights=master,
            scheduler="exponential", scheduler_kwargs={"gamma": 0.5},
        )
        assert straight.model.dtype == np.dtype(dtype)
        assert_same_params(straight.model, resumed.model)
        assert_same_history(straight.history, resumed.history)
        assert straight.optimizer.lr == resumed.optimizer.lr
        for i, state in straight.optimizer.state.items():
            for key, value in state.items():
                other = resumed.optimizer.state[i][key]
                assert np.asarray(other).dtype == np.asarray(value).dtype
                assert np.array_equal(value, other), f"optimizer state {i}/{key} differs"

    def test_resume_restores_dtype_policy(self, tmp_path, tiny_dataset):
        """A float64 trainer resuming a float32 checkpoint becomes float32."""
        cfg = dist_config(epochs=2)
        source = DistributedTrainer(make_model("float32"), tiny_dataset, config=cfg)
        source.train(1)
        path = tmp_path / "f32.npz"
        source.save(path)

        target = DistributedTrainer(make_model("float64"), tiny_dataset, config=cfg)
        meta = target.resume(path)
        assert meta["dtype"] == "float32"
        assert target.model.dtype == np.dtype(np.float32)
        assert_same_params(source.model, target.model)

    def test_serial_trainer_resume_bit_identical(self, tmp_path, tiny_dataset):
        """Trainer.save/resume round-trips the serial loop too."""
        cfg = TrainerConfig(epochs=4, batch_size=2, gamma=0.0, steps_per_epoch=2,
                            scheduler="step", scheduler_kwargs={"step_size": 1, "gamma": 0.5})
        straight = Trainer(make_model(), tiny_dataset, config=cfg)
        straight.train()

        first = Trainer(make_model(), tiny_dataset, config=cfg)
        first.train(2)
        path = tmp_path / "serial.npz"
        first.save(path)
        resumed = Trainer(make_model(seed=77), tiny_dataset, config=cfg)
        resumed.resume(path)
        resumed.train(2)

        assert_same_params(straight.model, resumed.model)
        assert_same_history(straight.history, resumed.history)

    def test_resume_rejects_mismatched_worker_count(self, tmp_path, tiny_dataset):
        source = DistributedTrainer(make_model(), tiny_dataset, config=dist_config())
        source.train(1)
        path = tmp_path / "w4.npz"
        source.save(path)
        other = DistributedTrainer(make_model(), tiny_dataset,
                                   config=dist_config(world_size=2))
        before = [p.data.copy() for p in other.model.parameters()]
        with pytest.raises(ValueError):
            other.resume(path)
        # The rejection happens before any state is mutated: the trainer is intact.
        assert other._epoch == 0
        for p, prior in zip(other.model.parameters(), before):
            assert np.array_equal(p.data, prior)

    def test_mid_epoch_save_resumes_bit_identically(self, tmp_path, tiny_dataset):
        """Checkpoints taken between train_step calls capture the shard cursors."""
        cfg = dist_config(epochs=2)
        source = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        source.train(1)
        source.train_step(0, source._epoch)  # advance mid-epoch
        path = tmp_path / "mid.npz"
        source.save(path)

        resumed = DistributedTrainer(make_model(seed=31), tiny_dataset, config=cfg)
        resumed.resume(path)
        # Continue both runs with identical direct steps: cursors must line up.
        source.train_step(1, source._epoch)
        resumed.train_step(1, resumed._epoch)
        assert source.last_step_indices == resumed.last_step_indices
        assert_same_params(source.model, resumed.model)

    def test_mid_epoch_snapshot_restores_bit_identically(self, tiny_dataset):
        """The in-memory snapshot() -> restore() continues exactly as a file does."""
        cfg = dist_config(epochs=2)
        source = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        source.train(1)
        source.train_step(0, source._epoch)  # advance mid-epoch
        state = source.snapshot()

        resumed = DistributedTrainer(make_model(seed=31), tiny_dataset, config=cfg)
        resumed.restore(state)
        source.train_step(1, source._epoch)
        resumed.train_step(1, resumed._epoch)
        assert source.last_step_indices == resumed.last_step_indices
        assert_same_params(source.model, resumed.model)
        assert_same_history(source.history, resumed.history)

    def test_cross_dtype_resume_continues_bit_identically(self, tmp_path, tiny_dataset):
        """Resuming a float32 run in a float64-built trainer must rebuild the
        communication path in float32 and continue bit-identically."""
        cfg = dist_config(epochs=4)
        straight = DistributedTrainer(make_model("float32"), tiny_dataset, config=cfg)
        straight.train()

        first = DistributedTrainer(make_model("float32"), tiny_dataset, config=cfg)
        first.train(2)
        path = tmp_path / "cross.npz"
        first.save(path)

        resumed = DistributedTrainer(make_model("float64", seed=5), tiny_dataset, config=cfg)
        resumed.resume(path)
        assert resumed.buckets.dtype == np.dtype(np.float32)
        resumed.train(2)
        for p in resumed.model.parameters():
            assert p.grad.dtype == np.dtype(np.float32)
        assert_same_params(straight.model, resumed.model)
        assert_same_history(straight.history, resumed.history)


class TestResumeValidation:
    def test_resume_rejects_master_weights_mismatch(self, tmp_path, tiny_dataset):
        source = DistributedTrainer(make_model("float32"), tiny_dataset,
                                    config=dist_config(master_weights=True))
        source.train(1)
        path = tmp_path / "master.npz"
        source.save(path)
        plain = DistributedTrainer(make_model("float32"), tiny_dataset,
                                   config=dist_config(master_weights=False))
        with pytest.raises(ValueError, match="master_weights"):
            plain.resume(path)

    def test_resume_rejects_optimizer_mismatch(self, tmp_path, tiny_dataset):
        source = DistributedTrainer(make_model(), tiny_dataset,
                                    config=dist_config(optimizer="adam"))
        source.train(1)
        path = tmp_path / "adam.npz"
        source.save(path)
        sgd = DistributedTrainer(make_model(), tiny_dataset,
                                 config=dist_config(optimizer="sgd"))
        with pytest.raises(ValueError, match="optimizer"):
            sgd.resume(path)

    def test_resume_rejects_scheduler_kwargs_mismatch(self, tmp_path, tiny_dataset):
        source = DistributedTrainer(
            make_model(), tiny_dataset,
            config=dist_config(scheduler="exponential", scheduler_kwargs={"gamma": 0.5}))
        source.train(1)
        path = tmp_path / "kw.npz"
        source.save(path)
        other = DistributedTrainer(
            make_model(), tiny_dataset,
            config=dist_config(scheduler="exponential", scheduler_kwargs={"gamma": 0.9}))
        with pytest.raises(ValueError, match="scheduler_kwargs"):
            other.resume(path)

    def test_resume_rejects_scheduler_mismatch(self, tmp_path, tiny_dataset):
        source = DistributedTrainer(
            make_model(), tiny_dataset,
            config=dist_config(scheduler="exponential", scheduler_kwargs={"gamma": 0.5}))
        source.train(1)
        path = tmp_path / "sched.npz"
        source.save(path)
        plain = DistributedTrainer(make_model(), tiny_dataset, config=dist_config())
        with pytest.raises(ValueError, match="scheduler"):
            plain.resume(path)


class TestStepSemantics:
    def test_direct_steps_reshard_on_epoch_change(self, tiny_dataset):
        """A direct step with a new epoch must draw from that epoch's shards."""
        trainer = DistributedTrainer(make_model(), tiny_dataset, config=dist_config())
        trainer.train_step(0, 0)
        trainer.train_step(0, 1)
        shards = {rank: set(s.indices()) for rank, s in enumerate(trainer._samplers)}
        assert trainer._samplers[0].epoch == 1
        for _node, _acc, rank, indices in trainer.last_step_indices:
            assert set(indices) <= shards[rank]

    def test_default_steps_account_for_accumulation(self, tiny_dataset):
        """One default epoch is one pass over the data at the effective batch."""
        trainer = DistributedTrainer(
            make_model(), tiny_dataset,
            config=dist_config(world_size=2, batch_size=1, accumulate_steps=2,
                               steps_per_epoch=None))
        assert trainer._steps_per_epoch() == len(tiny_dataset) // (1 * 2 * 2)

    def test_unused_parameter_keeps_none_grad(self, tiny_dataset):
        """Parameters no node touches must not receive all-reduced zero grads
        (weight decay / momentum would silently act on them)."""
        from repro.nn.module import Parameter

        model = make_model()
        model.unused_head = Parameter(np.zeros(3))  # registered, never in forward
        trainer = DistributedTrainer(model, tiny_dataset,
                                     config=dist_config(weight_decay=1e-2))
        trainer.train_step(0, 0)
        assert model.unused_head.grad is None
        assert np.array_equal(model.unused_head.data, np.zeros(3))  # no decay applied
        live_grads = [p for p in model.parameters() if p.grad is not None]
        assert len(live_grads) == len(model.parameters()) - 1


class TestMixedPrecision:
    def test_master_weights_dtypes(self, tiny_dataset):
        trainer = DistributedTrainer(make_model("float32"), tiny_dataset,
                                     config=dist_config(epochs=1, master_weights=True))
        trainer.train()
        assert trainer.model.dtype == np.dtype(np.float32)
        assert trainer.buckets.dtype == np.dtype(np.float32)
        for state in trainer.optimizer.state.values():
            assert state["master"].dtype == np.dtype(np.float64)
            assert state["m"].dtype == np.dtype(np.float64)

    def test_float32_allreduce_stays_float32(self, tiny_dataset):
        trainer = DistributedTrainer(make_model("float32"), tiny_dataset,
                                     config=dist_config())
        trainer.synchronize_gradients(0, 0)
        for p in trainer.model.parameters():
            assert p.grad.dtype == np.dtype(np.float32)
