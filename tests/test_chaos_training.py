"""Chaos tests for training: epoch rollback and bit-identical recovery.

The acceptance criterion of the fault-tolerance PR: a training run that
loses a rank mid-epoch (an injected communicator fault), rolls back to the
epoch-start snapshot and re-runs must finish with *bitwise* identical
parameters and history to the fault-free run — under the float64 policy
and the float32 policy.  A process killed while writing a checkpoint must
leave a checkpoint that resumes.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import precision
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.faults import FaultInjected, FaultPlan
from repro.training import DistributedTrainer, Trainer, TrainerConfig


def make_model(dtype="float64", seed=3):
    with precision(dtype):
        return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=seed, unet_norm="group"))


def dist_config(**overrides):
    base = dict(epochs=2, batch_size=1, world_size=4, gamma=0.0,
                steps_per_epoch=2, learning_rate=1e-2, max_epoch_retries=2)
    base.update(overrides)
    return TrainerConfig(**base)


def assert_same_params(a, b):
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.data.dtype == pb.data.dtype
        assert np.array_equal(pa.data, pb.data)


def assert_same_history(ha, hb):
    assert len(ha) == len(hb)
    for ra, rb in zip(ha.records, hb.records):
        assert set(ra) == set(rb)
        for key in ra:
            if key == "wall_time":
                continue
            assert ra[key] == rb[key], f"history field {key}: {ra[key]} != {rb[key]}"


class TestConfigValidation:
    def test_max_epoch_retries_must_be_non_negative(self):
        with pytest.raises(ValueError):
            TrainerConfig(max_epoch_retries=-1)

    def test_recovery_knobs_do_not_poison_checkpoint_compat(self, tiny_dataset):
        # max_epoch_retries is a runtime knob: a checkpoint written without
        # rollback must resume into a trainer that enables it.
        writer = DistributedTrainer(make_model(), tiny_dataset,
                                    config=dist_config(max_epoch_retries=0))
        writer.train()

    def test_zero_retries_reraises_first_fault(self, tiny_dataset):
        trainer = DistributedTrainer(
            make_model(), tiny_dataset,
            config=dist_config(max_epoch_retries=0))
        plan = FaultPlan(seed=0)
        plan.fail("comm.allreduce", at=(1,), message="rank lost")
        with plan:
            with pytest.raises(FaultInjected, match="rank lost"):
                trainer.train()


class TestDistributedRecovery:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_recovered_run_is_bit_identical(self, tiny_dataset, dtype):
        cfg = dist_config()
        with precision(dtype):
            clean = DistributedTrainer(make_model(dtype), tiny_dataset, config=cfg)
            clean_history = clean.train()

            faulted = DistributedTrainer(make_model(dtype), tiny_dataset, config=cfg)
            # 2 steps/epoch x 1 all-reduce/step: call 3 is epoch 2, step 1 —
            # the fault lands mid-run with one epoch already committed.
            plan = FaultPlan(seed=1, name="rank-loss")
            plan.fail("comm.allreduce", at=(3,), message="rank lost")
            with plan:
                faulted_history = faulted.train()

        assert faulted.epoch_recoveries == 1
        assert plan.injected() == {("comm.allreduce", "raise"): 1}
        assert_same_history(clean_history, faulted_history)
        assert_same_params(clean.model, faulted.model)

    # Two faults in one epoch restore one snapshot twice.  Adam updates
    # float64 master weights in place, so a restore that handed the
    # snapshot's own arrays to the optimizer would corrupt the second one.
    @pytest.mark.parametrize("dtype,overrides", [
        ("float64", {}),
        ("float32", {"master_weights": True}),
        ("float64", {"optimizer": "sgd"}),
    ], ids=["adam", "adam-master-float32", "sgd"])
    def test_repeated_faults_within_budget_still_recover(self, tiny_dataset, dtype, overrides):
        cfg = dist_config(max_epoch_retries=2, **overrides)
        with precision(dtype):
            clean = DistributedTrainer(make_model(dtype), tiny_dataset, config=cfg)
            clean_history = clean.train()

            faulted = DistributedTrainer(make_model(dtype), tiny_dataset, config=cfg)
            plan = FaultPlan(seed=2)
            # Both faults land in epoch 2 (calls 3 and 5): the first rollback's
            # re-run is hit again and a second rollback still converges.
            plan.fail("comm.allreduce", at=(3, 5), message="rank lost")
            with plan:
                faulted_history = faulted.train()
        assert faulted.epoch_recoveries == 2
        assert_same_history(clean_history, faulted_history)
        assert_same_params(clean.model, faulted.model)

    def test_exhausted_retries_reraise(self, tiny_dataset):
        trainer = DistributedTrainer(make_model(), tiny_dataset,
                                     config=dist_config(max_epoch_retries=1))
        plan = FaultPlan(seed=0)
        plan.fail("comm.allreduce", p=1.0, message="network gone")
        with plan:
            with pytest.raises(FaultInjected, match="network gone"):
                trainer.train()
        assert trainer.epoch_recoveries == 1  # one rollback was attempted

    def test_comm_stats_match_after_recovery(self, tiny_dataset):
        # The recovery boundary rewinds communicator counters, so the
        # history's comm telemetry cannot double-count the rolled-back epoch.
        cfg = dist_config()
        clean = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        clean.train()
        faulted = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        plan = FaultPlan(seed=3)
        plan.fail("comm.allreduce", at=(3,), message="rank lost")
        with plan:
            faulted.train()
        assert faulted.communicator.total_bytes == clean.communicator.total_bytes
        assert faulted.communicator.num_collectives == clean.communicator.num_collectives

    def test_rollback_touches_no_disk(self, tiny_dataset, monkeypatch):
        cfg = dist_config()
        clean = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        clean.train()

        def no_disk(*args, **kwargs):
            raise AssertionError("epoch rollback must stay in memory")

        monkeypatch.setattr(tempfile, "TemporaryDirectory", no_disk)
        monkeypatch.setattr(np, "savez_compressed", no_disk)
        faulted = DistributedTrainer(make_model(), tiny_dataset, config=cfg)
        plan = FaultPlan(seed=5)
        plan.fail("comm.allreduce", at=(3,), message="rank lost")
        with plan:
            faulted.train()
        assert faulted.epoch_recoveries == 1
        assert_same_params(clean.model, faulted.model)


class TestSerialTrainerRecovery:
    def test_epoch_level_fault_recovers_bit_identically(self, tiny_dataset):
        cfg = TrainerConfig(epochs=2, batch_size=1, gamma=0.0, steps_per_epoch=2,
                            learning_rate=1e-2, max_epoch_retries=2)
        clean = Trainer(make_model(), tiny_dataset, config=cfg)
        clean_history = clean.train()

        faulted = Trainer(make_model(), tiny_dataset, config=cfg)
        plan = FaultPlan(seed=4)
        plan.fail("training.epoch", at=(2,), message="spot instance reclaimed")
        with plan:
            faulted_history = faulted.train()
        assert faulted.epoch_recoveries == 1
        assert_same_history(clean_history, faulted_history)
        assert_same_params(clean.model, faulted.model)

    def test_recovery_disabled_propagates_fault(self, tiny_dataset):
        cfg = TrainerConfig(epochs=2, batch_size=1, gamma=0.0, steps_per_epoch=2,
                            learning_rate=1e-2, max_epoch_retries=0)
        trainer = Trainer(make_model(), tiny_dataset, config=cfg)
        plan = FaultPlan(seed=0)
        plan.fail("training.epoch", at=(1,), message="spot instance reclaimed")
        with plan:
            with pytest.raises(FaultInjected):
                trainer.train()
        assert trainer.epoch_recoveries == 0


#: Trainer config of the crash-mid-write case, shared with its subprocess.
CRASH_CONFIG = dict(epochs=1, batch_size=1, gamma=0.0, steps_per_epoch=1)

#: Saves one trainer's checkpoint to ``argv[1]`` forever, printing a line per
#: completed save.  The dataset matches the ``tiny_dataset`` fixture.
SAVE_LOOP = f"""
import sys
from repro.backend import precision
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.data import SuperResolutionDataset
from repro.simulation import synthetic_convection
from repro.training import Trainer, TrainerConfig

dataset = SuperResolutionDataset(
    synthetic_convection(nt=16, nz=16, nx=64, seed=3), lr_factors=(2, 2, 4),
    crop_shape_lr=(4, 4, 8), n_points=32, samples_per_epoch=8, seed=0)
with precision("float64"):
    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(seed=3, unet_norm="group"))
trainer = Trainer(model, dataset, config=TrainerConfig(**{CRASH_CONFIG!r}))
trainer.train_step(0, 0)
while True:
    trainer.save(sys.argv[1])
    print("saved", flush=True)
"""


class TestCrashMidCheckpointWrite:
    def test_sigkill_during_save_leaves_a_resumable_checkpoint(self, tmp_path, tiny_dataset):
        path = tmp_path / "loop.npz"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-c", SAVE_LOOP, str(path)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            done = []  # arrival times of the first completed saves
            while len(done) < 4:
                if not proc.stdout.readline():
                    pytest.fail(f"save loop exited early: {proc.stderr.read()}")
                done.append(time.perf_counter())
            # Aim the kill half-way into a later save, inside its write.
            time.sleep((done[-1] - done[1]) / 4)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL

        cfg = TrainerConfig(**CRASH_CONFIG)
        reference = Trainer(make_model(), tiny_dataset, config=cfg)
        reference.train_step(0, 0)
        resumed = Trainer(make_model(seed=9), tiny_dataset, config=cfg)
        resumed.resume(path)
        assert_same_params(reference.model, resumed.model)


class TestCommunicatorFaultSites:
    def test_send_recv_roundtrip_and_mailboxes(self):
        from repro.distributed.comm import SimulatedCommunicator

        comm = SimulatedCommunicator(2)
        message = np.arange(6, dtype=np.float64)
        comm.send(message, src=0, dst=1, tag=7)
        received = comm.recv(src=0, dst=1, tag=7)
        assert np.array_equal(received, message)
        with pytest.raises(RuntimeError, match="no matching send"):
            comm.recv(src=0, dst=1, tag=7)

    def test_send_site_fires_before_counters_advance(self):
        from repro.distributed.comm import SimulatedCommunicator

        comm = SimulatedCommunicator(2)
        plan = FaultPlan(seed=0)
        plan.fail("comm.send", at=(1,), message="link down")
        with plan:
            with pytest.raises(FaultInjected):
                comm.send(np.zeros(4), src=0, dst=1)
        # The injected fault left the communicator statistics untouched.
        assert comm.total_bytes == 0
        assert comm.num_collectives == 0

    def test_collective_sites_cover_the_catalogue(self):
        from repro.distributed.comm import SimulatedCommunicator

        comm = SimulatedCommunicator(2)
        plan = FaultPlan(seed=0)
        plan.fail("comm.*", every=1, message="partition")
        with plan:
            with pytest.raises(FaultInjected):
                comm.allreduce(np.zeros(4))
            with pytest.raises(FaultInjected):
                comm.broadcast(np.zeros(4), root=0)
            with pytest.raises(FaultInjected):
                comm.barrier()
        assert sorted(plan.counts()) == ["comm.allreduce", "comm.barrier",
                                         "comm.broadcast"]
