#!/usr/bin/env python
"""Simulated data-parallel scaling study (Fig. 7 of the paper).

Three parts:

1. **Throughput / efficiency (Fig. 7a)** — the α–β performance model of ring
   all-reduce over NVLink (intra-node) and InfiniBand (inter-node) links,
   evaluated from 1 to 128 workers.
2. **Gradient-synchronisation traffic** — a short ``DistributedTrainer`` run
   (sharded samplers, per-node fused micro-batches, bucketed ring all-reduce
   on the gradients), printing the per-epoch loss and the bytes moved /
   collectives issued that its history records.
3. **Loss vs. epochs / wall time (Fig. 7b-c)** — the ``fig.fig7`` stage of the
   experiment pipeline, selected with a ``PipelineConfig``: synchronous
   data-parallel training simulated by gradient averaging over per-worker
   micro-batches; wall times come from the performance model.
"""

from __future__ import annotations

import argparse

from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.data import SuperResolutionDataset
from repro.distributed import ScalingPerformanceModel
from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline
from repro.simulation import synthetic_convection
from repro.training import DistributedTrainer, TrainerConfig


def part1_throughput(world_sizes) -> None:
    print("=== Fig. 7a — throughput and scaling efficiency (performance model) ===")
    model = ScalingPerformanceModel()
    print(f"model: {model.n_parameters/1e6:.0f}M parameters, "
          f"{model.batch_size_per_worker} samples/worker/step, "
          f"{model.compute_time_per_sample*1e3:.1f} ms compute per sample")
    print(f"{'workers':>8} {'throughput (samples/s)':>24} {'ideal':>12} {'efficiency':>12} {'epoch time (s)':>16}")
    for point in model.evaluate(world_sizes):
        print(f"{point.world_size:8d} {point.throughput:24.1f} "
              f"{model.ideal_throughput(point.world_size):12.1f} "
              f"{point.efficiency:12.4f} {point.epoch_time:16.2f}")
    print()


def part2_gradient_sync(world_size: int = 4, nodes: int = 2, epochs: int = 2) -> None:
    print(f"=== Ring all-reduce gradient synchronisation "
          f"({world_size} simulated ranks on {nodes} nodes) ===")
    dataset = SuperResolutionDataset(
        synthetic_convection(nt=16, nz=16, nx=64, seed=0), lr_factors=(2, 2, 4),
        crop_shape_lr=(4, 4, 8), n_points=64, samples_per_epoch=16, seed=0,
    )
    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny(unet_norm="group"))
    trainer = DistributedTrainer(model, dataset, config=TrainerConfig(
        epochs=epochs, batch_size=1, world_size=world_size, nodes=nodes, gamma=0.0))
    trainer.train()
    for record in trainer.history.records:
        print(f"  epoch {record['epoch']}: loss = {record['loss']:.5f}, "
              f"gradient traffic = {record['comm_bytes'] / 1e3:.1f} kB "
              f"in {record['collectives']} collectives")
    print()


def part3_loss_curves(world_sizes, epochs: int) -> None:
    print("=== Fig. 7b/7c — loss vs epochs and vs modelled wall time ===")
    cfg = PipelineConfig(tables={}, figures={"fig7": True},
                         fig7_world_sizes=world_sizes, fig7_curve_world_sizes=world_sizes,
                         scale_overrides={"epochs": epochs})
    report = run_pipeline(build_standard_pipeline(cfg), store=None, until="fig.fig7")
    out = report.values["fig.fig7"]
    for ws, curve in out["loss_curves"].items():
        losses = ", ".join(f"{l:.4f}" for l in curve["loss"])
        print(f"  {ws:4d} workers: loss per epoch = [{losses}]")
        print(f"              modelled epoch time = {curve['modelled_epoch_time']:.2f}s "
              f"-> total {curve['wall_time'][-1]:.1f}s for {epochs} epochs")
    print(f"\n  scaling efficiency at {max(world_sizes)} workers: {out['efficiency_at_max']:.4f} "
          f"(paper reports 96.80% at 128 GPUs)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--max-workers", type=int, default=128)
    args = parser.parse_args()

    world_sizes = [w for w in (1, 2, 4, 8, 16, 32, 64, 128) if w <= args.max_workers]
    part1_throughput(world_sizes)
    part2_gradient_sync()
    part3_loss_curves([w for w in (1, 2, 8) if w <= args.max_workers], args.epochs)


if __name__ == "__main__":
    main()
