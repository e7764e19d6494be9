"""Scalable data-parallel training over the ``repro.distributed`` primitives.

:class:`DistributedTrainer` replaces the seed loop's *serial loss-scaling*
simulation of data parallelism with the actual distributed-training
protocol, executed in process:

* **Sharding** — every worker (rank) owns a
  :class:`~repro.distributed.DistributedSampler` shard of the epoch and an
  independent RNG stream that shuffles its local shard order.  The stream
  states and shard cursors are part of the trainer's
  :class:`~repro.training.TrainState` (with the communicator counters),
  which is what makes resumed and rolled-back runs bit-identical.
* **Hierarchical gradient reduction** — ranks are grouped onto simulated
  *nodes* (``config.nodes``, default one node per rank).  A node evaluates
  its ranks' micro-batches in **one fused forward/backward pass** — the
  intra-node reduction, which on real hardware is the free NVLink/shared
  memory half of NCCL's hierarchical all-reduce, and in this in-process
  simulation is where the measured ≥1.5x step-throughput gain over the
  seed's serial micro-batch loop comes from (one large batched graph
  instead of ``world_size`` tiny ones).
* **Bucketed ring all-reduce** — per-node gradients are packed into
  fixed-byte :class:`~repro.distributed.GradientBuckets` (25 MB by
  default, like PyTorch DDP) and each bucket is averaged across nodes with
  the bandwidth-optimal ring collective of
  :mod:`repro.distributed.allreduce`, through a
  :class:`~repro.distributed.SimulatedCommunicator` that accounts bytes
  and collective calls (reported per epoch as ``comm_bytes`` /
  ``collectives`` in the history).
* **Gradient accumulation** — ``config.accumulate_steps`` fused
  micro-batches are accumulated per node before the all-reduce, enlarging
  the effective global batch without enlarging the peak graph.
* **Mixed precision** — with a float32 model (PR 3 precision policy) and
  ``config.master_weights=True``, forward/backward and the all-reduce run
  in float32 while the optimizer applies updates to float64 master
  weights.

The node-fused forward requires batch-independent normalisation (group /
instance norm, the same caveat as real DDP without SyncBatchNorm); with
``nodes == world_size`` every rank is its own node and no fusion occurs.

With ``config.compile=True`` each node's micro-batch runs as one
:class:`~repro.compile.CompiledTrainingStep` plan replay — forward, PDE
residuals, loss and parameter VJP captured together, including the
coordinate derivatives the equation loss is built from — so the
per-primitive Python dispatch the tape engine would pay ``world_size``
times per step is paid zero times after the first trace, and the
replayed gradients entering the all-reduce are bit-identical to the
eager ones.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.dataset import SuperResolutionDataset
from ..distributed import DistributedSampler, GradientBuckets, SimulatedCommunicator
from ..nn.module import Module
from ..optim import clip_grad_norm
from ..pde import PDESystem
from .checkpoint import TrainState
from .trainer import Trainer, TrainerConfig

__all__ = ["DistributedTrainer"]


class DistributedTrainer(Trainer):
    """Data-parallel trainer: sharded sampling + bucketed ring all-reduce.

    Drop-in replacement for :class:`Trainer` (same constructor, ``train``,
    ``save``/``resume`` and evaluation API) whose optimizer step follows
    the distributed protocol described in the module docstring.
    """

    def __init__(self, model: Module, dataset: SuperResolutionDataset,
                 pde_system: Optional[PDESystem] = None,
                 config: Optional[TrainerConfig] = None,
                 val_dataset: Optional[SuperResolutionDataset] = None):
        super().__init__(model, dataset, pde_system=pde_system, config=config,
                         val_dataset=val_dataset)
        cfg = self.config
        self.nodes = cfg.nodes if cfg.nodes is not None else cfg.world_size
        self.ranks_per_node = cfg.world_size // self.nodes
        self.communicator = SimulatedCommunicator(self.nodes, algorithm=cfg.allreduce_algorithm)
        self.buckets = GradientBuckets(self.model.parameters(),
                                       bucket_bytes=int(cfg.bucket_mb * 2**20))
        self._samplers = [
            DistributedSampler(len(dataset), cfg.world_size, rank, shuffle=True, seed=cfg.seed)
            for rank in range(cfg.world_size)
        ]
        # Independent per-worker streams (PCG64 jumps via SeedSequence spawn
        # keys) used to shuffle each rank's local shard order every epoch.
        self._worker_rngs = [
            np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5EED, rank]))
            for rank in range(cfg.world_size)
        ]
        self._cursors: list[tuple[np.ndarray, int]] = [
            (np.empty(0, dtype=np.int64), 0) for _ in range(cfg.world_size)
        ]
        self._sharded_epoch: Optional[int] = None
        #: per-(node, accumulation, rank) sample indices of the last step,
        #: as ``(node, acc, rank, [indices...])`` tuples — inspection hook
        #: for the sharding tests and for debugging data coverage.
        self.last_step_indices: list[tuple[int, int, int, list[int]]] = []
        self._comm_marker = (0, 0)

    def _loss_scale(self):
        """Pre-scale only when accumulating: single micro-batch sweeps run
        unscaled and the all-reduce performs the cross-node average."""
        cfg = self.config
        return 1.0 / cfg.accumulate_steps if cfg.accumulate_steps > 1 else None

    # ---------------------------------------------------------------- sharding
    def _begin_epoch(self, epoch: int) -> None:
        """Re-shard: advance every sampler to ``epoch`` and reshuffle shards."""
        for rank, sampler in enumerate(self._samplers):
            sampler.set_epoch(epoch)
            shard = np.asarray(sampler.indices(), dtype=np.int64)
            order = self._worker_rngs[rank].permutation(shard)
            self._cursors[rank] = (order, 0)
        self._sharded_epoch = int(epoch)

    def _steps_per_epoch(self) -> int:
        """Default step count for one pass over the data at the *effective*
        global batch — ``batch_size * world_size * accumulate_steps`` samples
        per optimizer step."""
        cfg = self.config
        if cfg.steps_per_epoch is not None:
            return max(1, int(cfg.steps_per_epoch))
        global_batch = cfg.batch_size * cfg.world_size * cfg.accumulate_steps
        return max(1, len(self.dataset) // global_batch)

    def _draw_indices(self, rank: int, count: int) -> list[int]:
        """Next ``count`` sample indices from ``rank``'s shuffled shard.

        When a shard is exhausted mid-epoch (more steps than the shard can
        feed) the worker's RNG stream draws a fresh local permutation —
        the stream therefore advances a data-dependent number of times,
        which is exactly why checkpoints must capture it.
        """
        order, pos = self._cursors[rank]
        out: list[int] = []
        while len(out) < count:
            if pos >= len(order):
                order = self._worker_rngs[rank].permutation(order)
                pos = 0
            take = min(count - len(out), len(order) - pos)
            out.extend(int(i) for i in order[pos:pos + take])
            pos += take
        self._cursors[rank] = (order, pos)
        return out

    # ---------------------------------------------------------------- stepping
    def synchronize_gradients(self, step_index: int, epoch: int) -> dict:
        """Compute and install the all-reduce-averaged gradients for one step.

        Runs the per-node fused forward/backward passes (with gradient
        accumulation), packs each node's gradients into buckets, averages
        every bucket across nodes with the configured collective and
        scatters the reduced buckets back onto the model parameters'
        ``.grad`` fields.  Returns the step's loss record.  Exposed
        separately from :meth:`train_step` so tests can compare the
        installed gradients against the serial micro-batch average.
        """
        cfg = self.config
        if self._sharded_epoch != epoch:
            self._begin_epoch(epoch)  # direct step call without train()'s epoch hook
        params = self.model.parameters()
        losses, pred_losses, eq_losses = [], [], []
        self.last_step_indices = []
        node_buckets: list[list[np.ndarray]] = []
        used = [False] * len(params)
        for node in range(self.nodes):
            self.model.zero_grad()
            for acc in range(cfg.accumulate_steps):
                indices: list[int] = []
                for local in range(self.ranks_per_node):
                    rank = node * self.ranks_per_node + local
                    drawn = self._draw_indices(rank, cfg.batch_size)
                    self.last_step_indices.append((node, acc, rank, drawn))
                    indices.extend(drawn)
                breakdown = self._micro_step(self.dataset.sample_batch(indices, epoch=epoch))
                losses.append(breakdown.total)
                pred_losses.append(breakdown.prediction)
                eq_losses.append(breakdown.equation)
            for i, p in enumerate(params):
                used[i] = used[i] or p.grad is not None
            node_buckets.append(self.buckets.flatten([p.grad for p in params]))
        reduced = [
            self.communicator.allreduce(
                [node_buckets[node][b] for node in range(self.nodes)], average=True,
            )[0]
            for b in range(self.buckets.num_buckets)
        ]
        self.buckets.assign(params, reduced)
        # A parameter no node touched keeps grad=None (the optimizer skips it,
        # exactly like the serial loop) instead of receiving all-reduced zeros
        # that weight decay / momentum would act on.
        for i, p in enumerate(params):
            if not used[i]:
                p.grad = None
        return {
            "loss": float(np.mean(losses)),
            "prediction_loss": float(np.mean(pred_losses)),
            "equation_loss": float(np.mean(eq_losses)),
        }

    def train_step(self, step_index: int, epoch: int) -> dict:
        """One synchronous data-parallel step: fused passes, all-reduce, update."""
        record = self.synchronize_gradients(step_index, epoch)
        if self.config.grad_clip is not None:
            clip_grad_norm(self.model.parameters(), self.config.grad_clip)
        self.optimizer.step()
        return record

    def _epoch_extras(self) -> dict:
        """Per-epoch communication telemetry (bytes moved, collectives issued)."""
        bytes_now, calls_now = self.communicator.total_bytes, self.communicator.num_collectives
        bytes_prev, calls_prev = self._comm_marker
        self._comm_marker = (bytes_now, calls_now)
        return {
            "comm_bytes": int(bytes_now - bytes_prev),
            "collectives": int(calls_now - calls_prev),
            "nodes": self.nodes,
        }

    # ------------------------------------------------------------------ state
    def snapshot(self) -> TrainState:
        """The base snapshot plus worker streams, shard cursors and comm counters.

        Capturing the cursors (each rank's current shuffled shard order and
        position within it) and the epoch they were drawn for, as well as
        the bit-generator states, makes even *mid-epoch* snapshots — e.g.
        after direct :meth:`train_step` calls — continue bit-identically.
        The communicator counters feed the history's per-epoch
        ``comm_bytes`` / ``collectives``, so a rollback rewinds them too.
        """
        state = super().snapshot()
        state.rng = {
            "sharded_epoch": self._sharded_epoch,
            "workers": [
                {"stream": g.bit_generator.state,
                 "order": [int(i) for i in order], "pos": int(pos)}
                for g, (order, pos) in zip(self._worker_rngs, self._cursors)
            ],
        }
        comm = self.communicator
        state.comm = (comm.total_bytes, comm.num_collectives, self._comm_marker)
        return state

    def restore(self, state: TrainState) -> None:
        """Apply the base state, then the worker streams and shard cursors.

        A dtype change rebuilds the bucket layout (the wire dtype follows
        the model).  A checkpoint carries no comm counters: they are
        rewound only by an in-memory snapshot.
        """
        super().restore(state)
        if self.buckets.dtype != self.model.dtype:
            self.buckets = GradientBuckets(self.model.parameters(),
                                           bucket_bytes=int(self.config.bucket_mb * 2**20))
        if state.rng:
            self._sharded_epoch = state.rng["sharded_epoch"]
            for rank, (g, worker) in enumerate(zip(self._worker_rngs, state.rng["workers"])):
                g.bit_generator.state = worker["stream"]
                self._cursors[rank] = (np.array(worker["order"], dtype=np.int64),
                                       int(worker["pos"]))
        if state.comm is not None:
            comm = self.communicator
            comm.total_bytes, comm.num_collectives, self._comm_marker = state.comm
