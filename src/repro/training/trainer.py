"""Training loop for MeshfreeFlowNet and the learned baselines.

Implements the training pipeline of Fig. 3: draw low-resolution crops and
random query points from the dataset, evaluate the prediction and equation
losses, backpropagate and update with Adam.  :class:`Trainer` is the
single-process reference loop (synchronous data-parallel training is
*simulated* by averaging gradients over ``world_size`` per-worker
micro-batches before each update); the genuinely sharded, ring-allreduce
based subsystem lives in :class:`repro.training.DistributedTrainer`.

Both trainers keep their state in one place: :meth:`Trainer.snapshot`
deep-copies model, optimizer (including mixed-precision master weights),
scheduler, epoch counter, history, dtype policy and config — plus, in the
data-parallel trainer, the per-worker RNG streams and shard cursors — into
a :class:`~repro.training.TrainState`, and :meth:`Trainer.restore` applies
one.  Checkpoints (:meth:`Trainer.save` / :meth:`Trainer.resume`) and
epoch rollback are both built on that pair, so a resumed or rolled-back
run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import copy
import json
import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ..autodiff import Tensor, no_grad
from ..faults import plan as _faults
from ..core.losses import LossBreakdown, LossWeights, compute_losses
from ..data.dataset import Batch, SuperResolutionDataset
from ..metrics.report import MetricReport
from ..nn.module import Module
from ..obs.trace import span as _span
from ..optim import Adam, LRScheduler, Optimizer, SGD, build_scheduler, clip_grad_norm
from ..optim.schedulers import SCHEDULERS
from ..pde import PDESystem
from .checkpoint import CHECKPOINT_FORMAT, TrainState
from .evaluation import eval_mode, evaluate_model
from .history import TrainingHistory

__all__ = ["TrainerConfig", "Trainer"]

logger = logging.getLogger("repro.training")

#: Config fields that may differ across a restore: they decide how long
#: and how (compiled or eager, with how many rollbacks) a run continues,
#: never its numerics.
_RUNTIME_KNOBS = ("epochs", "verbose", "compile", "max_epoch_retries")


def _as_json(value):
    """``value`` as it reads back from JSON (lists for tuples, string keys)."""
    return json.loads(json.dumps(value))


@dataclass
class TrainerConfig:
    """Hyper-parameters of the optimisation loop."""

    epochs: int = 10
    batch_size: int = 2
    learning_rate: float = 1e-2          #: the paper uses Adam with lr = 1e-2
    optimizer: str = "adam"
    weight_decay: float = 0.0
    momentum: float = 0.9                 #: SGD momentum (ignored by Adam)
    scheduler: Optional[str] = None       #: LR schedule name (see ``optim.SCHEDULERS``)
    scheduler_kwargs: dict = field(default_factory=dict)
    master_weights: bool = False          #: float64 master copies in the optimizer
    gamma: float = 0.0125                 #: equation-loss weight γ (γ* in the paper)
    loss_norm: str = "l1"
    grad_clip: Optional[float] = None
    world_size: int = 1                   #: number of data-parallel workers
    nodes: Optional[int] = None           #: DistributedTrainer: simulated nodes (default: one per worker)
    accumulate_steps: int = 1             #: DistributedTrainer: micro-batches accumulated per step
    bucket_mb: float = 25.0               #: DistributedTrainer: all-reduce bucket capacity (MB)
    allreduce_algorithm: str = "ring"     #: DistributedTrainer: "ring" (bandwidth-optimal) or "naive"
    steps_per_epoch: Optional[int] = None #: defaults to len(dataset) / global batch
    compile: bool = False                 #: fused compiled training step (repro.compile)
    scenario: Optional[str] = None        #: resolve the PDE system from ``repro.scenarios``
    max_epoch_retries: int = 0            #: epoch rollback-and-rerun attempts before re-raising (0: no rollback)
    seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.world_size < 1:
            raise ValueError("epochs, batch_size and world_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            known = ", ".join(sorted(SCHEDULERS))
            raise ValueError(f"unknown scheduler '{self.scheduler}' (expected one of: {known})")
        if self.accumulate_steps < 1:
            raise ValueError("accumulate_steps must be >= 1")
        if self.bucket_mb <= 0:
            raise ValueError("bucket_mb must be positive")
        if self.allreduce_algorithm not in ("ring", "naive"):
            raise ValueError("allreduce_algorithm must be 'ring' or 'naive'")
        if self.max_epoch_retries < 0:
            raise ValueError("max_epoch_retries must be >= 0")
        if self.nodes is not None:
            if self.nodes < 1:
                raise ValueError("nodes must be >= 1")
            if self.world_size % self.nodes != 0:
                raise ValueError(
                    f"world_size {self.world_size} must be divisible by nodes {self.nodes}"
                )


class Trainer:
    """Trains a model with the combined prediction + equation loss."""

    def __init__(self, model: Module, dataset: SuperResolutionDataset,
                 pde_system: Optional[PDESystem] = None,
                 config: Optional[TrainerConfig] = None,
                 val_dataset: Optional[SuperResolutionDataset] = None):
        self.model = model
        self.dataset = dataset
        self.val_dataset = val_dataset
        self.config = config if config is not None else TrainerConfig()
        if pde_system is None and self.config.scenario is not None:
            from ..scenarios import get_scenario  # lazy: avoids an import cycle

            scenario = get_scenario(self.config.scenario)
            model_fields = getattr(getattr(model, "config", None), "field_names", None)
            if model_fields is not None and tuple(model_fields) != scenario.fields:
                raise ValueError(
                    f"model field_names {tuple(model_fields)} do not match scenario "
                    f"'{scenario.name}' fields {scenario.fields}; build the model from "
                    f"scenario.model_config() or pass pde_system explicitly"
                )
            pde_system = scenario.make_pde_system()
        self.pde_system = pde_system
        self.weights = LossWeights(gamma=self.config.gamma, norm=self.config.loss_norm)
        self.optimizer = self._build_optimizer()
        self.scheduler = self._build_scheduler()
        self.history = TrainingHistory()
        self._epoch = 0
        #: Epoch rollback-and-rerun events (``config.max_epoch_retries``)
        #: performed over this trainer's life.
        self.epoch_recoveries = 0
        self._compiled_step = None
        if self.config.compile:
            # The training loop itself runs as one compiled program per
            # micro-batch: forward, PDE residuals (including the coordinate
            # derivatives the decoder carries forward for the equation loss),
            # loss and parameter VJP are traced together and replayed bit-identically
            # to the eager step.  It is the only compiled object a trainer
            # owns: validation runs the eager model under ``no_grad`` and
            # evaluation builds its own ``InferenceEngine``.  The step never
            # degrades silently — a fallback warns once per reason
            # (:class:`repro.compile.CompileFallbackWarning`) and is
            # counted in the ``compile.fallbacks`` metric.
            from ..compile import CompiledTrainingStep  # lazy: keeps import light

            self._compiled_step = CompiledTrainingStep(
                self.model, self.pde_system, self.weights,
                loss_scale=self._loss_scale(),
            )

    def _build_optimizer(self) -> Optimizer:
        cfg = self.config
        params = self.model.parameters()
        master = np.float64 if cfg.master_weights else None
        if cfg.optimizer == "adam":
            return Adam(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay,
                        master_dtype=master)
        return SGD(params, lr=cfg.learning_rate, momentum=cfg.momentum,
                   weight_decay=cfg.weight_decay, master_dtype=master)

    def _build_scheduler(self) -> Optional[LRScheduler]:
        cfg = self.config
        if cfg.scheduler is None:
            return None
        return build_scheduler(cfg.scheduler, self.optimizer, **cfg.scheduler_kwargs)

    # ---------------------------------------------------------------- batches
    def _steps_per_epoch(self) -> int:
        if self.config.steps_per_epoch is not None:
            return max(1, int(self.config.steps_per_epoch))
        global_batch = self.config.batch_size * self.config.world_size
        return max(1, len(self.dataset) // global_batch)

    def _loss_scale(self) -> Optional[float]:
        """Loss pre-scaling of one micro-batch backward: ``1/world_size``, so
        the accumulated gradient is the average over workers."""
        return 1.0 / self.config.world_size

    def _loss_for_batch(self, batch: Batch):
        """Combined loss of one micro-batch, cast to the model's precision.

        Batch arrays are cast to the model dtype (a no-op under the default
        float64 policy).  Query coordinates never carry ``requires_grad``:
        the equation loss's coordinate derivatives ride the forward pass.
        """
        dt = self.model.dtype
        lowres = Tensor(np.asarray(batch.lowres, dtype=dt))
        coords = Tensor(np.asarray(batch.coords, dtype=dt))
        targets = Tensor(np.asarray(batch.targets, dtype=dt))
        return compute_losses(
            self.model, lowres, coords, targets,
            self.pde_system, self.weights, coord_scales=batch.coord_scales,
        )

    def _micro_step(self, batch: Batch) -> LossBreakdown:
        """Loss and backward of one micro-batch, its gradients added to ``.grad``.

        Compiled, one plan replay: loss, scaled VJP and buffer effects in a
        single fused program, bit-identical to the eager sequence.  Eager,
        the loss is scaled by :meth:`_loss_scale` (``None``: not at all) and
        backpropagated, inside ``train.forward`` / ``train.backward`` trace
        spans.  ``Tensor.backward`` frees the graph as it sweeps: each
        activation dies once the rule of its last consumer has run and
        each intermediate gradient once its own rule has, so when this
        call returns only the parameter gradients are left, before the
        next micro-batch's forward allocates its own graph.
        """
        if self._compiled_step is not None:
            return self._compiled_step(batch)
        with _span("train.forward"):
            total, breakdown = self._loss_for_batch(batch)
            scale = self._loss_scale()
            if scale is not None:
                total = total * scale
        with _span("train.backward"):
            total.backward()
        return breakdown

    def train_step(self, step_index: int, epoch: int) -> dict:
        """One synchronous optimizer step over ``world_size`` micro-batches."""
        cfg = self.config
        self.optimizer.zero_grad()
        losses, pred_losses, eq_losses = [], [], []
        global_batch = cfg.batch_size * cfg.world_size
        base = step_index * global_batch
        for rank in range(cfg.world_size):
            indices = [base + rank * cfg.batch_size + i for i in range(cfg.batch_size)]
            breakdown = self._micro_step(self.dataset.sample_batch(indices, epoch=epoch))
            losses.append(breakdown.total)
            pred_losses.append(breakdown.prediction)
            eq_losses.append(breakdown.equation)
        if cfg.grad_clip is not None:
            clip_grad_norm(self.model.parameters(), cfg.grad_clip)
        self.optimizer.step()
        return {
            "loss": float(np.mean(losses)),
            "prediction_loss": float(np.mean(pred_losses)),
            "equation_loss": float(np.mean(eq_losses)),
        }

    # ------------------------------------------------------------------ hooks
    def _begin_epoch(self, epoch: int) -> None:
        """Per-epoch setup hook (sampler re-sharding in the distributed trainer)."""

    def _epoch_extras(self) -> dict:
        """Extra per-epoch history fields (communication telemetry, ...)."""
        return {}

    def _emit_metrics(self, record: dict) -> None:
        """Publish one epoch's record into the observability metrics plane.

        Guarded on the process-wide obs switch so the training loop pays a
        single attribute check per epoch when observability is off.  Loss
        and learning rate land as gauges (most-recent value), step time as
        a ``training.step_seconds`` histogram observation, and the
        communication telemetry of the distributed trainer as counters.
        """
        from ..obs import runtime as _obs

        if not _obs.enabled:
            return
        from ..obs.metrics import REGISTRY

        REGISTRY.gauge("training.epoch").set(record["epoch"])
        REGISTRY.gauge("training.loss").set(record["loss"])
        REGISTRY.gauge("training.prediction_loss").set(record["prediction_loss"])
        REGISTRY.gauge("training.equation_loss").set(record["equation_loss"])
        REGISTRY.gauge("training.lr").set(record["lr"])
        if "val_loss" in record:
            REGISTRY.gauge("training.val_loss").set(record["val_loss"])
        REGISTRY.counter("training.steps").inc(record["steps"])
        steps = max(int(record["steps"]), 1)
        REGISTRY.histogram("training.step_seconds").observe(
            record["wall_time"] / steps)
        REGISTRY.histogram("training.epoch_seconds").observe(record["wall_time"])
        if "comm_bytes" in record:
            REGISTRY.counter("training.comm_bytes").inc(record["comm_bytes"])
        if "collectives" in record:
            REGISTRY.counter("training.collectives").inc(record["collectives"])
        if "nodes" in record:
            REGISTRY.gauge("training.nodes").set(record["nodes"])

    # ------------------------------------------------------------------ train
    def _run_epoch(self, epoch: int, steps: int) -> dict:
        """One full epoch: sharding setup, optimizer steps, history record."""
        cfg = self.config
        self._begin_epoch(epoch)
        t0 = time.perf_counter()
        step_records = [self.train_step(s, epoch) for s in range(steps)]
        elapsed = time.perf_counter() - t0
        record = {
            "epoch": epoch,
            "loss": float(np.mean([r["loss"] for r in step_records])),
            "prediction_loss": float(np.mean([r["prediction_loss"] for r in step_records])),
            "equation_loss": float(np.mean([r["equation_loss"] for r in step_records])),
            "lr": self.optimizer.lr,
            "steps": steps,
            "world_size": cfg.world_size,
            "wall_time": elapsed,
        }
        record.update(self._epoch_extras())
        if self.val_dataset is not None:
            record["val_loss"] = self.validation_loss()
        return record

    def train(self, epochs: Optional[int] = None) -> TrainingHistory:
        """Run the training loop; returns (and stores) the per-epoch history.

        When ``config.scheduler`` is set, the scheduler is stepped once at
        the end of every epoch; the ``lr`` recorded for an epoch is the rate
        that was actually used during that epoch.

        With ``config.max_epoch_retries > 0`` every epoch can be rolled
        back: the trainer takes an in-memory :meth:`snapshot` at the epoch
        start, and after a fault escaping the epoch (a crashed rank, a
        failed collective, an injected chaos fault) it :meth:`restore`-s
        that snapshot and re-runs the epoch.  The re-run replays the exact
        same sampler/RNG state, so a faulted-and-recovered run is
        bit-identical to a fault-free one (pinned by the chaos suite).  An
        epoch failing more than ``max_epoch_retries`` times re-raises.
        """
        cfg = self.config
        n_epochs = cfg.epochs if epochs is None else int(epochs)
        steps = self._steps_per_epoch()
        self.model.train()
        for _ in range(n_epochs):
            epoch = self._epoch
            start = self.snapshot() if cfg.max_epoch_retries else None
            attempt = 0
            while True:
                try:
                    # Injection site "training.epoch": an epoch-level fault,
                    # as opposed to faults surfacing from the communicator's
                    # comm.* sites inside the steps.
                    if _faults.ACTIVE is not None:
                        _faults.ACTIVE.fire("training.epoch")
                    record = self._run_epoch(epoch, steps)
                    break
                except Exception as exc:
                    attempt += 1
                    if attempt > cfg.max_epoch_retries:
                        raise
                    self._roll_back(start, exc, epoch, attempt)
            self.history.append(**record)
            self._emit_metrics(record)
            self._epoch += 1
            if self.scheduler is not None:
                self.scheduler.step()
            if cfg.verbose:
                print(f"[epoch {epoch:3d}] loss={record['loss']:.5f} "
                      f"(pred={record['prediction_loss']:.5f}, "
                      f"eq={record['equation_loss']:.5f})")
        return self.history

    def _roll_back(self, start: TrainState, exc: Exception, epoch: int, attempt: int) -> None:
        """Restore the epoch-start snapshot after a fault so the epoch re-runs."""
        logger.warning(
            "epoch %d failed (%s: %s); rolling back to the epoch snapshot "
            "and re-running (attempt %d/%d)", epoch, type(exc).__name__, exc,
            attempt, self.config.max_epoch_retries)
        self.restore(start)
        self.epoch_recoveries += 1
        from ..obs import runtime as _obs

        if _obs.enabled:
            from ..obs.metrics import REGISTRY

            REGISTRY.counter("training.recoveries").inc()

    # ------------------------------------------------------------------ state
    @property
    def epochs_completed(self) -> int:
        """Number of epochs trained so far (survives checkpoint/resume)."""
        return self._epoch

    def snapshot(self) -> TrainState:
        """Deep copy of everything this run continues from (:class:`TrainState`)."""
        return TrainState(
            model=self.model.state_dict(), optimizer=self.optimizer.state_dict(),
            scheduler=self.scheduler.state_dict() if self.scheduler is not None else {},
            epoch=self._epoch, history=self.history.to_dict(),
            dtype=self.model.dtype.name, config=_as_json(asdict(self.config)),
        )

    def restore(self, state: TrainState) -> None:
        """Continue from ``state`` (a :meth:`snapshot`, or a loaded checkpoint).

        The state is checked before anything changes.  Bit-identical
        continuation is impossible when the optimizer update rule, the LR
        schedule, the data-parallel layout or the sampling recipe differs
        from the run that produced the state, so every config field except
        the :data:`_RUNTIME_KNOBS` must match — a mismatch raises instead
        of silently degrading (e.g. float64 masters being cast down and
        then ignored, or Adam moments sitting unused in SGD state).  States
        from a newer format version are rejected.

        The state's dtype policy wins: a trainer holding a float64 model
        restoring a float32 run casts the model to float32 first (and vice
        versa), so the continued run reproduces the original precision.
        """
        if state.format > CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint format {state.format} is newer than this trainer "
                f"understands (format {CHECKPOINT_FORMAT})"
            )
        current = _as_json(asdict(self.config))
        for key, saved in state.config.items():
            if key in _RUNTIME_KNOBS or key not in current:
                continue
            if saved != current[key]:
                raise ValueError(
                    f"checkpoint was trained with {key}={saved!r}, "
                    f"trainer is configured with {key}={current[key]!r}"
                )
        if state.dtype and self.model.dtype != np.dtype(state.dtype):
            self.model.astype(state.dtype)
        self.model.load_state_dict(state.model)
        if state.optimizer is not None:
            # A copy: the optimizer keeps the arrays it is given and updates
            # master weights in place, which would corrupt a snapshot that
            # is restored a second time.
            self.optimizer.load_state_dict(copy.deepcopy(state.optimizer))
        if self.scheduler is not None and state.scheduler:
            self.scheduler.load_state_dict(state.scheduler)
        self._epoch = state.epoch
        self.history = TrainingHistory.from_dict(state.history)

    def save(self, path, extra_metadata: Optional[dict] = None) -> None:
        """Checkpoint :meth:`snapshot` to ``path`` (an ``.npz``).

        ``extra_metadata`` entries are merged into the checkpoint metadata
        (the experiment pipeline records its artifact fingerprint this way);
        they must not collide with the trainer's own keys.
        """
        self.snapshot().save(path, extra_metadata)

    def resume(self, path) -> dict:
        """:meth:`restore` a :meth:`save` checkpoint in place; returns its metadata."""
        state, metadata = TrainState.load(path)
        self.restore(state)
        return metadata

    # ------------------------------------------------------------- evaluation
    def validation_loss(self, n_batches: int = 2) -> float:
        """Prediction-only loss on the validation dataset (cheap: no tape).

        The model's training/eval mode is saved and restored around the
        evaluation, so calling this on a model already in eval mode no
        longer silently flips it back to training mode.
        """
        assert self.val_dataset is not None
        dt = self.model.dtype
        losses = []
        weights = LossWeights(gamma=0.0, norm=self.config.loss_norm)
        with eval_mode(self.model), no_grad():
            for b in range(n_batches):
                batch = self.val_dataset.sample_batch(
                    list(range(b * self.config.batch_size, (b + 1) * self.config.batch_size)),
                    epoch=10_000 + self._epoch,
                )
                total, _ = compute_losses(
                    self.model,
                    Tensor(np.asarray(batch.lowres, dtype=dt)),
                    Tensor(np.asarray(batch.coords, dtype=dt)),
                    Tensor(np.asarray(batch.targets, dtype=dt)),
                    None, weights, coord_scales=batch.coord_scales,
                )
                losses.append(float(total.data))
        return float(np.mean(losses))

    def evaluate(self, dataset: Optional[SuperResolutionDataset] = None,
                 dataset_index: int = 0, label: str = "",
                 chunk_size: int = 8192) -> MetricReport:
        """Physics-metric evaluation against the high-resolution ground truth.

        Super-resolves the full low-resolution field of ``dataset`` onto the
        high-resolution grid, converts back to physical units and computes the
        NMAE / R² of the nine turbulence metrics (one row of Tables 1–4).
        The model's training/eval mode is saved and restored.  Delegates to
        :func:`repro.training.evaluate_model`.
        """
        dataset = dataset if dataset is not None else self.dataset
        return evaluate_model(self.model, dataset, dataset_index=dataset_index,
                              label=label, chunk_size=chunk_size)

