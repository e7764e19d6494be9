"""Experiment scales: how big the data, the model and the training run are.

Every stage of the standard pipeline is sized by an :class:`ExperimentScale`,
selected by name in ``pipeline.toml`` (``scale = "tiny"``) and adjusted knob by
knob through ``[pipeline.scale_overrides]``.  Three presets are provided:

* ``tiny``   — synthetic data, seconds per experiment; used by the benchmark
  suite and CI so every experiment runs on a single CPU core.
* ``small``  — real Rayleigh–Bénard solver data at reduced resolution; minutes
  per experiment on a workstation.
* ``paper``  — the paper's nominal sizes (512×128 spatial grid, 400 snapshots,
  3000 samples/epoch, 100 epochs).  Provided for completeness; running it
  requires hours of CPU time (the original work used V100 GPUs).

:func:`simulate`, :func:`build_dataset` and :func:`build_model` turn a scale
into the objects the simulate / train / evaluate stage bodies work on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

from ..core.config import MeshfreeFlowNetConfig
from ..core.model import MeshfreeFlowNet
from ..data.dataset import SuperResolutionDataset
from ..scenarios import get_scenario
from ..simulation import DatasetSpec, SimulationResult, generate_dataset
from ..training import TrainerConfig

__all__ = ["ExperimentScale", "SCALES", "get_scale", "simulate", "build_dataset",
           "build_model"]


@dataclass
class ExperimentScale:
    """Knobs controlling the cost/fidelity of an experiment."""

    name: str = "tiny"
    scenario: str = "rayleigh_benard"          #: ``repro.scenarios`` registry name
    backend: str = "synthetic"                 #: "synthetic" or "solver" (rayleigh_benard only)
    hr_shape: tuple[int, int, int] = (16, 16, 64)   #: (nt, nz, nx) of the HR data
    t_final: float = 8.0
    lr_factors: tuple[int, int, int] = (2, 2, 4)
    crop_shape_lr: tuple[int, int, int] = (4, 4, 8)
    n_points: int = 64
    samples_per_epoch: int = 16
    epochs: int = 4
    batch_size: int = 2
    learning_rate: float = 1e-2
    model_size: str = "tiny"                   #: "tiny", "small" or "paper"
    model_pool_factors: tuple[tuple[int, int, int], ...] = ((1, 2, 2),)
    rayleigh: float = 1e6
    prandtl: float = 1.0
    seed: int = 0

    def with_overrides(self, **overrides) -> "ExperimentScale":
        """A copy with the named fields replaced; unknown names raise ``KeyError``."""
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise KeyError(
                f"unknown ExperimentScale override(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        return replace(self, **overrides)

    def model_config(self, **overrides) -> MeshfreeFlowNetConfig:
        """The ``model_size`` architecture with this scale's pooling, seed and scenario channels."""
        factory = {
            "tiny": MeshfreeFlowNetConfig.tiny,
            "small": MeshfreeFlowNetConfig.small,
            "paper": MeshfreeFlowNetConfig.paper,
        }[self.model_size]
        scenario = {}  # the config defaults already describe the paper's channels
        if self.scenario != "rayleigh_benard":
            scenario = get_scenario(self.scenario).model_overrides()
        return factory(**{"unet_pool_factors": self.model_pool_factors,
                          "seed": self.seed, **scenario, **overrides})

    def trainer_config(self, gamma: float, **overrides) -> TrainerConfig:
        """This scale's training length and batch size at equation-loss weight ``gamma``."""
        base = dict(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            gamma=gamma,
            seed=self.seed,
        )
        base.update(overrides)
        return TrainerConfig(**base)


SCALES: dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(),
    "small": ExperimentScale(
        name="small",
        backend="solver",
        hr_shape=(32, 32, 128),
        t_final=12.0,
        lr_factors=(4, 4, 4),
        crop_shape_lr=(4, 8, 16),
        n_points=256,
        samples_per_epoch=64,
        epochs=20,
        batch_size=2,
        model_size="small",
        model_pool_factors=((1, 2, 2), (2, 2, 2)),
    ),
    "paper": ExperimentScale(
        name="paper",
        backend="solver",
        hr_shape=(400, 128, 512),
        t_final=50.0,
        lr_factors=(4, 8, 8),
        crop_shape_lr=(4, 16, 16),
        n_points=512,
        samples_per_epoch=3000,
        epochs=100,
        batch_size=8,
        model_size="paper",
        model_pool_factors=((1, 2, 2), (1, 2, 2), (2, 2, 2), (2, 2, 2)),
    ),
}


def get_scale(name: str) -> ExperimentScale:
    """The preset :class:`ExperimentScale` called ``name``."""
    try:
        return SCALES[name]
    except KeyError as exc:
        raise KeyError(f"unknown scale '{name}'; available: {sorted(SCALES)}") from exc


def simulate(scale: ExperimentScale, rayleigh: Optional[float] = None,
             seed: Optional[int] = None) -> SimulationResult:
    """Generate one high-resolution dataset at this scale."""
    nt, nz, nx = scale.hr_shape
    if scale.scenario != "rayleigh_benard":
        return get_scenario(scale.scenario).generate(
            nt=nt, nz=nz, nx=nx, t_final=scale.t_final,
            seed=scale.seed if seed is None else int(seed),
        )
    spec = DatasetSpec(
        rayleigh=scale.rayleigh if rayleigh is None else float(rayleigh),
        prandtl=scale.prandtl,
        nt=nt, nz=nz, nx=nx,
        t_final=scale.t_final,
        seed=scale.seed if seed is None else int(seed),
        backend=scale.backend,
    )
    return generate_dataset(spec)


def build_dataset(scale: ExperimentScale,
                  results: Sequence[SimulationResult] | SimulationResult) -> SuperResolutionDataset:
    """Build a :class:`SuperResolutionDataset` over ``results`` for this scale."""
    return SuperResolutionDataset(
        results,
        lr_factors=scale.lr_factors,
        crop_shape_lr=scale.crop_shape_lr,
        n_points=scale.n_points,
        samples_per_epoch=scale.samples_per_epoch,
        seed=scale.seed,
    )


def build_model(scale: ExperimentScale, **config_overrides) -> MeshfreeFlowNet:
    """Instantiate a MeshfreeFlowNet sized for this scale."""
    return MeshfreeFlowNet(scale.model_config(**config_overrides))
