"""``pipeline.toml`` → validated :class:`PipelineConfig`.

The config front-end is deliberately thin: a TOML document selects the
experiment scale (a :data:`repro.pipeline.scale.SCALES` preset plus per-knob
overrides through :meth:`ExperimentScale.with_overrides`), which tables,
figures and ablations to build, trainer knobs threaded to every training
stage (``world_size``, ``compile``, precision), and the validation pins.  A
:class:`PipelineConfig` built in code is the same thing: the selection *is*
the experiment.  Unknown sections and keys raise immediately with the list of
valid names — a typo never silently disables a stage.

Parsing uses stdlib :mod:`tomllib` (the package requires Python ≥ 3.11).
"""

from __future__ import annotations

import tomllib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from ..faults import Retry
from .scale import ExperimentScale, get_scale

__all__ = ["PipelineConfig", "load_pipeline_config", "parse_toml"]


def parse_toml(text: str) -> dict:
    """Parse TOML text (:func:`tomllib.loads`)."""
    return tomllib.loads(text)


def _check_keys(section: str, given: Mapping, allowed: set[str]) -> None:
    """Reject unknown keys with the valid names spelled out."""
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise KeyError(
            f"unknown key(s) {unknown} in [{section}]; valid keys: {sorted(allowed)}"
        )


#: Default experiment selection of the standard pipeline.
_DEFAULT_TABLES = {"table1": True, "table2": False, "table3": False, "table4": False}
_DEFAULT_FIGURES = {"fig2": True, "fig6": False, "fig7": False}
_DEFAULT_ABLATIONS = {"activation": False, "interpolation": False,
                      "capacity": False, "allreduce": False}


@dataclass
class PipelineConfig:
    """Validated pipeline settings (the in-memory form of ``pipeline.toml``)."""

    name: str = "repro"
    scale: str = "tiny"
    scale_overrides: dict = field(default_factory=dict)
    store: str = ".pipeline-store"
    jobs: int = 2
    tables: dict = field(default_factory=lambda: dict(_DEFAULT_TABLES))
    figures: dict = field(default_factory=lambda: dict(_DEFAULT_FIGURES))
    ablations: dict = field(default_factory=lambda: dict(_DEFAULT_ABLATIONS))
    table1_gammas: tuple = (0.0, 0.0125, 0.1, 1.0)
    table3_dataset_counts: tuple = (1, 3)
    table4_train_rayleigh: tuple = (2e5, 1e6, 9e6)
    table4_test_rayleigh: tuple = (1e4, 1e5, 5e6)
    fig7_world_sizes: tuple = (1, 2, 16, 128)
    fig7_curve_world_sizes: tuple = (1, 2)
    ablation_activations: tuple = ("softplus", "relu")
    ablation_latent_channels: tuple = (2, 6)
    gamma_star: float = 0.0125
    train_overrides: dict = field(default_factory=dict)
    retry: dict = field(default_factory=dict)
    validate_table1: bool = True
    pins: Optional[str] = None          #: pin-set name or path (None = auto by scale)
    nmae_rtol: float = 0.05             #: relative tolerance on pinned 100×NMAE values
    r2_atol: float = 0.05               #: absolute tolerance on pinned R² values

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for name, table in (("tables", self.tables), ("figures", self.figures),
                            ("ablations", self.ablations)):
            defaults = {"tables": _DEFAULT_TABLES, "figures": _DEFAULT_FIGURES,
                        "ablations": _DEFAULT_ABLATIONS}[name]
            _check_keys(f"pipeline.{name}", table, set(defaults))
        self.table1_gammas = tuple(float(g) for g in self.table1_gammas)
        self.table3_dataset_counts = tuple(int(c) for c in self.table3_dataset_counts)
        self.table4_train_rayleigh = tuple(float(r) for r in self.table4_train_rayleigh)
        self.table4_test_rayleigh = tuple(float(r) for r in self.table4_test_rayleigh)
        self.fig7_world_sizes = tuple(int(w) for w in self.fig7_world_sizes)
        self.fig7_curve_world_sizes = tuple(int(w) for w in self.fig7_curve_world_sizes)
        self.ablation_activations = tuple(str(a) for a in self.ablation_activations)
        self.ablation_latent_channels = tuple(int(c) for c in self.ablation_latent_channels)
        _check_keys("pipeline.retry", self.retry,
                    {"max_attempts", "backoff", "multiplier", "max_backoff",
                     "jitter", "seed", "stages"})
        self.retry_policy()  # validate the numeric knobs eagerly

    # ------------------------------------------------------------ resolution
    def resolved_scale(self) -> ExperimentScale:
        """The :class:`ExperimentScale` this config selects."""
        scale = get_scale(self.scale)
        if self.scale_overrides:
            overrides = {
                key: tuple(v) if isinstance(v, list) else v
                for key, v in self.scale_overrides.items()
            }
            scale = scale.with_overrides(**overrides)
        return scale

    def enabled_tables(self) -> list[str]:
        """Names of the enabled table experiments, in paper order."""
        return [name for name in _DEFAULT_TABLES if self.tables.get(name)]

    def enabled_figures(self) -> list[str]:
        """Names of the enabled figure experiments, in paper order."""
        return [name for name in _DEFAULT_FIGURES if self.figures.get(name)]

    def enabled_ablations(self) -> list[str]:
        """Names of the enabled ablation experiments."""
        return [name for name in _DEFAULT_ABLATIONS if self.ablations.get(name)]

    def retry_policy(self):
        """The ``[pipeline.retry]`` section as a :class:`repro.faults.Retry`.

        ``None`` when the section is absent.  The policy is execution
        configuration only — it never enters stage fingerprints, so adding
        or tuning retries leaves every cached artifact valid.
        """
        if not self.retry:
            return None
        knobs = {k: v for k, v in self.retry.items() if k != "stages"}
        casts = {"max_attempts": int, "seed": int, "backoff": float,
                 "multiplier": float, "max_backoff": float, "jitter": float}
        return Retry(**{k: casts[k](v) for k, v in knobs.items()})

    def retry_stage_patterns(self) -> tuple:
        """fnmatch patterns naming the stages the retry policy applies to."""
        patterns = self.retry.get("stages", ["*"])
        if isinstance(patterns, str):
            patterns = [patterns]
        return tuple(str(p) for p in patterns)

    def as_dict(self) -> dict:
        """Plain-dict form (JSON/fingerprint friendly)."""
        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out

    # --------------------------------------------------------------- parsing
    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineConfig":
        """Build from a parsed TOML document (strict unknown-key validation).

        Layout::

            [pipeline]            # name, scale, store, jobs, gamma_star, ...
            [pipeline.scale_overrides]
            [pipeline.tables]     # table1 = true, ...
            [pipeline.figures]
            [pipeline.ablations]
            [pipeline.train]      # TrainerConfig overrides for every stage
            [pipeline.validation] # table1 = true, pins, tolerances
        """
        _check_keys("<root>", data, {"pipeline"})
        body = dict(data.get("pipeline", {}))
        sections = {
            "scale_overrides": dict(body.pop("scale_overrides", {})),
            "tables": body.pop("tables", None),
            "figures": body.pop("figures", None),
            "ablations": body.pop("ablations", None),
            "train": dict(body.pop("train", {})),
            "retry": dict(body.pop("retry", {})),
            "validation": dict(body.pop("validation", {})),
        }
        scalar_keys = {
            "name", "scale", "store", "jobs", "gamma_star",
            "table1_gammas", "table3_dataset_counts",
            "table4_train_rayleigh", "table4_test_rayleigh",
            "fig7_world_sizes", "fig7_curve_world_sizes",
            "ablation_activations", "ablation_latent_channels",
        }
        _check_keys("pipeline", body, scalar_keys)
        validation = sections["validation"]
        _check_keys("pipeline.validation", validation,
                    {"table1", "pins", "nmae_rtol", "r2_atol"})
        kwargs = dict(body)
        kwargs["scale_overrides"] = sections["scale_overrides"]
        for key in ("tables", "figures", "ablations"):
            if sections[key] is not None:
                defaults = {"tables": _DEFAULT_TABLES, "figures": _DEFAULT_FIGURES,
                            "ablations": _DEFAULT_ABLATIONS}[key]
                merged = dict(defaults)
                merged.update(sections[key])
                kwargs[key] = merged
        kwargs["train_overrides"] = sections["train"]
        kwargs["retry"] = sections["retry"]
        if "table1" in validation:
            kwargs["validate_table1"] = bool(validation["table1"])
        if "pins" in validation:
            kwargs["pins"] = validation["pins"]
        for tol in ("nmae_rtol", "r2_atol"):
            if tol in validation:
                kwargs[tol] = float(validation[tol])
        return cls(**kwargs)


def load_pipeline_config(path) -> PipelineConfig:
    """Read and validate a ``pipeline.toml`` file."""
    text = Path(path).read_text()
    return PipelineConfig.from_dict(parse_toml(text))
