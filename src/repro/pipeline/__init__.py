"""Config-driven experiment pipeline: a resumable DAG with content-addressed artifacts.

The subsystem that turns "regenerate every table and figure of the paper"
into one cache-aware command::

    python -m repro.pipeline run --config pipeline.toml

Layers (each its own module):

* :mod:`~repro.pipeline.fingerprint` — canonical hashing: stage config +
  code token + upstream artifact hashes → the artifact key,
* :mod:`~repro.pipeline.artifacts` — the content-addressed
  :class:`ArtifactStore` (atomic writes, digest-verified loads, scratch
  directories for resumable training),
* :mod:`~repro.pipeline.stage` / :mod:`~repro.pipeline.graph` — typed
  :class:`Stage` nodes, the :class:`Pipeline` DAG and its parallel,
  cache-aware executor :func:`run_pipeline`,
* :mod:`~repro.pipeline.scale` — :class:`ExperimentScale` presets sizing the
  data, the model and the training run of every stage,
* :mod:`~repro.pipeline.config` — ``pipeline.toml`` →
  :class:`PipelineConfig`,
* :mod:`~repro.pipeline.stages` — the registered simulate → train →
  evaluate → render stage bodies and :func:`build_standard_pipeline`,
* :mod:`~repro.pipeline.validation` — pinned-number trackers,
* :mod:`~repro.pipeline.cli` — the ``run | status | ls`` front end.

Re-running an unchanged pipeline is all cache hits; editing one stage's
config re-runs exactly its downstream cone; interrupting a training stage
and re-running resumes bit-identically from its scratch checkpoint.
"""

from .artifacts import ArtifactCorrupted, ArtifactMissing, ArtifactStore
from .config import PipelineConfig, load_pipeline_config
from .fingerprint import fingerprint
from .graph import Pipeline, RunReport, StageResult, run_pipeline
from .scale import SCALES, ExperimentScale, build_dataset, build_model, get_scale, simulate
from .stage import Stage, StageContext
from .stages import build_standard_pipeline
from .validation import available_pins, load_pins, pins_from_reports, validate_reports

__all__ = [
    "ArtifactCorrupted", "ArtifactMissing", "ArtifactStore",
    "PipelineConfig", "load_pipeline_config",
    "ExperimentScale", "SCALES", "get_scale", "simulate", "build_dataset", "build_model",
    "fingerprint",
    "Pipeline", "RunReport", "StageResult", "run_pipeline",
    "Stage", "StageContext",
    "build_standard_pipeline",
    "available_pins", "load_pins", "pins_from_reports", "validate_reports",
]
