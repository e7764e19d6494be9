"""repro — a from-scratch reproduction of MeshfreeFlowNet (SC 2020).

MeshfreeFlowNet is a physics-constrained deep-learning framework for
continuous (grid-free) space-time super-resolution of PDE solutions, evaluated
on 2D Rayleigh–Bénard convection.  This package re-implements the entire
system in NumPy: the automatic-differentiation engine and neural-network
layers, the MeshfreeFlowNet model itself (3D U-Net encoder + continuously
queried MLP decoder), the PDE constraint layer, the Rayleigh–Bénard data
generator that replaces Dedalus, the turbulence evaluation metrics, the
baselines, a simulated data-parallel distributed-training stack, the tiled
batched inference engine for bounded-memory full-domain super-resolution
(:mod:`repro.inference`), a precision-aware compute backend with a
thread-local float32/float64 policy (:mod:`repro.backend`), a
graph-capture fused executor that traces, fuses and buffer-reuses the
autodiff hot paths (:mod:`repro.compile`), a pluggable scenario registry
bundling PDE systems, data generators, normalization and metrics per physics
family (:mod:`repro.scenarios` — Rayleigh–Bénard plus decaying turbulence,
shallow water and advection–diffusion), and the cached experiment pipeline
that regenerates every table and figure of the paper (:mod:`repro.pipeline`).

Quickstart
----------
>>> from repro import MeshfreeFlowNet, MeshfreeFlowNetConfig
>>> model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny())

See ``examples/quickstart.py`` for an end-to-end train/evaluate loop.
"""

from .backend import precision
from .core import (
    ImNet,
    LossWeights,
    MeshfreeFlowNet,
    MeshfreeFlowNetConfig,
    UNet3d,
    compute_losses,
    equation_loss,
    prediction_loss,
)
from .faults import CircuitBreaker, FaultPlan, Retry
from .inference import InferenceEngine, TiledLatentField
from .pde import PDESystem, RayleighBenard2D, make_pde_system
from .scenarios import Scenario, available_scenarios, get_scenario, register_scenario
from .serving import ModelServer, QueryRequest, QueryResult

__version__ = "0.2.0"

__all__ = [
    "__version__",
    "precision",
    "MeshfreeFlowNet",
    "MeshfreeFlowNetConfig",
    "UNet3d",
    "ImNet",
    "InferenceEngine",
    "TiledLatentField",
    "FaultPlan",
    "Retry",
    "CircuitBreaker",
    "ModelServer",
    "QueryRequest",
    "QueryResult",
    "PDESystem",
    "RayleighBenard2D",
    "make_pde_system",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "prediction_loss",
    "equation_loss",
    "compute_losses",
    "LossWeights",
]
