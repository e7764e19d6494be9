"""Loss functions: Prediction Loss, Equation Loss and their weighted sum (Sec. 4.3).

``L = L_p + γ L_e`` (Eqn. 10) where the prediction loss ``L_p`` (Eqn. 8) is
the L1 norm of the difference between predictions and interpolated
high-resolution ground truth at the sampled query points, and the equation
loss ``L_e`` (Eqn. 9) is the norm of the PDE residuals evaluated from the
model's spatio-temporal derivatives at those points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence


from ..autodiff import Tensor, ops
from ..pde import PDESystem
from .model import MeshfreeFlowNet

__all__ = ["prediction_loss", "equation_loss", "uses_equation_loss", "LossWeights",
           "loss_terms", "compute_losses", "LossBreakdown"]


def uses_equation_loss(pde_system: Optional["PDESystem"], weights: "LossWeights") -> bool:
    """Whether :func:`compute_losses` will evaluate the equation loss."""
    return bool(weights.gamma > 0 and pde_system is not None and pde_system.constraints)


def _norm(residual: Tensor, kind: str) -> Tensor:
    if kind == "l1":
        return ops.mean(ops.abs(residual))
    if kind == "l2":
        return ops.mean(ops.square(residual))
    raise ValueError(f"unknown norm '{kind}' (expected 'l1' or 'l2')")


def prediction_loss(pred: Tensor, target: Tensor, norm: str = "l1") -> Tensor:
    """Prediction loss L_p: mean per-point, per-channel norm of the error."""
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    return _norm(ops.sub(pred, target), norm)


def equation_loss(residuals: Mapping[str, Tensor], norm: str = "l1") -> Tensor:
    """Equation loss L_e: mean norm over all constraint residuals and points."""
    if not residuals:
        return Tensor(0.0)
    total: Tensor | None = None
    for res in residuals.values():
        term = _norm(res, norm)
        total = term if total is None else ops.add(total, term)
    return ops.mul(total, 1.0 / len(residuals))


@dataclass
class LossWeights:
    """Weighting of the combined training loss (γ in Eqn. 10)."""

    gamma: float = 0.0125
    norm: str = "l1"

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.norm not in ("l1", "l2"):
            raise ValueError("norm must be 'l1' or 'l2'")


@dataclass
class LossBreakdown:
    """Scalar loss values recorded during training/evaluation."""

    total: float
    prediction: float
    equation: float
    per_constraint: dict[str, float]


def loss_terms(
    model: MeshfreeFlowNet,
    lowres: Tensor,
    coords: Tensor,
    targets: Tensor,
    pde_system: Optional[PDESystem],
    weights: LossWeights,
    coord_scales: Optional[Sequence[float]] = None,
) -> tuple[Tensor, Tensor, Tensor, dict[str, Tensor]]:
    """Tensor-valued loss terms for a mini-batch of point samples.

    Returns ``(total, prediction, equation, per_constraint)`` where every
    element is a :class:`Tensor` — nothing is converted to Python floats,
    so the whole evaluation stays inside the op layer and can be captured
    by :mod:`repro.compile` as part of a fused training-step program.
    ``per_constraint`` maps constraint names to their mean absolute
    residual.  :func:`compute_losses` wraps this with the scalar
    conversion eager callers want.
    """
    use_equation = uses_equation_loss(pde_system, weights)
    if use_equation:
        pred, values = model.forward_with_derivatives(lowres, coords, pde_system, coord_scales)
        residuals = pde_system.residuals(values)
        le = equation_loss(residuals, norm=weights.norm)
        per_constraint = {k: ops.mean(ops.abs(v)) for k, v in residuals.items()}
    else:
        pred = model(lowres, coords)
        le = Tensor(0.0)
        per_constraint = {}

    lp = prediction_loss(pred, targets, norm=weights.norm)
    if use_equation:
        total = ops.add(lp, ops.mul(le, float(weights.gamma)))
    else:
        total = lp
    return total, lp, le, per_constraint


def compute_losses(
    model: MeshfreeFlowNet,
    lowres: Tensor,
    coords: Tensor,
    targets: Tensor,
    pde_system: Optional[PDESystem],
    weights: LossWeights,
    coord_scales: Optional[Sequence[float]] = None,
) -> tuple[Tensor, LossBreakdown]:
    """Evaluate the combined loss for a mini-batch of point samples.

    Returns the differentiable total loss tensor and a scalar breakdown for
    logging.  When ``weights.gamma == 0`` or ``pde_system`` is ``None`` the
    (expensive) higher-order derivative computation is skipped entirely and
    only the prediction loss is evaluated, matching the γ=0 rows of Table 1.
    """
    total, lp, le, per_constraint = loss_terms(
        model, lowres, coords, targets, pde_system, weights, coord_scales
    )
    breakdown = LossBreakdown(
        total=float(total.data),
        prediction=float(lp.data),
        equation=float(le.data),
        per_constraint={k: float(v.data) for k, v in per_constraint.items()},
    )
    return total, breakdown
