"""Whole-training-step compilation for physics-constrained training.

:class:`CompiledTrainingStep` captures one *entire* micro-batch training
step — forward pass, PDE residual evaluation (including the coordinate
derivatives the equation loss is built from, which the decoder carries
through its forward pass: see :mod:`repro.core.latent_grid`), loss
combination and the parameter VJP — as a single traced program, lowered
once and replayed on every subsequent step.  The eager tape pays
per-primitive Python dispatch for every op of the step, forward and
backward; the compiled step pays it only at trace time.

The traced function returns, in order::

    (total, prediction, equation,
     *per-constraint residual norms,
     *parameter gradients,            # one slot per requires_grad param
     *state-effect values)            # BatchNorm running stats, ...

Everything after the three losses is bookkeeping the wrapper performs
outside the plan: gradients are installed into ``Parameter.grad`` with
exactly the cast-and-accumulate rule of eager
:meth:`~repro.autodiff.Tensor.backward` (first install casts to the
parameter dtype, later installs accumulate with plain ``+``), and each
state effect collected by
:func:`~repro.autodiff.collect_state_updates` during the trace is
re-written to its live buffer after every replay.  Both make a compiled
step **bit-identical** to the eager step it replaces.

Two details differ *mechanically* (not numerically) from eager training:

* The parameter VJP is traced with ``create_graph=True``.  A
  ``create_graph=False`` sweep detaches intermediate gradients, and a
  detached tensor is a new object the tracer has never seen — it would be
  captured as a frozen constant and replays would return stale arrays.
  The computed values are unchanged (detaching only affects graph
  bookkeeping), so equivalence with eager ``backward()`` holds bitwise.
* Per-batch coordinate scales are baked into the trace as Python floats
  (``forward_with_derivatives`` multiplies by ``1 / scale`` scalars), so
  they participate in the plan key via ``CompiledFunction``'s
  ``extra_key`` hook — a batch with different scales re-traces instead of
  replaying a stale program.

Fallback is never silent (see :class:`~repro.compile.api.
CompileFallbackWarning`): a trace failure warns once and serves that key
eagerly forever; a model containing an *active Dropout* layer cannot be
replayed at all (the sampled mask would be frozen into the plan) and
degrades to eager execution with reason ``impure``.  Training-mode
BatchNorm is fine: its running-statistic writes are collected as explicit
program outputs and re-applied after every replay.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import Tensor, grad as _grad, ops as _ops
from ..autodiff.tensor import collect_state_updates, is_tracing
from ..core.losses import LossBreakdown, LossWeights, loss_terms
from .api import CompiledFunction

__all__ = ["CompiledTrainingStep"]


def _active_dropout(module) -> bool:
    """Whether ``module`` contains a Dropout layer that would sample a mask."""
    from .. import nn

    return any(
        isinstance(sub, nn.Dropout) and sub.training and sub.p > 0.0
        for sub in module.modules()
    )


class CompiledTrainingStep:
    """One micro-batch forward + loss + parameter-VJP as a compiled plan.

    Parameters
    ----------
    model:
        The model being trained.  Its parameters are passed to the traced
        program as *inputs* (never folded), so in-place optimizer updates
        flow into replays without a re-trace; rebinding a parameter array
        (``astype``, ``load``) is caught by the per-call module-state guard
        (:meth:`CompiledFunction.check_module_state`) and invalidates every
        cached plan.
    pde_system, weights:
        Forwarded to :func:`repro.core.losses.loss_terms` — the equation
        loss (and with it the derivative-carrying part of the forward pass)
        is active exactly when eager training would activate it.
    loss_scale:
        Optional scalar multiplied into the total loss *before* the VJP,
        mirroring the trainers' gradient-averaging convention (the serial
        trainer scales every micro-batch loss by ``1/world_size``; the
        distributed trainer scales by ``1/accumulate_steps`` only when
        accumulating).  ``None`` differentiates the unscaled total.
    max_plans:
        LRU bound on cached plans (keyed by batch shapes, dtype policy,
        parameter ``requires_grad`` flags and coordinate scales).

    Calling the step with a :class:`~repro.data.dataset.Batch` runs the
    plan (or the eager step, on a fallback), installs ``.grad`` on every
    trainable parameter, applies collected buffer effects and returns a
    :class:`~repro.core.losses.LossBreakdown`.
    """

    def __init__(self, model, pde_system, weights: LossWeights,
                 loss_scale: Optional[float] = None, max_plans: int = 8):
        self.model = model
        self.pde_system = pde_system
        self.weights = weights
        self.loss_scale = None if loss_scale is None else float(loss_scale)
        self._active_scales: Optional[tuple] = None
        #: Constraint names / live effect buffers discovered at trace time
        #: (fixed for a given model + PDE system; re-captured on re-trace).
        self._constraint_names: list[str] = []
        self._effect_targets: list[np.ndarray] = []
        self._fn = CompiledFunction(
            self._step,
            copy_outputs=True,
            max_plans=max_plans,
            module=model,
            extra_key=lambda: self._active_scales,
        )

    # ---------------------------------------------------------- traced step
    def _step(self, lowres: Tensor, coords: Tensor, targets: Tensor, *params):
        """The traced program: loss terms, scaled VJP and state effects.

        ``params`` are the model's live parameters, passed as explicit
        inputs so the tracer registers them (and every value derived from
        them) as replay-time data, not compile-time constants.
        """
        with collect_state_updates() as effects:
            total, lp, le, per_constraint = loss_terms(
                self.model, lowres, coords, targets,
                self.pde_system, self.weights,
                coord_scales=self._active_scales,
            )
        scaled = _ops.mul(total, self.loss_scale) if self.loss_scale is not None else total
        grad_params = [p for p in params if p.requires_grad]
        grads = _grad(scaled, grad_params, create_graph=True, allow_unused=True)
        self._constraint_names = list(per_constraint.keys())
        self._effect_targets = [target for target, _ in effects]
        return (total, lp, le,
                *per_constraint.values(),
                *grads,
                *[value for _, value in effects])

    # ---------------------------------------------------------------- calls
    def __call__(self, batch) -> LossBreakdown:
        """Run one compiled micro-batch step for ``batch``.

        Installs accumulated gradients on the trainable parameters and
        re-applies buffer effects, exactly like the eager
        ``compute_losses(...)`` + ``backward()`` sequence it replaces.
        """
        self._fn.check_module_state()
        dt = self.model.dtype
        scales = batch.coord_scales
        self._active_scales = None if scales is None else tuple(float(s) for s in scales)
        lowres = Tensor(np.asarray(batch.lowres, dtype=dt))
        coords = Tensor(np.asarray(batch.coords, dtype=dt))
        targets = Tensor(np.asarray(batch.targets, dtype=dt))
        inputs = (lowres, coords, targets, *self._fn.params)
        if _active_dropout(self.model) and not is_tracing():
            # The sampled mask must differ per call; a plan would freeze it.
            self._fn._note_fallback(
                "impure", "active Dropout layer: masks cannot be replayed")
            outs = self._fn._eager(inputs)
        else:
            outs = self._fn(*inputs)
        return self._unpack(outs)

    def _unpack(self, outs) -> LossBreakdown:
        """Distribute plan outputs: losses out, gradients and effects in."""
        total, lp, le = outs[0], outs[1], outs[2]
        cursor = 3 + len(self._constraint_names)
        constraints = outs[3:cursor]
        trainable = [p for p in self._fn.params if p.requires_grad]
        grads = outs[cursor:cursor + len(trainable)]
        effects = outs[cursor + len(trainable):]
        for p, g in zip(trainable, grads):
            if g is None:
                continue
            arr = g.data
            if p.grad is None:
                # First install casts to the parameter dtype (eager
                # ``backward()`` leaf rule); accumulation is a plain add.
                p.grad = np.array(arr, dtype=p.data.dtype, copy=True)
            else:
                p.grad = p.grad + arr
        for target, value in zip(self._effect_targets, effects):
            target[...] = value.data
        return LossBreakdown(
            total=float(total.data),
            prediction=float(lp.data),
            equation=float(le.data),
            per_constraint={
                name: float(value.data)
                for name, value in zip(self._constraint_names, constraints)
            },
        )

    # ------------------------------------------------------------ inspection
    def stats(self) -> dict:
        """Plan-cache / fusion statistics of the underlying wrapper."""
        return self._fn.stats()

    @property
    def plans(self):
        return self._fn.plans

    def clear(self) -> None:
        """Invalidate every cached plan."""
        self._fn.clear()
