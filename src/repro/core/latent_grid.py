"""Differentiable querying of the Latent Context Grid (Eqn. 6 of the paper).

A query point with normalised space-time coordinates ``x ∈ [0, 1]^3`` falls in
a cell of the latent grid bounded by ``2^3 = 8`` vertices.  The decoder MLP is
evaluated once per bounding vertex with (i) the query coordinate *relative* to
that vertex (in units of the grid spacing) and (ii) that vertex's latent
context vector; the 8 predictions are blended with trilinear interpolation
weights.  Both the relative coordinates and the interpolation weights are
differentiable functions of the query coordinates, so spatio-temporal
derivatives of the blended output — needed by the PDE equation loss — are
exact derivatives of the full interpolated model, not of a single-vertex
approximation.

The eight corners are one axis: every query point contributes eight decoder
rows, corner-major in ``itertools.product((0, 1), repeat=3)`` order (x
fastest), so one vertex gather and **one decoder pass** over ``(N, 8·P)``
rows serve all corners.  Weights and decoder outputs are viewed as
``(N, 8, P, ·)`` and every blended output is one ``sum`` over the corner
axis, started at ``-0.0``; a reduction over a non-innermost axis adds
corners 0..7 in order onto it, the running sum a per-corner loop builds, so
the blend keeps that loop's bits, signed zeros included.

Derivatives ride forward
------------------------

:func:`query_latent_grid_jets` returns those derivatives from the same pass
that computes the value: beside every intermediate ``y`` it carries the
first derivatives ``ẏ_a = ∂y/∂coord_a`` along the requested axes and the
requested second derivatives ``ÿ_ab = ∂²y/∂coord_a∂coord_b`` (a *jet*), each
written in ordinary tape operations.  A loss built on them therefore reaches
the parameters in one first-order backward, and :mod:`repro.compile` traces
it like any other program.  This is the one statement of the recurrences;
:meth:`repro.core.imnet.ImNet.forward_jets` and
:meth:`repro.core.model.MeshfreeFlowNet.forward_with_derivatives` refer here.

*Seed.*  Along axis ``a`` of size ``n_a`` the cell fraction is
``f_a = s_a·coord_a - cell_a`` with ``s_a = max(n_a - 1, 1)``; the cell index
(``floor`` + ``clip``), the nearest-vertex mask and the gathered latent vector
are piecewise constant.  The decoder input of the corner with offsets ``o``,
``x = [f - o, latent]``, thus has ``∂x/∂coord_a = s_a·e_a`` (one-hot) and no
second derivative.

*Through the decoder.*

* first ``Linear``: ``ḣ_a = s_a·W[a, :]`` — a weight row, broadcast over the
  points — and ``ḧ_ab = 0``;
* activation ``σ``: ``ẏ_a = σ'(h)·ḣ_a`` and
  ``ÿ_ab = σ''(h)·ḣ_a·ḣ_b + σ'(h)·ḧ_ab`` (each activation layer of
  :mod:`repro.nn` states its ``σ'`` and ``σ''``);
* later ``Linear``: ``ḣ_a = ẏ_a W``, ``ḧ_ab = ÿ_ab W`` (the bias drops out);
* ``Dropout``: its one sampled mask multiplies value and tangents alike.

*Through the blend.*  ``y = Σ_k w_k Φ_k`` over the corners, with
``w_k = Π_a g_a``, ``g_a ∈ {f_a, 1 - f_a}``, ``ġ_a = ±s_a`` and no curvature
along any single axis, so ``ẇ_{k,a} = ġ_a Π_{c≠a} g_c``,
``ẅ_{k,ab} = ġ_a ġ_b g_c`` for ``a ≠ b`` and ``ẅ_{k,aa} = 0``::

    ẏ_a  = Σ_k ( ẇ_{k,a} Φ_k + w_k Φ̇_{k,a} )
    ÿ_ab = Σ_k ( w_k Φ̈_{k,ab} + ẇ_{k,a} Φ̇_{k,b} + ẇ_{k,b} Φ̇_{k,a} + ẅ_{k,ab} Φ_k )

``interpolation="nearest"`` is the single-corner case with ``w = 1``: the
decoder's jets are the output's.  Everything is in units of the normalised
coordinates; conversion to physical units happens in the model.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, ops
from ..backend import resolve_dtype

__all__ = ["check_grid_shape", "query_latent_grid", "query_latent_grid_jets",
           "regular_grid_coordinates", "trilinear_weights_numpy"]


def sum_tangents(a: Optional[Tensor], b: Optional[Tensor]) -> Optional[Tensor]:
    """``a + b`` where ``None`` stands for an identically zero tensor."""
    if a is None or b is None:
        return b if a is None else a
    return ops.add(a, b)


def query_latent_grid(
    grid: Tensor,
    coords: Tensor,
    decoder: Callable[[Tensor], Tensor],
    interpolation: str = "trilinear",
) -> Tensor:
    """Continuously decode a latent context grid at arbitrary query locations.

    Parameters
    ----------
    grid:
        Latent context grid of shape ``(N, C, n_t, n_z, n_x)``.
    coords:
        Query coordinates of shape ``(N, P, 3)``, normalised to ``[0, 1]`` per
        axis over the extent of the grid (axis order ``t, z, x``).
    decoder:
        Callable mapping ``(..., 3 + C)`` tensors to ``(..., m)`` tensors
        (the ImNet).
    interpolation:
        ``"trilinear"`` (paper, Eqn. 6) or ``"nearest"`` (ablation: decode
        only from the nearest vertex).

    Returns
    -------
    Tensor of shape ``(N, P, m)``.
    """
    return _blend_corners(grid, coords, lambda x, scales: (decoder(x), {}, {}), interpolation)[0]


def query_latent_grid_jets(
    grid: Tensor,
    coords: Tensor,
    decoder,
    axes: Sequence[int] = (),
    pairs: Sequence[tuple[int, int]] = (),
    interpolation: str = "trilinear",
) -> tuple[Tensor, dict[int, Tensor], dict[tuple[int, int], Tensor]]:
    """:func:`query_latent_grid` plus derivatives with respect to ``coords``.

    One forward pass carries the value, ``∂/∂coord_a`` for every axis in
    ``axes`` and ``∂²/∂coord_a∂coord_b`` for every pair in ``pairs`` (the
    recurrences are in the module docstring).  ``decoder`` supplies the
    per-vertex part through ``decoder.forward_jets(x, scales, pairs)``, see
    :meth:`repro.core.imnet.ImNet.forward_jets`.

    Returns
    -------
    ``(value, first, second)``: ``value`` is :func:`query_latent_grid`'s
    tensor bit for bit, ``first[a]`` and ``second[(a, b)]`` are ``(N, P, m)``
    tensors in units of the *normalised* coordinates.
    """
    pairs = tuple(pairs)
    axes = sorted({*axes, *(a for pair in pairs for a in pair)})
    value, first, second = _blend_corners(
        grid, coords, lambda x, scales: decoder.forward_jets(x, scales, pairs),
        interpolation, axes, pairs)

    def dense(tangent: Optional[Tensor]) -> Tensor:
        if tangent is None:
            return Tensor(np.zeros(value.shape, dtype=value.dtype))
        return tangent if tangent.shape == value.shape else ops.broadcast_to(tangent, value.shape)

    return (value, {a: dense(d) for a, d in first.items()},
            {pair: dense(d) for pair, d in second.items()})


def _blend_corners(grid: Tensor, coords: Tensor, decode, interpolation: str,
                   axes: Sequence[int] = (), pairs: Sequence[tuple[int, int]] = ()):
    """The one cell / fraction / corner-weight blend behind both queries.

    ``decode(x, scales)`` returns the decoder's ``(value, first, second)`` at
    the assembled input ``x`` (every corner's rows at once), whose column
    ``a`` moves at ``scales[a]`` per unit of query coordinate ``a``.  With no
    ``axes`` and no ``pairs`` it records exactly the value's operations and
    nothing else.
    """
    if grid.ndim != 5:
        raise ValueError(f"latent grid must be 5-D (N, C, nt, nz, nx); got {grid.shape}")
    if coords.ndim != 3 or coords.shape[-1] != 3:
        raise ValueError(f"coords must have shape (N, P, 3); got {coords.shape}")
    if grid.shape[0] != coords.shape[0]:
        raise ValueError(
            f"batch mismatch between grid ({grid.shape[0]}) and coords ({coords.shape[0]})"
        )
    if interpolation not in ("trilinear", "nearest"):
        raise ValueError(f"unknown interpolation '{interpolation}'")

    n_batch, n_points, _ = coords.shape
    sizes = grid.shape[2:]
    # All scratch arrays/constants inherit the query dtype so a float32
    # grid+coords pair decodes end-to-end in float32.
    dt = np.promote_types(grid.dtype, coords.dtype)

    # (N, nt, nz, nx, C) layout so that gathering vertices yields (N, rows, C).
    grid_last = ops.transpose(grid, (0, 2, 3, 4, 1))

    # Cell indices are held as exact integers in *floating* tensors computed
    # on the tape (floor + clip) rather than as numpy int scratch: a
    # repro.compile capture of this function then recomputes every gather
    # location from the live coordinates instead of baking the trace
    # batch's indices into the plan.
    cell_index: list[Tensor] = []
    frac: list[Tensor] = []
    # Cells per unit of normalised coordinate: the slope of ``frac`` (and of
    # the decoder's relative coordinate) along its own axis.
    steps = [float(max(n - 1, 1)) for n in sizes]
    for axis in range(3):
        n = sizes[axis]
        pos = ops.mul(coords[:, :, axis], steps[axis])
        if n == 1:
            # Degenerate axis: every point lives in cell 0 (data-independent).
            idx = Tensor(np.zeros((n_batch, n_points), dtype=dt))
        else:
            idx = ops.clip_by_value(ops.floor(pos), 0.0, float(n - 2))
            if idx.dtype != dt:
                idx = ops.mul(idx, Tensor(np.ones((), dtype=dt)))
        cell_index.append(idx)
        frac.append(ops.sub(pos, idx))
    scales = {a: steps[a] for a in axes}

    if interpolation == "nearest":
        # Decode from the per-point nearest vertex: per-axis nearest offsets.
        # The offsets are piecewise constant, so the decoder's derivatives
        # are the output's.
        offsets = [ops.greater_equal_mask(f, 0.5) for f in frac]
        vertex_index = [
            ops.clip_by_value(ops.add(cell_index[axis], offsets[axis]), 0.0,
                              float(sizes[axis] - 1))
            for axis in range(3)
        ]
        latent = ops.gather_vertices(grid_last, *vertex_index)
        rel = ops.stack([ops.sub(frac[a], offsets[a]) for a in range(3)], axis=-1)
        return decode(ops.concatenate([rel, latent], axis=-1), scales)

    # The eight corners are one axis.  Along query axis ``a`` the weight
    # factor ``g_a = [1 - f_a, f_a]``, the slope ``±s_a``, the relative
    # coordinate ``[f_a, f_a - 1]`` and the vertex pair ``[cell_a, cell_a + 1]``
    # (clamped) sit on axis ``1 + a`` of an ``(N, 2, 2, 2, P)`` offset block,
    # whose C order is ``itertools.product((0, 1), repeat=3)`` (x fastest).
    # Each weight is ``(g_t·g_z)·g_x``, the per-corner product order, and
    # ``f - 0.0 == f``, so every corner's operands keep their bits.
    block = (n_batch, 2, 2, 2, n_points)

    def on_axis(pair, axis: int):
        """``(N, 2, P)`` stacked offsets 0 and 1, broadcastable over ``block``."""
        shape = [n_batch, 1, 1, 1, n_points]
        shape[1 + axis] = 2
        return ops.reshape(ops.stack(pair, axis=1), shape)

    def rows(t: Tensor) -> Tensor:
        """A block-broadcastable tensor as ``(N, 8·P)`` corner-major rows."""
        return ops.reshape(ops.broadcast_to(t, block), (n_batch, 8 * n_points))

    vertex_index = [
        rows(on_axis([cell_index[a], ops.clip_by_value(ops.add(cell_index[a], 1.0), 0.0,
                                                       float(sizes[a] - 1))], a))
        for a in range(3)
    ]
    rel = ops.stack([rows(on_axis([frac[a], ops.sub(frac[a], 1.0)], a)) for a in range(3)],
                    axis=-1)  # (N, 8P, 3)
    latent = ops.gather_vertices(grid_last, *vertex_index)  # (N, 8P, C)
    decoded, d_first, d_second = decode(ops.concatenate([rel, latent], axis=-1), scales)

    corner_shape = (n_batch, 8, n_points, decoded.shape[-1])

    def per_corner(t: Tensor) -> Tensor:
        """Decoder rows as ``(N, 8, P, m)``; a broadcast weight row is expanded first."""
        if t.shape != decoded.shape:
            t = ops.broadcast_to(t, decoded.shape)
        return ops.reshape(t, corner_shape)

    factors = [on_axis([ops.sub(1.0, frac[a]), frac[a]], a) for a in range(3)]
    slopes = [np.array([-steps[a], steps[a]], dtype=dt).reshape(
        [1] * (1 + a) + [2] + [1] * (3 - a)) for a in range(3)]

    def weight_slope(*along: int) -> Tensor:
        """``∂w/∂coord_a`` (or ``∂²w/∂coord_a∂coord_b``, distinct axes) per corner."""
        rest = functools.reduce(ops.mul, (factors[c] for c in range(3) if c not in along))
        slope = functools.reduce(np.multiply, (slopes[a] for a in along))
        return ops.reshape(ops.mul(rest, Tensor(slope)), (n_batch, 8, n_points, 1))

    def blend(term: Tensor) -> Tensor:
        """Corners 0..7 added in order: the running sum a per-corner loop builds."""
        return ops.sum(term, axis=1, initial=-0.0)

    w = ops.reshape(functools.reduce(ops.mul, factors), (n_batch, 8, n_points, 1))
    phi = per_corner(decoded)
    phi_dot = {a: per_corner(d_first[a]) for a in axes}
    w_dot = {a: weight_slope(a) for a in axes}
    output = blend(ops.mul(w, phi))  # (N, P, m)
    first = {a: blend(ops.add(ops.mul(w_dot[a], phi), ops.mul(w, phi_dot[a]))) for a in axes}
    second: dict = {}
    for a, b in pairs:
        if a == b:  # the weight is linear along each axis: no curvature term
            term = ops.mul(ops.mul(w_dot[a], phi_dot[a]), 2.0)
        else:
            term = ops.add(ops.add(ops.mul(w_dot[a], phi_dot[b]),
                                   ops.mul(w_dot[b], phi_dot[a])),
                           ops.mul(weight_slope(a, b), phi))
        if d_second[a, b] is not None:
            term = ops.add(term, ops.mul(w, per_corner(d_second[a, b])))
        second[a, b] = blend(term)
    return output, first, second


def check_grid_shape(shape: Sequence[int]) -> tuple[int, int, int]:
    """``shape`` as three ints, each at least 1; ``ValueError`` otherwise."""
    checked = tuple(int(n) for n in shape)
    if len(checked) != 3 or min(checked) < 1:
        raise ValueError(f"output_shape must be 3 positive ints; got {shape}")
    return checked


def regular_grid_coordinates(shape: tuple[int, int, int], dtype=None) -> np.ndarray:
    """Normalised coordinates of a regular (t, z, x) grid, shape ``(nt*nz*nx, 3)``.

    Coordinates span ``[0, 1]`` inclusive along each axis (a single point maps
    to 0).  The ordering is C-order over ``(t, z, x)`` so that
    ``values.reshape(nt, nz, nx)`` recovers the grid layout.  ``shape`` must
    hold three positive ints (:func:`check_grid_shape`).
    """
    dtype = resolve_dtype(dtype)
    axes = []
    for n in check_grid_shape(shape):
        axes.append(np.linspace(0.0, 1.0, n, dtype=dtype) if n > 1 else np.zeros(1, dtype=dtype))
    tt, zz, xx = np.meshgrid(*axes, indexing="ij")
    return np.stack([tt.ravel(), zz.ravel(), xx.ravel()], axis=-1)


def trilinear_weights_numpy(frac: np.ndarray) -> np.ndarray:
    """Reference trilinear weights for fractional offsets ``frac`` of shape (..., 3).

    Returns an array of shape ``(..., 8)`` ordered like
    ``itertools.product((0, 1), repeat=3)``.  Used by tests to verify the
    partition-of-unity property of :func:`query_latent_grid`.
    """
    weights = []
    for offsets in itertools.product((0, 1), repeat=3):
        w = np.ones(frac.shape[:-1])
        for axis, offset in enumerate(offsets):
            f = frac[..., axis]
            w = w * (f if offset == 1 else (1.0 - f))
        weights.append(w)
    return np.stack(weights, axis=-1)
