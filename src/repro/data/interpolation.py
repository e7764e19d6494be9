"""Trilinear grid interpolation in NumPy.

Used for (i) producing point-sample training targets from the high-resolution
ground truth (the "Supervision" arrow in Fig. 3 of the paper), and (ii) the
trilinear-upsampling Baseline (I).
"""

from __future__ import annotations

import numpy as np

from ..backend import get_backend
from ..core.latent_grid import cell_stencil, corner_weights

__all__ = ["interpolate_grid", "upsample_trilinear"]

_B = get_backend()


def interpolate_grid(field: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinearly interpolate a regular grid at normalised query points.

    Parameters
    ----------
    field:
        Array of shape ``(C, n_t, n_z, n_x)`` (channel-first grid).
    coords:
        Query coordinates of shape ``(P, 3)``, normalised to ``[0, 1]`` along
        each axis (axis order ``t, z, x``); values outside the range are
        clamped to the boundary.

    Returns
    -------
    Array of shape ``(P, C)``.
    """
    field = np.asarray(field, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    if field.ndim != 4:
        raise ValueError(f"field must have shape (C, nt, nz, nx); got {field.shape}")
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must have shape (P, 3); got {coords.shape}")

    sizes = field.shape[1:]
    pos = np.clip(coords, 0.0, 1.0) * np.maximum(np.subtract(sizes, 1), 1)
    base, corner_steps, frac = cell_stencil(pos, sizes)
    # Channel-last, so a vertex's channels are one row of a flat take: (8, P, C).
    values = np.moveaxis(field, 0, -1).reshape(-1, field.shape[0]).take(base + corner_steps, axis=0)
    terms = corner_weights(frac)[:, :, None] * values
    # Corners added in order onto zeros, as a running ``out += term`` would.
    return _B.sum(terms, axis=0, initial=0.0)


def upsample_trilinear(field: np.ndarray, output_shape: tuple[int, int, int]) -> np.ndarray:
    """Trilinearly upsample a channel-first grid to ``output_shape`` (Baseline I).

    ``field`` has shape ``(C, nt, nz, nx)``; the result has shape
    ``(C, *output_shape)``.  Grid points of both grids are assumed to span the
    same normalised ``[0, 1]`` extent per axis.
    """
    output_shape = tuple(int(v) for v in output_shape)
    axes = [np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1) for n in output_shape]
    tt, zz, xx = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([tt.ravel(), zz.ravel(), xx.ravel()], axis=-1)
    values = interpolate_grid(field, coords)  # (P, C)
    return values.T.reshape(field.shape[0], *output_shape)
