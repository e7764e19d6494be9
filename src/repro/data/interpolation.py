"""Trilinear grid interpolation in NumPy.

Used for (i) producing point-sample training targets from the high-resolution
ground truth (the "Supervision" arrow in Fig. 3 of the paper), and (ii) the
trilinear-upsampling Baseline (I).
"""

from __future__ import annotations

import numpy as np

__all__ = ["interpolate_grid", "upsample_trilinear"]


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
    n_points = coords.shape[0]
    # The eight corners are one leading axis: along query axis ``a`` the
    # weight factor ``[1 - f, f]`` and the vertex pair ``[i0, i0 + 1]``
    # (clamped) sit on axis ``a`` of a ``(2, 2, 2, P)`` block, whose C order
    # is ``itertools.product((0, 1), repeat=3)``.
    factors, vertices = [], []
    for axis in range(3):
        n = sizes[axis]
        pos = np.clip(coords[:, axis], 0.0, 1.0) * max(n - 1, 1)
        if n == 1:
            i0 = np.zeros(n_points, dtype=np.int64)
        else:
            i0 = np.clip(np.floor(pos).astype(np.int64), 0, n - 2)
        f = pos - i0
        shape = [1, 1, 1, n_points]
        shape[axis] = 2
        factors.append(np.stack([1.0 - f, f]).reshape(shape))
        vertices.append(np.stack([i0, np.minimum(i0 + 1, n - 1)]).reshape(shape))
    weight = (factors[0] * factors[1]) * factors[2]  # a corner's product order
    vertex_values = np.moveaxis(field, 0, -1)[tuple(vertices)]  # (2, 2, 2, P, C)
    terms = weight.reshape(8, n_points, 1) * vertex_values.reshape(8, n_points, field.shape[0])
    # Corners added in order onto zeros, as a running ``out += term`` would.
    return np.add.reduce(terms, axis=0, initial=0.0)


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
