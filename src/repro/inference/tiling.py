"""Tile layout and smooth partition-of-unity blending for tiled inference.

A large low-resolution domain is split, per axis, into equally sized,
overlapping tiles whose start offsets are aligned to the U-Net's cumulative
pooling divisor (so pooling windows inside a tile coincide with the windows
the full-domain encoder would use).  Overlaps are sized so that every query
point is decoded only from latent vertices that lie at least one receptive-
field halo away from any interior tile border — those vertices are
bit-identical to the ones a full-domain encode would produce, which is what
makes tiled inference match direct inference to floating-point round-off.

Inside each overlap a smooth quintic ramp hands the query weight from the
left tile to the right tile.  Per axis the two ramp weights sum to one, so
the induced 3-D weights (products over axes) form a partition of unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["AxisLayout", "TileLayout", "smoothstep"]


def smoothstep(u: np.ndarray) -> np.ndarray:
    """Quintic smoothstep ``6u^5 - 15u^4 + 10u^3`` clamped to ``[0, 1]``.

    C²-continuous, with vanishing first and second derivatives at both ends —
    the blended output therefore has no visible seams even in derivative
    fields.
    """
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


@dataclass(frozen=True)
class AxisLayout:
    """Tiling of one axis: equal-length overlapping intervals of vertices.

    Attributes
    ----------
    size:
        Number of low-resolution vertices along the axis.
    tile:
        Tile length in vertices (identical for every tile on the axis).
    starts:
        First vertex of each tile, ascending; the last tile ends exactly at
        ``size``.
    ramp_lo / ramp_hi:
        Per interior boundary ``j`` (between tiles ``j`` and ``j + 1``), the
        vertex-unit interval over which the blending weight ramps from tile
        ``j`` to tile ``j + 1``.  Both endpoints lie inside the *valid*
        (halo-uncontaminated) region of both tiles.
    """

    size: int
    tile: int
    starts: tuple[int, ...]
    ramp_lo: tuple[float, ...]
    ramp_hi: tuple[float, ...]

    @property
    def n_tiles(self) -> int:
        """Number of tiles along the axis."""
        return len(self.starts)

    def covering(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map vertex-unit positions to covering tiles and blend weights.

        Parameters
        ----------
        positions:
            1-D array of positions in ``[0, size - 1]`` (vertex units).

        Returns
        -------
        ``(primary, weight, has_secondary)`` where ``primary`` is the index
        of the lowest covering tile, ``weight`` its blend weight, and
        ``has_secondary`` marks positions inside a ramp, where tile
        ``primary + 1`` also covers the position with weight
        ``1 - weight``.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if self.n_tiles == 1:
            return (
                np.zeros(positions.shape, dtype=np.int64),
                np.ones_like(positions),
                np.zeros(positions.shape, dtype=bool),
            )
        his = np.asarray(self.ramp_hi)
        los = np.asarray(self.ramp_lo)
        primary = np.searchsorted(his, positions, side="right")
        weight = np.ones_like(positions)
        has_secondary = np.zeros(positions.shape, dtype=bool)
        inner = np.nonzero(primary < len(his))[0]
        if inner.size:
            # primary = searchsorted guarantees p < hi; p > lo additionally
            # means the point sits strictly inside the ramp (where hi > lo).
            ramp = inner[positions[inner] > los[primary[inner]]]
            if ramp.size:
                lo = los[primary[ramp]]
                hi = his[primary[ramp]]
                w = 1.0 - smoothstep((positions[ramp] - lo) / (hi - lo))
                weight[ramp] = w
                has_secondary[ramp] = w < 1.0
        return primary, weight, has_secondary


def _layout_axis(size: int, tile: int, halo: int, divisor: int,
                 ramp_width: float) -> AxisLayout:
    """Compute the overlapping tile layout of a single axis."""
    if size % divisor != 0:
        raise ValueError(
            f"domain size {size} is not divisible by the U-Net pooling divisor {divisor}"
        )
    if tile >= size:
        return AxisLayout(size=size, tile=size, starts=(0,), ramp_lo=(), ramp_hi=())
    if tile % divisor != 0:
        raise ValueError(
            f"tile size {tile} is not divisible by the U-Net pooling divisor {divisor}"
        )
    # Valid-query intervals of adjacent tiles must overlap by at least one
    # vertex, plus room for the blending ramp.
    min_overlap = 2 * halo + 1 + ramp_width
    overlap = int(np.ceil(min_overlap / divisor)) * divisor
    step = tile - overlap
    if step < divisor:
        raise ValueError(
            f"tile size {tile} is too small for halo {halo} and ramp width "
            f"{ramp_width}: need at least {overlap + divisor} vertices per tile"
        )
    starts = [0]
    while starts[-1] + tile < size:
        starts.append(min(starts[-1] + step, size - tile))
    centres: list[float] = []
    halves: list[float] = []
    for a, b in zip(starts[:-1], starts[1:]):
        # Positions where both tiles decode exactly: [b + halo, a + tile - halo - 1].
        lo_bound = float(b + halo)
        hi_bound = float(a + tile - halo - 1)
        if hi_bound < lo_bound:  # pragma: no cover - excluded by the overlap sizing
            raise ValueError("tile overlap too small for exact blending")
        centres.append(0.5 * (lo_bound + hi_bound))
        halves.append(min(0.5 * ramp_width, 0.5 * (hi_bound - lo_bound)))
    # Keep consecutive ramps disjoint: when tiles advance by less than the
    # ramp width (e.g. a shifted final tile), shrink each ramp to at most
    # half the gap between neighbouring hand-off centres.
    for j in range(len(centres)):
        if j > 0:
            halves[j] = min(halves[j], 0.5 * (centres[j] - centres[j - 1]))
        if j + 1 < len(centres):
            halves[j] = min(halves[j], 0.5 * (centres[j + 1] - centres[j]))
        halves[j] = max(halves[j], 0.0)
    ramp_lo = tuple(c - h for c, h in zip(centres, halves))
    ramp_hi = tuple(c + h for c, h in zip(centres, halves))
    for j in range(1, len(ramp_lo)):
        if ramp_lo[j] < ramp_hi[j - 1]:  # pragma: no cover - defensive
            raise ValueError("blending ramps of consecutive tile boundaries overlap")
    return AxisLayout(size=size, tile=tile, starts=tuple(starts),
                      ramp_lo=tuple(ramp_lo), ramp_hi=tuple(ramp_hi))


class TileLayout:
    """Cartesian-product tiling of a 3-D ``(t, z, x)`` low-resolution domain.

    A layout is immutable once built (the engine keeps one per domain
    shape), so everything a query needs from it is derived here, once.

    Parameters
    ----------
    domain_shape:
        Low-resolution vertex counts ``(nt, nz, nx)``.
    tile_shape:
        Requested tile vertex counts; clamped per axis to the domain size
        (an axis whose tile covers the whole domain gets a single tile).
    halo:
        Per-axis receptive-field half-width of the encoder (see
        :meth:`repro.core.unet.UNet3d.receptive_halo`).
    divisor:
        Per-axis cumulative pooling factor; tile starts and sizes are aligned
        to it.
    ramp_width:
        Width, in vertex units, of the smooth blending ramp inside each
        overlap (``0`` gives a sharp but still exact hand-off).

    Attributes
    ----------
    axes:
        One :class:`AxisLayout` per axis.
    tile_shape, grid_shape, n_tiles:
        Vertices per tile, tiles per axis, and tiles in all.
    """

    def __init__(self, domain_shape: Sequence[int], tile_shape: Sequence[int],
                 halo: Sequence[int], divisor: Sequence[int],
                 ramp_width: float = 2.0):
        domain_shape = tuple(int(v) for v in domain_shape)
        tile_shape = tuple(int(v) for v in tile_shape)
        if len(domain_shape) != 3 or len(tile_shape) != 3:
            raise ValueError("domain_shape and tile_shape must have 3 entries (t, z, x)")
        if ramp_width < 0:
            raise ValueError("ramp_width must be non-negative")
        self.domain_shape = domain_shape
        self.ramp_width = float(ramp_width)
        self.axes = tuple(
            _layout_axis(domain_shape[a], tile_shape[a], int(halo[a]),
                         int(divisor[a]), self.ramp_width)
            for a in range(3)
        )
        self.tile_shape = tuple(ax.tile for ax in self.axes)
        self.grid_shape = tuple(ax.n_tiles for ax in self.axes)
        self.n_tiles = math.prod(self.grid_shape)
        # The ramps of all axes as flat tables for :meth:`covering`: boundary
        # ``j`` of axis ``a`` sits at ``_ramp_base[a] + j``, and each axis ends
        # in a ``lo = +inf`` entry, so that the last tile of an axis (which
        # hands off to nobody) is never inside a ramp.
        self._ramp_hi_by_axis = [(a, np.asarray(ax.ramp_hi)) for a, ax in enumerate(self.axes)
                                 if ax.n_tiles > 1]
        self._ramp_base = np.cumsum([0, *self.grid_shape[:2]])[:, None]
        self._ramp_lo = np.concatenate([[*ax.ramp_lo, np.inf] for ax in self.axes])
        self._ramp_hi = np.concatenate([[*ax.ramp_hi, np.inf] for ax in self.axes])

    # ------------------------------------------------------------------ info
    @property
    def is_single_tile(self) -> bool:
        """True when one tile covers the whole domain (``tile_shape=None``)."""
        return self.n_tiles == 1

    # --------------------------------------------------------------- queries
    def covering(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`AxisLayout.covering` of all three axes in one pass.

        ``positions`` is a C-contiguous float64 array of shape ``(3, P)``,
        row ``a`` holding vertex-unit positions in ``[0, size_a - 1]``; the
        three results have that shape too and are, row by row and bit for
        bit, what the axis's own ``covering`` returns.
        """
        primary = np.zeros(positions.shape, dtype=np.intp)
        for axis, his in self._ramp_hi_by_axis:
            primary[axis] = np.searchsorted(his, positions[axis], side="right")
        weight = np.ones(positions.shape)
        has_secondary = np.zeros(positions.shape, dtype=bool)
        boundary = primary + self._ramp_base
        # primary = searchsorted guarantees p < hi; p > lo additionally means
        # the point sits strictly inside the ramp (where hi > lo).
        ramp = (positions > self._ramp_lo[boundary]).ravel().nonzero()[0]
        if ramp.size:
            boundary = boundary.ravel()[ramp]
            lo = self._ramp_lo[boundary]
            w = 1.0 - smoothstep((positions.ravel()[ramp] - lo) / (self._ramp_hi[boundary] - lo))
            weight.ravel()[ramp] = w
            has_secondary.ravel()[ramp] = w < 1.0
        return primary, weight, has_secondary

    def tile_index(self, linear: int) -> tuple[int, int, int]:
        """Convert a linear tile id into per-axis tile indices."""
        return tuple(int(v) for v in np.unravel_index(linear, self.grid_shape))

    def tile_slices(self, linear: int) -> tuple[slice, slice, slice]:
        """Spatial slices of the low-resolution domain covered by a tile."""
        idx = self.tile_index(linear)
        return tuple(
            slice(ax.starts[i], ax.starts[i] + ax.tile)
            for ax, i in zip(self.axes, idx)
        )

    def tile_start(self, linear: int) -> tuple[int, int, int]:
        """First vertex of a tile along each axis."""
        idx = self.tile_index(linear)
        return tuple(ax.starts[i] for ax, i in zip(self.axes, idx))
