"""Batched query planner: group query points by owning tile.

Decoding a point requires the latent grid of every tile whose partition-of-
unity weight at that point is non-zero (one tile in a tile's core, up to
eight in overlap corners).  The planner turns a chunk of global query
coordinates into per-tile groups — each carrying tile-local coordinates and
blend weights — in tile-major order; the engine decodes consecutive groups
together (:meth:`repro.inference.engine.TiledLatentField.query`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tiling import TileLayout

__all__ = ["TileGroup", "QueryPlanner", "GridQueryPlanner", "pack_groups"]

#: Primary (0) or secondary (1) tile along ``(t, z, x)``: the eight overlap combinations.
_COMBINATIONS = np.array(list(itertools.product((0, 1), repeat=3)))


@dataclass
class TileGroup:
    """Query points assigned to one tile within a planning chunk.

    Attributes
    ----------
    tile:
        Linear tile id in the :class:`~repro.inference.tiling.TileLayout`.
    rows:
        Indices of the points within the planned chunk.
    local_coords:
        Coordinates of those points normalised to ``[0, 1]`` over the tile
        extent, shape ``(len(rows), 3)``.
    weights:
        Normalised partition-of-unity blend weights, shape ``(len(rows),)``.
    """

    tile: int
    rows: np.ndarray
    local_coords: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        """Number of points in the group."""
        return int(self.rows.shape[0])


class QueryPlanner:
    """Plans tile ownership, local coordinates and blend weights for queries.

    The layout is immutable, so the per-layout constants of :meth:`plan` are
    laid out here once, with the three axes along the leading dimension.
    """

    def __init__(self, layout: TileLayout):
        self.layout = layout
        axes, grid_shape = layout.axes, layout.grid_shape
        column = lambda values: np.array(values, dtype=np.float64)[:, None]
        self._scale = column([max(ax.size - 1, 1) for ax in axes])
        self._last = column([ax.size - 1 for ax in axes])
        self._tile_length = column([max(ax.tile - 1, 1) for ax in axes])
        self._strides = np.array([grid_shape[1] * grid_shape[2], grid_shape[2], 1])
        # The eight overlap combinations, primary first and last axis fastest; that
        # order fixes how a point's weights are summed and the rows inside a group.
        self._combo_shift = _COMBINATIONS @ self._strides
        # First vertex of every tile along each axis, one column per linear tile id.
        self._tile_starts = np.stack(np.meshgrid(
            *(np.array(ax.starts, dtype=np.float64) for ax in axes), indexing="ij")).reshape(3, -1)

    def plan(self, coords: np.ndarray) -> list[TileGroup]:
        """Assign a chunk of global query points to covering tiles.

        One pass over flat arrays, the three axes batched as ``(3, P)``: the
        ``(row, tile, weight)`` candidates of the eight overlap combinations
        (a point enters a combination only if it has a secondary tile on each
        of the combination's axes; most points have none, and only those that
        have one are looked at beyond their primary tile) are normalised per
        point, sorted once by tile id (stably, so a group keeps combination
        order, rows ascending within a combination) and cut into groups that
        are slices of the sorted arrays.  Planning is done in float64
        whatever the dtype of ``coords``.

        Parameters
        ----------
        coords:
            Array of shape ``(P, 3)`` with coordinates normalised to
            ``[0, 1]`` over the whole domain (axis order ``t, z, x``);
            values outside that range are clamped to the domain.

        Returns
        -------
        One :class:`TileGroup` per touched tile, in ascending tile order
        (``[]`` for ``P == 0``); the groups' arrays are views of shared flat
        arrays.  Every point appears in at least one group and its weights
        across groups sum to one.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must have shape (P, 3); got {coords.shape}")
        n_points = coords.shape[0]
        if n_points == 0:
            return []
        positions = np.empty((3, n_points))
        np.multiply(coords.T, self._scale, out=positions)
        np.clip(positions, 0.0, self._last, out=positions)
        primary, weight, has_secondary = self.layout.covering(positions)

        # Per axis a point takes its primary tile (factor ``weight``) or, inside a
        # ramp, its secondary (``1 - weight``); a combination's weight is the
        # product of its three factors, taken in axis order.  Every point is a
        # candidate of combination 0; the other seven are built, all at once,
        # from only the points that have a secondary tile at all.
        primary_tile = self._strides @ primary
        all_primary = weight[0] * weight[1] * weight[2]
        rows = (all_primary > 0.0).nonzero()[0]
        w, tiles = all_primary[rows], primary_tile[rows]
        overlap = has_secondary.any(axis=0).nonzero()[0]
        if overlap.size:
            factor = np.empty((3, 2, overlap.size))
            factor[:, 0] = weight[:, overlap]
            np.subtract(1.0, factor[:, 0], out=factor[:, 1])
            allowed = np.ones((3, 2, overlap.size), dtype=bool)
            allowed[:, 1] = has_secondary[:, overlap]
            product = (factor[0][:, None, None] * factor[1][None, :, None]
                       * factor[2][None, None, :]).reshape(8, -1)
            keep = (allowed[0][:, None, None] & allowed[1][None, :, None]
                    & allowed[2][None, None, :]).reshape(8, -1) & (product > 0.0)
            keep[0] = False
            combination, index = keep.nonzero()  # combination-major, rows ascending
            rows = np.concatenate([rows, overlap[index]])
            w = np.concatenate([w, product[combination, index]])
            tiles = np.concatenate(
                [tiles, primary_tile[overlap[index]] + self._combo_shift[combination]])

        # bincount adds a point's weights in candidate (= combination) order.
        w /= np.bincount(rows, weights=w, minlength=n_points)[rows]
        order = np.argsort(tiles, kind="stable")
        rows, tiles, w = rows[order], tiles[order], w[order]
        local = positions.take(rows, axis=1)
        local -= self._tile_starts.take(tiles, axis=1)
        local /= self._tile_length
        cuts = (tiles[1:] != tiles[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), rows.size]
        return [
            TileGroup(tile=tile, rows=rows[lo:hi], local_coords=local[:, lo:hi].T, weights=w[lo:hi])
            for tile, lo, hi in zip(tiles[bounds[:-1]].tolist(), bounds[:-1], bounds[1:])
        ]


class GridQueryPlanner:
    """Separable planner for *regular* high-resolution query grids.

    A dense grid query factorises: tile ownership, blend weights and local
    coordinates along ``t``, ``z`` and ``x`` are each functions of a single
    axis, so they are planned on the three 1-D coordinate arrays —
    ``O(nt + nz + nx)`` memory instead of ``O(P)`` — and the 3-D point sets
    are materialised lazily, one high-resolution time slice of one tile at a
    time, in tile-major order.  This
    is what :meth:`repro.inference.engine.TiledLatentField.predict_grid`
    plans a grid with the first time; the engine then keeps the block
    geometry cut from these groups within a byte budget, and a grid too
    large for it streams with planning memory independent of the output
    volume.
    """

    def __init__(self, layout: TileLayout):
        self.layout = layout

    def plan(self, output_shape: tuple[int, int, int]):
        """Yield :class:`TileGroup`\\ s covering a regular grid, tile-major.

        ``output_shape`` is the high-resolution grid shape ``(nt, nz, nx)``;
        row indices refer to C-order raveling over ``(t, z, x)``, matching
        :func:`repro.core.latent_grid.regular_grid_coordinates`.  A point's
        weight in a group is the plain product of its three per-axis ramp
        weights, which are not renormalised: along each axis a point's two
        ramp weights sum to one, so its weights across the yielded groups sum
        to one only up to rounding, and may differ in the last bits from
        :class:`QueryPlanner`'s, which divides by that sum.
        """
        layout = self.layout
        output_shape = tuple(int(v) for v in output_shape)
        # Per axis: HR sample positions in vertex units, plus for every axis
        # tile the sample indices it covers with their blend weights.
        axis_plan = []
        for axis, (ax, n_hr) in enumerate(zip(layout.axes, output_shape)):
            u = np.linspace(0.0, 1.0, n_hr) if n_hr > 1 else np.zeros(1)
            pos = np.clip(u * max(ax.size - 1, 1), 0.0, ax.size - 1)
            primary, weight, has_secondary = ax.covering(pos)
            per_tile = []
            for i in range(ax.n_tiles):
                prim = primary == i
                sec = has_secondary & (primary + 1 == i)
                rows = np.concatenate([np.nonzero(prim)[0], np.nonzero(sec)[0]])
                w = np.concatenate([weight[prim], 1.0 - weight[sec]])
                order = np.argsort(rows, kind="stable")
                rows = rows[order]
                w = w[order]
                local = (pos[rows] - ax.starts[i]) / max(ax.tile - 1, 1)
                per_tile.append((rows, w, local))
            axis_plan.append(per_tile)

        strides = (output_shape[1] * output_shape[2], output_shape[2], 1)
        for linear in range(layout.n_tiles):
            per_axis = [axis_plan[axis][i] for axis, i in enumerate(layout.tile_index(linear))]
            if any(rows.size == 0 for rows, _, _ in per_axis):
                continue
            (rt, wt, lt), (rz, wz, lz), (rx, wx, lx) = per_axis
            # One high-resolution time slice of the tile per group: planning
            # memory is one slice, however much of the grid one tile covers.
            slice_rows = (rz[:, None] * strides[1] + rx[None, :] * strides[2]).ravel()
            slice_local = np.broadcast_to(lz[:, None], (rz.size, rx.size)).ravel(), np.tile(lx, rz.size)
            for t in range(rt.size):
                rows3d = rt[t] * strides[0] + slice_rows
                w3d = (wt[t] * wz[:, None] * wx[None, :]).ravel()
                local3d = np.empty((rows3d.size, 3))
                local3d[:, 0] = lt[t]
                local3d[:, 1], local3d[:, 2] = slice_local
                keep = w3d > 0.0
                if not np.all(keep):
                    rows3d, w3d, local3d = rows3d[keep], w3d[keep], local3d[keep]
                if rows3d.size:
                    yield TileGroup(tile=linear, rows=rows3d, local_coords=local3d, weights=w3d)


def pack_groups(groups, budget: int):
    """Lazily pack tile groups into fused batches bounded by padded size.

    The engine no longer packs (its block decode pads nothing); this survives
    only because ``bench/layers.py`` rebuilds the old padded decode with it.

    A fused batch is ``len(batch) × max(group sizes)`` padded query slots;
    the greedy packing keeps that product at or below ``budget`` (a batch
    always holds at least one group, so a single oversized group is alone).
    ``groups`` may be any iterable — batches are yielded as soon as they
    close — and input order is preserved.
    """
    if budget < 1:
        raise ValueError("pack budget must be positive")
    current: list[TileGroup] = []
    current_max = 0
    for group in groups:
        new_max = max(current_max, group.n)
        if current and (len(current) + 1) * new_max > budget:
            yield current
            current, current_max = [], 0
            new_max = group.n
        current.append(group)
        current_max = new_max
    if current:
        yield current
