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
    """Plans tile ownership, local coordinates and blend weights for queries."""

    def __init__(self, layout: TileLayout):
        self.layout = layout

    def plan(self, coords: np.ndarray) -> list[TileGroup]:
        """Assign a chunk of global query points to covering tiles.

        One pass over flat arrays: the ``(row, tile, weight)`` candidates of
        the eight overlap combinations are built from only the rows that have
        a secondary tile on the combination's axes (most points have none),
        normalised per point, sorted once by tile id (stably, so a group
        keeps combination order, rows ascending within a combination) and cut
        into groups that are slices of the sorted arrays.  Planning is done
        in float64 whatever the dtype of ``coords``.

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
        layout = self.layout
        n_points = coords.shape[0]
        grid_shape = layout.grid_shape
        strides = (grid_shape[1] * grid_shape[2], grid_shape[2], 1)

        positions = []
        # Per axis, the tiles a point may take: its primary always, its secondary
        # only if some point has one — (linear-id shift, weight factor, row mask).
        choices = []
        primary_tile = 0
        for ax, stride, axis_coords in zip(layout.axes, strides, coords.T):
            pos = np.clip(axis_coords * max(ax.size - 1, 1), 0.0, ax.size - 1)
            primary, weight, has_secondary = ax.covering(pos)
            positions.append(pos)
            primary_tile = primary_tile + primary * stride
            choices.append([(0, weight, None)])
            if has_secondary.any():
                choices[-1].append((stride, 1.0 - weight, has_secondary))

        # product() walks the combinations primary-first, last axis fastest; that
        # order fixes how a point's weights are summed and the rows inside a group.
        all_rows = np.arange(n_points)
        candidates = []
        for combination in itertools.product(*choices):
            masks = [mask for _, _, mask in combination if mask is not None]
            f0, f1, f2 = (factor for _, factor, _ in combination)
            if masks:
                rows = np.logical_and.reduce(masks).nonzero()[0]
                w = f0[rows] * f1[rows] * f2[rows]
            else:
                rows = all_rows
                w = f0 * f1 * f2
            keep = w > 0.0
            if not keep.all():
                rows, w = rows[keep], w[keep]
            if rows.size:
                shift = sum(shift for shift, _, _ in combination)
                candidates.append((rows, primary_tile[rows] + shift, w))
        if not candidates:
            return []

        rows, tiles, w = (np.concatenate(column) for column in zip(*candidates))
        # bincount adds a point's weights in candidate (= combination) order.
        w /= np.bincount(rows, weights=w, minlength=n_points)[rows]
        order = np.argsort(tiles, kind="stable")
        rows, tiles, w = rows[order], tiles[order], w[order]
        local = np.empty((rows.size, 3))
        for axis, (ax, index) in enumerate(zip(layout.axes, np.unravel_index(tiles, grid_shape))):
            start = np.asarray(ax.starts, dtype=np.float64)[index]
            local[:, axis] = (positions[axis][rows] - start) / float(max(ax.tile - 1, 1))
        cuts = (tiles[1:] != tiles[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), rows.size]
        return [
            TileGroup(tile=tile, rows=rows[lo:hi], local_coords=local[lo:hi], weights=w[lo:hi])
            for tile, lo, hi in zip(tiles[bounds[:-1]].tolist(), bounds[:-1], bounds[1:])
        ]


class GridQueryPlanner:
    """Separable planner for *regular* high-resolution query grids.

    A dense grid query factorises: tile ownership, blend weights and local
    coordinates along ``t``, ``z`` and ``x`` are each functions of a single
    axis, so they are planned on the three 1-D coordinate arrays —
    ``O(nt + nz + nx)`` memory instead of ``O(P)`` — and the 3-D point sets
    are materialised lazily, one tile at a time, in tile-major order.  This
    is what :meth:`repro.inference.engine.TiledLatentField.predict_grid`
    uses, keeping planning memory independent of the output volume.
    """

    def __init__(self, layout: TileLayout):
        self.layout = layout

    def plan(self, output_shape: tuple[int, int, int]):
        """Yield :class:`TileGroup`\\ s covering a regular grid, tile-major.

        ``output_shape`` is the high-resolution grid shape ``(nt, nz, nx)``;
        row indices refer to C-order raveling over ``(t, z, x)``, matching
        :func:`repro.core.latent_grid.regular_grid_coordinates`.  Weights of
        each point across the yielded groups sum to one.
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
            tile_idx = layout.tile_index(linear)
            per_axis_rows = []
            per_axis_w = []
            per_axis_local = []
            empty = False
            for axis, i in enumerate(tile_idx):
                rows, w, local = axis_plan[axis][i]
                if rows.size == 0:
                    empty = True
                    break
                per_axis_rows.append(rows)
                per_axis_w.append(w)
                per_axis_local.append(local)
            if empty:
                continue
            rt, rz, rx = per_axis_rows
            rows3d = (rt[:, None, None] * strides[0]
                      + rz[None, :, None] * strides[1]
                      + rx[None, None, :] * strides[2]).ravel()
            w3d = (per_axis_w[0][:, None, None]
                   * per_axis_w[1][None, :, None]
                   * per_axis_w[2][None, None, :]).ravel()
            shape3d = (rt.size, rz.size, rx.size)
            local3d = np.empty((rows3d.size, 3))
            local3d[:, 0] = np.broadcast_to(per_axis_local[0][:, None, None], shape3d).ravel()
            local3d[:, 1] = np.broadcast_to(per_axis_local[1][None, :, None], shape3d).ravel()
            local3d[:, 2] = np.broadcast_to(per_axis_local[2][None, None, :], shape3d).ravel()
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
