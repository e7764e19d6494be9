"""The MeshfreeFlowNet model (Sec. 4 of the paper).

Combines the Context Generation Network (3D U-Net) with the Continuous
Decoding Network (ImNet) through differentiable trilinear latent-grid
querying, and exposes helpers for dense super-resolution and for computing the
spatio-temporal derivatives required by the PDE equation loss.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autodiff import Tensor, ops
from ..backend import precision
from .. import nn
from ..pde import PDESystem
from .config import MeshfreeFlowNetConfig
from .imnet import ImNet
from .latent_grid import query_latent_grid, query_latent_grid_jets
from .unet import UNet3d

__all__ = ["MeshfreeFlowNet"]


class MeshfreeFlowNet(nn.Module):
    """Physics-constrained continuous space-time super-resolution model.

    Parameters
    ----------
    config:
        Architecture hyper-parameters; defaults to the paper configuration.

    Notes
    -----
    The forward pass takes a low-resolution space-time crop
    ``(N, C_in, nt, nz, nx)`` and query coordinates ``(N, P, 3)`` normalised to
    ``[0, 1]`` over the crop extent, and returns the predicted physical values
    ``(N, P, C_out)`` at those continuous locations.
    """

    def __init__(self, config: Optional[MeshfreeFlowNetConfig] = None):
        super().__init__()
        self.config = config if config is not None else MeshfreeFlowNetConfig()
        rng = np.random.default_rng(self.config.seed)
        self.unet = UNet3d.from_config(self.config, rng=rng)
        self.imnet = ImNet.from_config(self.config, rng=rng)

    # ---------------------------------------------------------------- forward
    def latent_grid(self, lowres: Tensor) -> Tensor:
        """Encode the low-resolution input into a latent context grid."""
        return self.unet(lowres)

    def forward(self, lowres: Tensor, coords: Tensor) -> Tensor:
        """Predict physical values at continuous query coordinates."""
        grid = self.unet(lowres)
        return self.decode(grid, coords)

    def decode(self, grid: Tensor, coords: Tensor) -> Tensor:
        """Decode an already-computed latent grid at query coordinates."""
        return query_latent_grid(grid, coords, self.imnet, interpolation=self.config.interpolation)

    # --------------------------------------------------------- dense sampling
    def predict_grid(self, lowres: Tensor, output_shape: Sequence[int],
                     chunk_size: int = 4096,
                     tile_shape: Optional[Sequence[int]] = None,
                     engine=None, dtype=None) -> np.ndarray:
        """Super-resolve onto a regular high-resolution grid.

        Routed through :class:`repro.inference.InferenceEngine`.  By default
        the engine uses one tile (one full-domain encode, then decoding in
        bounded blocks); passing ``tile_shape`` splits the domain into tiles,
        which bounds peak memory on large domains by encoding overlapping
        crops independently and blending them with a smooth partition of unity.

        Parameters
        ----------
        lowres:
            Input crop ``(N, C_in, nt, nz, nx)``.
        output_shape:
            Target high-resolution grid shape ``(nt_hr, nz_hr, nx_hr)``.
        chunk_size:
            Rows per decoder call (eight per point and sample under
            trilinear interpolation), bounding decode memory.
        tile_shape:
            Optional low-resolution tile shape ``(t, z, x)`` enabling tiled
            encoding; tiled output matches single-tile decoding to round-off.
        engine:
            Optional pre-built :class:`~repro.inference.InferenceEngine`
            (e.g. to reuse its latent-tile cache across calls); overrides
            ``chunk_size`` and ``tile_shape``.
        dtype:
            Precision of the inference compute path; must match the model's
            parameter dtype (see ``Module.astype``).  Defaults to it.

        Returns
        -------
        ``numpy`` array of shape ``(N, C_out, nt_hr, nz_hr, nx_hr)``.
        """
        if engine is None:
            from ..inference import InferenceEngine

            engine = InferenceEngine(self, tile_shape=tile_shape, chunk_size=chunk_size,
                                     dtype=dtype)
        return engine.predict_grid(lowres, output_shape)

    def super_resolve(self, lowres: Tensor, upsample_factors: Sequence[int],
                      chunk_size: int = 4096,
                      tile_shape: Optional[Sequence[int]] = None,
                      engine=None, dtype=None) -> np.ndarray:
        """Super-resolve by integer upsampling factors along ``(t, z, x)``.

        Accepts the same engine-routing keywords as :meth:`predict_grid`.
        """
        factors = tuple(int(f) for f in upsample_factors)
        out_shape = tuple(s * f for s, f in zip(lowres.shape[2:], factors))
        return self.predict_grid(lowres, out_shape, chunk_size=chunk_size,
                                 tile_shape=tile_shape, engine=engine, dtype=dtype)

    # ----------------------------------------------------------- derivatives
    def forward_with_derivatives(
        self,
        lowres: Tensor,
        coords: Tensor,
        pde_system: PDESystem,
        coord_scales: Optional[Sequence[float]] = None,
    ) -> tuple[Tensor, dict[str, Tensor]]:
        """Forward pass plus all derivatives required by ``pde_system``.

        The returned ``values`` dictionary maps every symbol needed by the
        PDE system (fields and their space-time derivatives, converted to
        *physical* units via ``coord_scales``) to a tensor of shape
        ``(N, P)``.  The derivatives are carried forward through the decode
        beside the value (:func:`~repro.core.latent_grid.query_latent_grid_jets`
        states the recurrences), along exactly the axes and axis pairs the
        system names, so they are plain tape expressions: a loss built from
        them reaches the network parameters in one first-order backward,
        and ``coords`` need not require gradients.

        Parameters
        ----------
        coord_scales:
            Physical extent of the crop along ``(t, z, x)``.  A derivative with
            respect to a normalised coordinate is divided by the corresponding
            extent to convert it to physical units.  Defaults to ones.
        """
        if not isinstance(coords, Tensor):
            coords = Tensor(np.asarray(coords))
        scales = np.ones(3) if coord_scales is None else np.asarray(coord_scales, dtype=np.float64)
        if scales.shape != (3,):
            raise ValueError(f"coord_scales must have shape (3,); got {scales.shape}")
        if np.any(scales <= 0):
            raise ValueError("coord_scales must be positive")

        field_names = list(self.config.field_names)
        coord_names = list(self.config.coord_names)

        # spec -> its coordinate axes, in the order the symbol names them.
        specs = {spec: tuple(coord_names.index(c) for c in spec.coords)
                 for spec in pde_system.required_derivatives()}
        for spec in specs:
            if spec.field not in field_names:
                raise KeyError(f"PDE system requests unknown field '{spec.field}'")
            if spec.order > 2:  # pragma: no cover - guarded by PDESystem.add_constraint
                raise ValueError(f"unsupported derivative order {spec.order}")
        pred, first, second = query_latent_grid_jets(
            self.unet(lowres), coords, self.imnet,
            axes={along[0] for along in specs.values() if len(along) == 1},
            pairs=sorted({tuple(sorted(along)) for along in specs.values() if len(along) == 2}),
            interpolation=self.config.interpolation)

        values = {name: pred[:, :, i] for i, name in enumerate(field_names)}
        for spec, along in specs.items():
            jet = first[along[0]] if len(along) == 1 else second[tuple(sorted(along))]
            scale = float(np.prod(scales[list(along)]))
            values[spec.symbol] = ops.mul(jet[:, :, field_names.index(spec.field)],
                                          float(1.0 / scale))
        return pred, values

    # -------------------------------------------------------------- replicas
    def replicate(self, n: int, share_parameters: bool = True) -> "list[MeshfreeFlowNet]":
        """Build ``n`` replicas of this model for concurrent inference workers.

        Each replica owns a *separate module tree* — per-module state such as
        the training/eval flag (flipped around tiled encodes) is independent,
        which is what makes one replica per serving worker thread safe — but
        with ``share_parameters=True`` every replica references the **same**
        parameter and buffer arrays as ``self``: zero extra weight memory,
        and bit-identical outputs across replicas.  Sharing is safe as long
        as nobody trains the replicas; pass ``share_parameters=False`` to
        deep-copy the state instead.

        Returns a list of ``n`` new models, each in the same training/eval
        mode as ``self``.
        """
        if n < 1:
            raise ValueError("replicate() needs n >= 1")
        source_params = dict(self.named_parameters())
        source_buffers = self._named_buffer_owners()
        replicas: list[MeshfreeFlowNet] = []
        for _ in range(n):
            # Construct under the source model's own precision so replicas
            # preserve its dtype regardless of the ambient policy (a clone
            # built at the wrong policy would silently re-materialise the
            # weights at that policy when share_parameters=False).
            with precision(self.dtype):
                clone = type(self)(self.config)
            if share_parameters:
                for name, param in clone.named_parameters():
                    param.data = source_params[name].data
                for name, (owner, attr) in clone._named_buffer_owners().items():
                    src_owner, src_attr = source_buffers[name]
                    owner._buffers[attr] = src_owner._buffers[src_attr]
                    object.__setattr__(owner, attr, owner._buffers[attr])
            else:
                clone.load_state_dict(self.state_dict())
            clone.train(self.training)
            replicas.append(clone)
        return replicas

    # ------------------------------------------------------------- utilities
    def count_parameters(self) -> dict[str, int]:
        """Parameter counts of the two sub-networks."""
        return {
            "unet": self.unet.num_parameters(),
            "imnet": self.imnet.num_parameters(),
            "total": self.num_parameters(),
        }
