"""Configuration dataclasses for the MeshfreeFlowNet model."""

from __future__ import annotations

from dataclasses import dataclass, asdict

__all__ = ["MeshfreeFlowNetConfig"]


@dataclass
class MeshfreeFlowNetConfig:
    """Hyper-parameters of the MeshfreeFlowNet architecture.

    The defaults follow Fig. 5 of the paper (3D U-Net encoder producing a
    32-channel latent context grid; ImNet decoder with hidden widths
    512/256/128/64/32).  The :meth:`tiny` and :meth:`small` constructors
    provide scaled-down versions that train in seconds on a single CPU core —
    they preserve the architecture exactly but shrink widths and depths.
    """

    #: number of physical input channels of the low-resolution grid
    in_channels: int = 4
    #: number of predicted physical channels
    out_channels: int = 4
    #: names of the physical channels, in channel order
    field_names: tuple[str, ...] = ("p", "T", "u", "w")
    #: names of the space-time coordinates, in coordinate order
    coord_names: tuple[str, ...] = ("t", "z", "x")
    #: number of channels of each latent context vector (c in the paper)
    latent_channels: int = 32
    #: channels after the U-Net stem block
    unet_base_channels: int = 16
    #: per-level pooling factors of the contractive path, e.g. ((1,2,2), (2,2,2))
    unet_pool_factors: tuple[tuple[int, int, int], ...] = ((1, 2, 2), (1, 2, 2), (2, 2, 2), (2, 2, 2))
    #: hidden layer widths of the continuous decoding MLP (ImNet)
    imnet_hidden: tuple[int, ...] = (512, 256, 128, 64, 32)
    #: activation of the ImNet hidden layers; smooth activations keep the
    #: Laplacian terms of the equation loss informative
    imnet_activation: str = "softplus"
    #: activation used inside the U-Net residual blocks
    unet_activation: str = "relu"
    #: normalisation used inside the U-Net residual blocks ("batch" or "group")
    unet_norm: str = "batch"
    #: interpolation mode for blending the 8 bounding latent vectors
    #: ("trilinear" per Eqn. 6, or "nearest" for the ablation study)
    interpolation: str = "trilinear"
    #: RNG seed for weight initialisation
    seed: int = 0

    def __post_init__(self):
        if len(self.field_names) != self.out_channels:
            raise ValueError(
                f"field_names {self.field_names} must have out_channels={self.out_channels} entries"
            )
        if len(self.coord_names) != 3:
            raise ValueError("MeshfreeFlowNet operates on 3 space-time coordinates (t, z, x)")
        if self.interpolation not in ("trilinear", "nearest"):
            raise ValueError(f"unknown interpolation mode '{self.interpolation}'")
        self.unet_pool_factors = tuple(tuple(int(v) for v in p) for p in self.unet_pool_factors)
        self.imnet_hidden = tuple(int(v) for v in self.imnet_hidden)

    # ----------------------------------------------------------------- presets
    @classmethod
    def paper(cls, **overrides) -> "MeshfreeFlowNetConfig":
        """The architecture sizes reported in Fig. 5 of the paper."""
        return cls(**overrides)

    @classmethod
    def small(cls, **overrides) -> "MeshfreeFlowNetConfig":
        """A reduced configuration usable for CPU experiments (benchmarks)."""
        defaults = dict(
            latent_channels=16,
            unet_base_channels=8,
            unet_pool_factors=((1, 2, 2), (2, 2, 2)),
            imnet_hidden=(64, 64, 32),
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def tiny(cls, **overrides) -> "MeshfreeFlowNetConfig":
        """The smallest sensible configuration, used by unit tests."""
        defaults = dict(
            latent_channels=6,
            unet_base_channels=4,
            unet_pool_factors=((1, 2, 2),),
            imnet_hidden=(16, 16),
        )
        defaults.update(overrides)
        return cls(**defaults)

    # --------------------------------------------------------------- utilities
    def min_input_shape(self) -> tuple[int, int, int]:
        """Smallest (nt, nz, nx) low-resolution input the U-Net can ingest."""
        factors = [1, 1, 1]
        for pool in self.unet_pool_factors:
            for axis in range(3):
                factors[axis] *= pool[axis]
        return tuple(factors)

    def to_dict(self) -> dict:
        """Plain-``dict`` form of the configuration (JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MeshfreeFlowNetConfig":
        """Rebuild a configuration from its :meth:`to_dict` representation."""
        d = dict(d)
        d["field_names"] = tuple(d.get("field_names", ("p", "T", "u", "w")))
        d["coord_names"] = tuple(d.get("coord_names", ("t", "z", "x")))
        d["unet_pool_factors"] = tuple(tuple(p) for p in d["unet_pool_factors"])
        d["imnet_hidden"] = tuple(d["imnet_hidden"])
        return cls(**d)
