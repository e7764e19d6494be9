"""Context Generation Network: a 3D U-Net with residual blocks (Sec. 4.1).

The network maps a low-resolution physical input grid ``(N, C_in, nt, nz, nx)``
to a Latent Context Grid ``(N, C_latent, nt, nz, nx)`` of the same spatial
size.  It is fully convolutional, so at inference time it can be applied to
arbitrarily sized domains (possibly much larger than the training crops).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..autodiff import Tensor, nn_ops, ops
from .. import nn
from .config import MeshfreeFlowNetConfig

__all__ = ["ResBlock3d", "UNet3d"]


def _make_norm(kind: str, channels: int) -> nn.Module:
    if kind == "batch":
        return nn.BatchNorm3d(channels)
    if kind == "group":
        return nn.GroupNorm3d(num_groups=min(4, channels), num_channels=channels)
    if kind == "none":
        return nn.Identity()
    raise ValueError(f"unknown norm '{kind}'")


def _conv_norm(conv: nn.Conv3d, norm: nn.Module, x: Tensor) -> Tensor:
    """``norm(conv(x))``, with an eval-mode :class:`~repro.nn.BatchNorm3d` folded into the conv.

    On running statistics BatchNorm is a per-channel affine map of the conv
    output, ``(conv(x) + b - mean) * s + beta`` with ``s = gamma / sqrt(var + eps)``,
    so it is the same convolution with weight ``W * s`` and bias
    ``(b - mean) * s + beta`` and the four full-tensor normalisation passes
    disappear.  The fold is recomputed on every call, in differentiable ops
    on the live parameters and buffers (a few hundred elements): nothing is
    cached, so there is nothing to invalidate, ``state_dict`` is untouched
    and gradients still reach ``conv`` and ``norm`` parameters.  Every other
    case — train mode, batch statistics, GroupNorm, no norm — is ``norm``
    applied to ``conv(x)`` (batch statistics make BatchNorm its recorded
    primitives, :mod:`repro.autodiff.nn_ops`).
    """
    if not (isinstance(norm, nn.BatchNorm3d) and norm.track_running_stats and not norm.training):
        return norm(conv(x))
    channels = conv.out_channels
    gamma, beta = (norm.weight, norm.bias) if norm.affine else (1.0, 0.0)
    bias = conv.bias if conv.bias is not None else 0.0
    scale = ops.div(gamma, ops.sqrt(ops.add(Tensor(norm.running_var), norm.eps)))
    shift = ops.add(ops.mul(ops.sub(bias, Tensor(norm.running_mean)), scale), beta)
    weight = ops.mul(conv.weight, ops.reshape(scale, (channels, 1, 1, 1, 1)))
    out = nn_ops.conv3d(x, weight, stride=conv.stride, padding=conv.padding)
    return ops.add(out, ops.reshape(shift, (1, channels, 1, 1, 1)))


class ResBlock3d(nn.Module):
    """Bottleneck residual block: 1×1×1 → 3×3×3 → 1×1×1 convolutions.

    Each convolution is followed by normalisation (computed through
    :func:`_conv_norm`, which folds eval-mode BatchNorm into the
    convolution); ReLU activations are interleaved and the skip connection
    is projected with a 1×1×1 convolution when the channel count changes
    (Fig. 5, "ResBlock").
    """

    def __init__(self, in_channels: int, out_channels: int,
                 neck_channels: Optional[int] = None,
                 norm: str = "batch", activation: str = "relu",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        neck = neck_channels if neck_channels is not None else max(out_channels // 2, 1)
        self.conv1 = nn.Conv3d(in_channels, neck, kernel_size=1, rng=rng)
        self.norm1 = _make_norm(norm, neck)
        self.conv2 = nn.Conv3d(neck, neck, kernel_size=3, padding=1, rng=rng)
        self.norm2 = _make_norm(norm, neck)
        self.conv3 = nn.Conv3d(neck, out_channels, kernel_size=1, rng=rng)
        self.norm3 = _make_norm(norm, out_channels)
        self.act = nn.get_activation(activation)
        if in_channels != out_channels:
            self.skip = nn.Conv3d(in_channels, out_channels, kernel_size=1, rng=rng)
        else:
            self.skip = nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        """Apply the bottleneck convolutions and the residual skip path."""
        h = self.act(_conv_norm(self.conv1, self.norm1, x))
        h = self.act(_conv_norm(self.conv2, self.norm2, h))
        h = _conv_norm(self.conv3, self.norm3, h)
        return self.act(ops.add(h, self.skip(x)))


class UNet3d(nn.Module):
    """3D U-Net with residual blocks, max-pool downsampling and nearest upsampling.

    Parameters
    ----------
    in_channels:
        Number of physical channels of the low-resolution input.
    latent_channels:
        Number of channels of the produced latent context grid.
    base_channels:
        Channel count after the stem block; doubled at every level.
    pool_factors:
        Per-level pooling factors along ``(t, z, x)``.  The input spatial
        dimensions must be divisible by the cumulative product of these
        factors (checked at call time with an informative error).
    """

    def __init__(self, in_channels: int, latent_channels: int,
                 base_channels: int = 16,
                 pool_factors: Sequence[tuple[int, int, int]] = ((1, 2, 2), (2, 2, 2)),
                 norm: str = "batch", activation: str = "relu",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = int(in_channels)
        self.latent_channels = int(latent_channels)
        self.pool_factors = tuple(tuple(int(v) for v in p) for p in pool_factors)
        self.num_levels = len(self.pool_factors)

        self.stem = ResBlock3d(in_channels, base_channels, norm=norm, activation=activation, rng=rng)

        channels = [base_channels * (2 ** i) for i in range(self.num_levels + 1)]
        self.down_pools = nn.ModuleList([nn.MaxPool3d(p) for p in self.pool_factors])
        self.down_blocks = nn.ModuleList([
            ResBlock3d(channels[i], channels[i + 1], norm=norm, activation=activation, rng=rng)
            for i in range(self.num_levels)
        ])
        self.up_samples = nn.ModuleList([
            nn.UpsampleNearest3d(self.pool_factors[i]) for i in reversed(range(self.num_levels))
        ])
        self.up_blocks = nn.ModuleList([
            ResBlock3d(channels[i + 1] + channels[i], channels[i], norm=norm, activation=activation, rng=rng)
            for i in reversed(range(self.num_levels))
        ])
        self.head = nn.Conv3d(base_channels, latent_channels, kernel_size=1, rng=rng)

    # ------------------------------------------------------------------ utils
    def required_divisor(self) -> tuple[int, int, int]:
        """Cumulative pooling factor per axis."""
        div = [1, 1, 1]
        for p in self.pool_factors:
            for a in range(3):
                div[a] *= p[a]
        return tuple(div)

    def receptive_halo(self) -> tuple[int, int, int]:
        """Per-axis half-width of the receptive field, in input voxels.

        A latent vertex at position ``v`` depends only on input voxels within
        ``v ± halo`` along each axis.  The bound is computed by walking the
        network *backwards* from one latent vertex, propagating a dependency
        interval through every layer: each :class:`ResBlock3d` contains
        exactly one spatial (3×3×3, padding-1) convolution, i.e. radius 1 at
        the resolution it operates on; a pooling window of factor ``p`` maps
        a coarse index to ``p`` fine voxels; nearest-neighbour upsampling maps
        a fine index back to its (alignment-dependent) coarse source.  The
        alignment slack of pooling/upsampling is accounted for exactly, which
        is what makes tiled encoding in
        :class:`repro.inference.InferenceEngine` bit-reproducible away from
        tile borders.
        """
        import math
        from fractions import Fraction

        halo = []
        for axis in range(3):
            lo = Fraction(0)
            hi = Fraction(0)
            # Decoder path, last layer first: a ResBlock at level i-1 followed
            # (in reverse) by the nearest-upsampling that produced its input.
            for i in range(1, self.num_levels + 1):
                p = self.pool_factors[i - 1][axis]
                lo -= 1
                hi += 1
                lo = (lo - (p - 1)) / p
                hi = hi / p
            # Encoder path in reverse: ResBlock at level i, then the pooling
            # that fed it (a pooled index covers p consecutive fine voxels).
            for i in range(self.num_levels, 0, -1):
                p = self.pool_factors[i - 1][axis]
                lo -= 1
                hi += 1
                lo = p * lo
                hi = p * hi + (p - 1)
            lo -= 1  # stem block at input resolution
            hi += 1
            halo.append(int(math.ceil(max(-lo, hi))))
        return tuple(halo)

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 5:
            raise ValueError(f"expected 5-D input (N, C, nt, nz, nx); got shape {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        div = self.required_divisor()
        spatial = x.shape[2:]
        for axis, (dim, d) in enumerate(zip(spatial, div)):
            if dim % d != 0:
                raise ValueError(
                    f"input spatial shape {spatial} is not divisible by the cumulative "
                    f"pooling factors {div} (axis {axis}: {dim} % {d} != 0)"
                )

    # ---------------------------------------------------------------- forward
    def forward(self, x: Tensor) -> Tensor:
        """Return the latent context grid ``(N, latent_channels, nt, nz, nx)``."""
        self._check_input(x)
        h = self.stem(x)
        skips = [h]
        for pool, block in zip(self.down_pools, self.down_blocks):
            h = block(pool(h))
            skips.append(h)
        skips.pop()  # bottom features are not reused as a skip connection
        for up, block in zip(self.up_samples, self.up_blocks):
            h = up(h)
            skip = skips.pop()
            h = block(ops.concatenate([h, skip], axis=1))
        return self.head(h)

    # -------------------------------------------------------------- factories
    @classmethod
    def from_config(cls, config: MeshfreeFlowNetConfig,
                    rng: Optional[np.random.Generator] = None) -> "UNet3d":
        """Build the encoder sized by a :class:`MeshfreeFlowNetConfig`."""
        return cls(
            in_channels=config.in_channels,
            latent_channels=config.latent_channels,
            base_channels=config.unet_base_channels,
            pool_factors=config.unet_pool_factors,
            norm=config.unet_norm,
            activation=config.unet_activation,
            rng=rng,
        )
