"""Continuous Decoding Network (ImNet, Sec. 4.2).

A multilayer perceptron that maps ``(relative space-time coordinates, latent
context vector)`` to the physical output channels.  Because the MLP is smooth
(softplus/tanh/sin activations), spatio-temporal derivatives of the outputs
with respect to the input coordinates exist to second order, which is what
enables the PDE equation loss.  :meth:`ImNet.forward_jets` carries them
forward through the layers beside the value (the recurrences are written out
in :mod:`repro.core.latent_grid`), so they are ordinary tape expressions of
the parameters and one first-order backward differentiates a loss built on
them.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, ops
from .. import nn
from .config import MeshfreeFlowNetConfig
from .latent_grid import sum_tangents

__all__ = ["ImNet"]


def _map_tangents(fn: Callable[[Tensor], Tensor], tangents: Mapping) -> dict:
    """``fn`` over every tangent, ``None`` (identically zero) staying ``None``."""
    return {key: d if d is None else fn(d) for key, d in tangents.items()}


def _leaf_layers(module: nn.Module) -> Iterator[nn.Module]:
    """Layers in application order, nested ``Sequential`` containers flattened."""
    if isinstance(module, nn.Sequential):
        for sub in module:
            yield from _leaf_layers(sub)
    else:
        yield module


class ImNet(nn.Module):
    """MLP decoder ``Φ_θ2(x, c)`` of Eqn. 5.

    Parameters
    ----------
    coord_dim:
        Number of space-time coordinates (3: t, z, x).
    latent_dim:
        Number of latent channels per context vector.
    out_channels:
        Number of physical output channels.
    hidden:
        Hidden layer widths.
    activation:
        Name of the hidden activation.  Smooth activations ("softplus",
        "tanh", "sin") are recommended when an equation loss with
        second-order derivatives is used; "relu" collapses those derivatives
        to zero almost everywhere (ablation in the benchmarks).
    """

    def __init__(self, coord_dim: int = 3, latent_dim: int = 32, out_channels: int = 4,
                 hidden: Sequence[int] = (512, 256, 128, 64, 32),
                 activation: str = "softplus",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.coord_dim = int(coord_dim)
        self.latent_dim = int(latent_dim)
        self.out_channels = int(out_channels)
        self.hidden = tuple(int(h) for h in hidden)
        self.activation_name = activation

        widths = [self.coord_dim + self.latent_dim, *self.hidden]
        layers: list[nn.Module] = []
        for i in range(len(widths) - 1):
            layers.append(nn.Linear(widths[i], widths[i + 1], rng=rng))
            layers.append(nn.get_activation(activation))
        layers.append(nn.Linear(widths[-1], self.out_channels, rng=rng))
        self.net = nn.Sequential(*layers)

    @property
    def in_features(self) -> int:
        """Width of the decoder input: coordinates plus latent channels."""
        return self.coord_dim + self.latent_dim

    def _check_input(self, x: Tensor) -> None:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"ImNet expected trailing dimension {self.in_features} "
                f"(coord_dim={self.coord_dim} + latent_dim={self.latent_dim}), got {x.shape[-1]}"
            )

    def forward(self, x: Tensor) -> Tensor:
        """Decode ``(..., coord_dim + latent_dim)`` into ``(..., out_channels)``."""
        self._check_input(x)
        return self.net(x)

    def forward_jets(self, x: Tensor, scales: Mapping[int, float],
                     pairs: Sequence[tuple[int, int]] = ()):
        """Decode ``x`` and carry its coordinate derivatives through the same pass.

        ``x`` depends on query coordinate ``a`` only through its own column
        ``a``, at the constant rate ``scales[a]``: ``∂x/∂coord_a`` is
        ``scales[a]`` times a one-hot vector and every second derivative of
        ``x`` is zero.  Each layer then maps value, first derivatives and
        the requested second derivatives together — the first ``Linear``
        reads its tangent straight off a weight row.

        Parameters
        ----------
        scales:
            ``{column a: ∂x[..., a]/∂coord_a}`` for every first derivative
            wanted (and every axis a requested pair names).
        pairs:
            Column pairs ``(a, b)`` whose second derivative is wanted.

        Returns
        -------
        ``(y, first, second)`` with ``y`` exactly :meth:`forward`'s tensor,
        ``first[a] = ∂y/∂coord_a`` and ``second[(a, b)] = ∂²y/∂coord_a∂coord_b``
        (``None`` where identically zero), each broadcastable to ``y``.

        Raises
        ------
        TypeError
            For a layer that is not a ``Linear``, an activation stating its
            ``derivatives``, a ``Dropout`` or a ``Sequential`` of those.
        """
        self._check_input(x)
        value = x
        first: Optional[dict] = None  # None: still the constant one-hot seeds
        second: dict = dict.fromkeys(pairs)

        def or_seeds(tangents: Optional[dict]) -> dict:
            if tangents is not None:
                return tangents
            eye = np.eye(self.in_features, dtype=x.dtype)
            return {a: Tensor(eye[a] * s) for a, s in scales.items()}

        for layer in _leaf_layers(self.net):
            if isinstance(layer, nn.Linear):
                if first is None:
                    first = {a: ops.mul(layer.weight[a], float(s)) for a, s in scales.items()}
                else:
                    first = _map_tangents(lambda d: ops.matmul(d, layer.weight), first)
                second = _map_tangents(lambda d: ops.matmul(d, layer.weight), second)
                value = layer(value)
            elif isinstance(layer, nn.Dropout):
                mask = layer.sample_mask(value)
                if mask is not None:
                    first = _map_tangents(lambda d: ops.mul(d, mask), or_seeds(first))
                    second = _map_tangents(lambda d: ops.mul(d, mask), second)
                    value = ops.mul(value, mask)
            elif hasattr(layer, "derivatives"):
                d1, d2 = layer.derivatives(value, bool(pairs))
                first = or_seeds(first)
                second = {
                    (a, b): sum_tangents(
                        None if d2 is None else ops.mul(d2, ops.mul(first[a], first[b])),
                        None if second[a, b] is None else ops.mul(d1, second[a, b]))
                    for a, b in second
                }
                first = {a: ops.mul(d1, d) for a, d in first.items()}
                value = layer(value)
            else:
                raise TypeError(
                    f"cannot carry coordinate derivatives through {type(layer).__name__}: "
                    "ImNet.forward_jets handles Linear, Dropout, Sequential and "
                    "activations that state their derivatives")
        return value, or_seeds(first), second

    @classmethod
    def from_config(cls, config: MeshfreeFlowNetConfig,
                    rng: Optional[np.random.Generator] = None) -> "ImNet":
        """Build the decoder sized by a :class:`MeshfreeFlowNetConfig`."""
        return cls(
            coord_dim=len(config.coord_names),
            latent_dim=config.latent_channels,
            out_channels=config.out_channels,
            hidden=config.imnet_hidden,
            activation=config.imnet_activation,
            rng=rng,
        )
