"""Standard layers: Linear, Conv3d, BatchNorm3d, pooling, upsampling, activations.

All layers operate on :class:`repro.autodiff.Tensor` and are composed of the
differentiable primitives in :mod:`repro.autodiff.ops` /
:mod:`repro.autodiff.nn_ops`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, nn_ops, ops, record_state_update
from . import init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Conv3d",
    "BatchNorm3d",
    "GroupNorm3d",
    "LayerNorm",
    "MaxPool3d",
    "AvgPool3d",
    "UpsampleNearest3d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softplus",
    "Sin",
    "Identity",
    "Dropout",
    "Sequential",
    "ModuleList",
    "get_activation",
]


_DEFAULT_RNG = np.random.default_rng(0)


def _rng_or_default(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else _DEFAULT_RNG


class Linear(Module):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in_features, out_features)``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = _rng_or_default(rng)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(init.kaiming_uniform((in_features, out_features), rng, gain=1.0))
        if bias:
            self.bias = Parameter(init.uniform_fan_in((in_features, out_features), rng)[0])
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, self.weight)
        if self.bias is not None:
            out = ops.add(out, self.bias)
        return out


class Conv3d(Module):
    """3D convolution layer wrapping :func:`repro.autodiff.nn_ops.conv3d`."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size=3,
                 stride=1, padding=0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = _rng_or_default(rng)
        ks = kernel_size if isinstance(kernel_size, (tuple, list)) else (kernel_size,) * 3
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = tuple(int(k) for k in ks)
        self.stride = stride
        self.padding = padding
        wshape = (out_channels, in_channels, *self.kernel_size)
        self.weight = Parameter(init.kaiming_uniform(wshape, rng))
        if bias:
            fan_in = in_channels * int(np.prod(self.kernel_size))
            bound = 1.0 / np.sqrt(max(fan_in, 1))
            self.bias = Parameter(rng.uniform(-bound, bound, out_channels))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = nn_ops.conv3d(x, self.weight, stride=self.stride, padding=self.padding)
        if self.bias is not None:
            out = ops.add(out, ops.reshape(self.bias, (1, self.out_channels, 1, 1, 1)))
        return out


class BatchNorm3d(Module):
    """Batch normalisation over (N, D, H, W) for 5-D inputs ``(N, C, D, H, W)``."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 affine: bool = True, track_running_stats: bool = True):
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.affine = affine
        self.track_running_stats = track_running_stats
        if affine:
            self.weight = Parameter(np.ones(num_features))
            self.bias = Parameter(np.zeros(num_features))
        if track_running_stats:
            self.register_buffer("running_mean", np.zeros(num_features))
            self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        axes = (0, 2, 3, 4)
        if self.training or not self.track_running_stats:
            mu = ops.mean(x, axis=axes, keepdims=True)
            v = ops.var(x, axis=axes, keepdims=True)
            if self.track_running_stats:
                # The exponential update is expressed in differentiable ops
                # and applied through record_state_update so that a
                # repro.compile capture of a training step observes the
                # buffer write as a traced output instead of an invisible
                # side effect (the values are IEEE-identical to the former
                # in-place numpy expression).
                m = self.momentum
                new_mean = ops.add(ops.mul(Tensor(self.running_mean), 1 - m),
                                   ops.mul(ops.reshape(mu, (-1,)), m))
                new_var = ops.add(ops.mul(Tensor(self.running_var), 1 - m),
                                  ops.mul(ops.reshape(v, (-1,)), m))
                record_state_update(self.running_mean, new_mean)
                record_state_update(self.running_var, new_var)
        else:
            mu = Tensor(self.running_mean.reshape(1, -1, 1, 1, 1))
            v = Tensor(self.running_var.reshape(1, -1, 1, 1, 1))
        x_hat = ops.div(ops.sub(x, mu), ops.sqrt(ops.add(v, self.eps)))
        if self.affine:
            w = ops.reshape(self.weight, (1, self.num_features, 1, 1, 1))
            b = ops.reshape(self.bias, (1, self.num_features, 1, 1, 1))
            x_hat = ops.add(ops.mul(x_hat, w), b)
        return x_hat


class GroupNorm3d(Module):
    """Group normalisation for 5-D inputs (batch-size independent alternative)."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5, affine: bool = True):
        super().__init__()
        if num_channels % num_groups != 0:
            raise ValueError("num_channels must be divisible by num_groups")
        self.num_groups = int(num_groups)
        self.num_channels = int(num_channels)
        self.eps = float(eps)
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_channels))
            self.bias = Parameter(np.zeros(num_channels))

    def forward(self, x: Tensor) -> Tensor:
        n, c, d, h, w = x.shape
        g = self.num_groups
        xg = ops.reshape(x, (n, g, c // g, d, h, w))
        mu = ops.mean(xg, axis=(2, 3, 4, 5), keepdims=True)
        v = ops.var(xg, axis=(2, 3, 4, 5), keepdims=True)
        x_hat = ops.div(ops.sub(xg, mu), ops.sqrt(ops.add(v, self.eps)))
        x_hat = ops.reshape(x_hat, (n, c, d, h, w))
        if self.affine:
            wpar = ops.reshape(self.weight, (1, c, 1, 1, 1))
            bpar = ops.reshape(self.bias, (1, c, 1, 1, 1))
            x_hat = ops.add(ops.mul(x_hat, wpar), bpar)
        return x_hat


class LayerNorm(Module):
    """Layer normalisation over the trailing feature dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5, affine: bool = True):
        super().__init__()
        self.normalized_shape = int(normalized_shape)
        self.eps = float(eps)
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(normalized_shape))
            self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mu = ops.mean(x, axis=-1, keepdims=True)
        v = ops.var(x, axis=-1, keepdims=True)
        x_hat = ops.div(ops.sub(x, mu), ops.sqrt(ops.add(v, self.eps)))
        if self.affine:
            x_hat = ops.add(ops.mul(x_hat, self.weight), self.bias)
        return x_hat


class MaxPool3d(Module):
    """Non-overlapping 3-D max pooling layer."""
    def __init__(self, kernel_size=2):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return nn_ops.max_pool3d(x, self.kernel_size)


class AvgPool3d(Module):
    """Non-overlapping 3-D average pooling layer."""
    def __init__(self, kernel_size=2):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return nn_ops.avg_pool3d(x, self.kernel_size)


class UpsampleNearest3d(Module):
    """Nearest-neighbour 3-D upsampling layer."""
    def __init__(self, scale_factor=2):
        super().__init__()
        self.scale_factor = scale_factor

    def forward(self, x: Tensor) -> Tensor:
        return nn_ops.upsample_nearest3d(x, self.scale_factor)


# Each activation states its first two derivatives beside ``forward``, as
# tape expressions like any other: ``derivatives(x, second)`` returns
# ``(σ'(x), σ''(x))``, the second entry ``None`` when it was not asked for
# or is identically zero.  The decoder's forward derivative pass
# (:meth:`repro.core.imnet.ImNet.forward_jets`) is their one consumer.
class ReLU(Module):
    """Rectified linear unit activation layer."""
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)

    def derivatives(self, x: Tensor, second: bool):
        """The ``x > 0`` mask; the second derivative is zero."""
        return ops.greater_mask(x, 0.0), None


class LeakyReLU(Module):
    """Leaky ReLU activation layer."""
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return ops.leaky_relu(x, self.negative_slope)

    def derivatives(self, x: Tensor, second: bool):
        """One where ``x > 0``, else the slope; the second derivative is zero."""
        return ops.leaky_relu_mask(x, self.negative_slope), None


class Tanh(Module):
    """Hyperbolic tangent activation layer."""
    def forward(self, x: Tensor) -> Tensor:
        return ops.tanh(x)

    def derivatives(self, x: Tensor, second: bool):
        """``1 - t²`` and ``-2 t (1 - t²)`` with ``t = tanh(x)``."""
        t = ops.tanh(x)
        d1 = ops.sub(1.0, ops.mul(t, t))
        return d1, ops.mul(ops.mul(t, d1), -2.0) if second else None


class Sigmoid(Module):
    """Logistic sigmoid activation layer."""
    def forward(self, x: Tensor) -> Tensor:
        return ops.sigmoid(x)

    def derivatives(self, x: Tensor, second: bool):
        """``s (1 - s)`` and ``s (1 - s)(1 - 2 s)`` with ``s = sigmoid(x)``."""
        s = ops.sigmoid(x)
        d1 = ops.mul(s, ops.sub(1.0, s))
        return d1, ops.mul(d1, ops.sub(1.0, ops.mul(s, 2.0))) if second else None


class Softplus(Module):
    """Softplus activation layer (smooth ReLU; PDE-loss friendly)."""
    def forward(self, x: Tensor) -> Tensor:
        return ops.softplus(x)

    def derivatives(self, x: Tensor, second: bool):
        """``s`` and ``s (1 - s)`` with ``s = sigmoid(x)``."""
        s = ops.sigmoid(x)
        return s, ops.mul(s, ops.sub(1.0, s)) if second else None


class Sin(Module):
    """Sinusoidal activation (SIREN-style) — smooth, useful for PDE losses."""

    def __init__(self, w0: float = 1.0):
        super().__init__()
        self.w0 = float(w0)

    def forward(self, x: Tensor) -> Tensor:
        return ops.sin(ops.mul(x, self.w0))

    def derivatives(self, x: Tensor, second: bool):
        """``w0 cos(w0 x)`` and ``-w0² sin(w0 x)``."""
        arg = ops.mul(x, self.w0)
        d1 = ops.mul(ops.cos(arg), self.w0)
        return d1, ops.mul(ops.sin(arg), -self.w0 * self.w0) if second else None


class Identity(Module):
    """No-op layer returning its input unchanged."""
    def forward(self, x: Tensor) -> Tensor:
        return x

    def derivatives(self, x: Tensor, second: bool):
        """One; the second derivative is zero."""
        return Tensor(np.ones((), dtype=x.dtype)), None


class Dropout(Module):
    """Inverted dropout (active only in training mode)."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = float(p)
        self._rng = _rng_or_default(rng)

    def sample_mask(self, x: Tensor) -> Optional[Tensor]:
        """Draw one scaled keep-mask shaped like ``x``; ``None`` when inactive.

        Dropout is linear in its input, so a caller that carries derivatives
        of ``x`` alongside it multiplies all of them by this one mask.
        """
        if not self.training or self.p == 0.0:
            return None
        return Tensor((self._rng.random(x.shape) >= self.p).astype(x.dtype) / (1.0 - self.p))

    def forward(self, x: Tensor) -> Tensor:
        mask = self.sample_mask(x)
        return x if mask is None else ops.mul(x, mask)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for i, module in enumerate(modules):
            name = str(i)
            self.add_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __len__(self):
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x


class ModuleList(Module):
    """A list container whose elements are registered sub-modules."""

    def __init__(self, modules: Sequence[Module] = ()):
        super().__init__()
        self._order: list[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __len__(self):
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not callable
        raise RuntimeError("ModuleList is a container and cannot be called")


_ACTIVATIONS: dict[str, Callable[[], Module]] = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "softplus": Softplus,
    "sin": Sin,
    "identity": Identity,
}


def get_activation(name: str) -> Module:
    """Construct an activation module from its lowercase name."""
    try:
        return _ACTIVATIONS[name.lower()]()
    except KeyError as exc:
        raise ValueError(f"unknown activation '{name}'; choose from {sorted(_ACTIVATIONS)}") from exc
