"""Module / Parameter abstractions (the ``torch.nn.Module`` equivalent)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..autodiff import Tensor
from ..backend import canonical_dtype, default_dtype

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable module attribute.

    Unlike plain tensors (which preserve the dtype of floating input
    arrays), parameters *follow the precision policy* at construction
    unless ``dtype`` is given explicitly: building a module under
    ``precision("float32")`` yields float32 weights even though the
    initialiser RNG emits float64 draws.  Use :meth:`Module.astype` to
    re-cast an existing module.
    """

    def __init__(self, data, requires_grad: bool = True, dtype=None, name: str | None = None):
        super().__init__(data, requires_grad=requires_grad,
                         dtype=dtype if dtype is not None else default_dtype(), name=name)


class Module:
    """Base class for all neural-network modules.

    Provides parameter registration/collection, buffers (non-trainable state
    such as BatchNorm running statistics), training/eval mode switching and
    ``state_dict`` (de)serialisation.  Sub-modules are discovered through
    attribute assignment, mirroring PyTorch semantics.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # --------------------------------------------------------------- registry
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable persistent state (e.g. running statistics).

        Buffers follow the precision policy at registration time (like
        :class:`Parameter`), so a module built under ``precision("float32")``
        keeps float32 running statistics.
        """
        self._buffers[name] = np.asarray(value, dtype=default_dtype())
        object.__setattr__(self, name, self._buffers[name])

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Register a trainable parameter under ``name``."""
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    def add_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ----------------------------------------------------------------- access
    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs recursively."""
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    # -------------------------------------------------------------- precision
    @property
    def dtype(self) -> np.dtype:
        """Dtype of the module's parameters (first parameter's dtype).

        Modules are expected to be precision-homogeneous: construction
        under one policy and :meth:`astype` both guarantee it.  Read from
        the live parameter on every call (an in-place :meth:`astype` shows
        at once) through the lazy :meth:`named_parameters`, so only the
        path to the first parameter is walked.
        """
        for _, p in self.named_parameters():
            return p.data.dtype
        return default_dtype()

    def astype(self, dtype) -> "Module":
        """Cast every parameter and buffer to ``dtype`` in place; returns self.

        Casting to a *different* dtype re-materialises the underlying
        arrays, so a module whose parameters were shared with another
        module tree (see ``MeshfreeFlowNet.replicate``) stops sharing
        them — cast first, replicate after.  A same-dtype cast is a no-op
        that keeps existing sharing intact.  Gradients are reset (a
        float64 gradient against float32 weights is meaningless).
        """
        dt = canonical_dtype(dtype)
        for module in self.modules():
            for name, param in module._parameters.items():
                if param is None:
                    continue
                param.data = param.data.astype(dt, copy=False)
                param.grad = None
            for name, buf in module._buffers.items():
                module._buffers[name] = np.asarray(buf).astype(dt, copy=False)
                object.__setattr__(module, name, module._buffers[name])
        return self

    def float(self) -> "Module":
        """Cast the module to float32 in place (alias for ``astype``)."""
        return self.astype(np.float32)

    def double(self) -> "Module":
        """Cast the module to float64 in place (alias for ``astype``)."""
        return self.astype(np.float64)

    # ------------------------------------------------------------------ modes
    def train(self, mode: bool = True) -> "Module":
        """Recursively set training mode (``True`` by default)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Recursively switch to evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset the gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------ state dicts
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy all parameters and buffers into an ordered mapping."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: dict, strict: bool = True,
                        strict_dtype: bool = False) -> None:
        """Load parameters/buffers from a ``state_dict`` mapping in place.

        Loading is **dtype-preserving**: each value is cast into the
        receiving parameter/buffer's existing dtype, so restoring a float64
        checkpoint into a float32-cast module keeps the module float32 (and
        vice versa) instead of silently mixing precisions.  Pass
        ``strict_dtype=True`` to forbid the cast and raise on any dtype
        mismatch instead.  With ``strict=True`` (the default) unexpected
        *and* missing keys both raise ``KeyError``.  All validation happens
        **before** anything is written, so a failed load never leaves the
        module half-overwritten.
        """
        own_params = dict(self.named_parameters())
        own_buffers = self._named_buffer_owners()
        unexpected = []
        writes: list[tuple[np.ndarray, np.ndarray]] = []
        buffer_owners: list[tuple["Module", str]] = []
        for name, value in state.items():
            value = np.asarray(value)
            if name in own_params:
                target = own_params[name].data
            elif name in own_buffers:
                owner, attr = own_buffers[name]
                target = owner._buffers[attr]
                buffer_owners.append((owner, attr))
            else:
                unexpected.append(name)
                continue
            if target.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {target.shape} vs {value.shape}"
                )
            if strict_dtype and value.dtype != target.dtype:
                raise ValueError(
                    f"dtype mismatch for {name}: module holds {target.dtype}, "
                    f"state_dict holds {value.dtype} (strict_dtype=True)"
                )
            writes.append((target, value))
        if strict:
            missing = [n for n in (*own_params, *own_buffers) if n not in state]
            problems = []
            if unexpected:
                problems.append(f"unexpected keys in state_dict: {unexpected}")
            if missing:
                problems.append(f"keys missing from state_dict: {missing}")
            if problems:
                raise KeyError("; ".join(problems))
        for target, value in writes:
            target[...] = value
        for owner, attr in buffer_owners:
            object.__setattr__(owner, attr, owner._buffers[attr])

    def _named_buffer_owners(self, prefix: str = ""):
        owners = {}
        for name in self._buffers:
            owners[f"{prefix}{name}"] = (self, name)
        for mod_name, module in self._modules.items():
            owners.update(module._named_buffer_owners(prefix=f"{prefix}{mod_name}."))
        return owners

    # ------------------------------------------------------------------- call
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Compute the module output; must be overridden by subclasses."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        child_repr = ", ".join(self._modules.keys())
        return f"{self.__class__.__name__}({child_repr})"
