"""The NumPy array backend and the (tiny) backend registry.

The autodiff ops and the inference engine do not call ``numpy`` directly for
array *construction* and for the dispatched elementwise/linear-algebra
kernels — they go through the active :class:`ArrayBackend`.  This keeps the
dtype policy in one place (every constructor resolves its dtype through
:mod:`repro.backend.policy`) and gives future accelerator backends a single
seam to plug into: a subclass overriding the kernel methods (and
``from_host`` / ``to_host``) is enough for the op layer, because every
``Op.forward`` consumes and returns backend arrays only.

Only the NumPy backend ships today; the registry exists so an alternative
can be registered and selected without touching call sites.

Importing this module also pins glibc's allocator thresholds
(:func:`_pin_malloc_thresholds`): NumPy takes every array from ``malloc``,
so whether a few-hundred-KiB activation is a reused heap block or a fresh,
page-faulting ``mmap`` is part of the hot paths' cost, and it is decided
here once instead of by whichever large array a process happened to free
first.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from typing import Callable, Optional

import numpy as np

from .policy import resolve_dtype

__all__ = ["ArrayBackend", "NumpyBackend", "get_backend", "register_backend", "available_backends"]

# glibc's <malloc.h> parameter numbers for mallopt().
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit: the value its dynamic
#: threshold rises to once the process frees a block that large.
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
#: Twice the mmap threshold, as glibc's dynamic rule sets it.
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap / trim thresholds at 32 / 64 MiB; return whether they were set.

    glibc serves a request above its mmap threshold (128 KiB at start-up)
    with a fresh ``mmap``: every page of it faults on first touch, and
    ``free`` unmaps it again.  Its *dynamic* rule raises the threshold to
    the size of the largest mapped block freed so far, so how fast a
    process runs used to depend on which large transient it had freed: the
    decoder's 512 KiB activations page-faulted thousands of times per grid
    request unless something bigger had gone first.  Pinning the thresholds
    at the dynamic rule's own ceiling gives every process that state from
    the start.  Nothing is changed when the C library is not glibc, and
    nothing overrides a user's own ``MALLOC_MMAP_THRESHOLD_`` /
    ``MALLOC_TRIM_THRESHOLD_`` or ``glibc.malloc.*`` tunable.
    """
    user_set = "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
    if user_set or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    pinned = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    return bool(pinned and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES))


#: Whether this process runs with the pinned thresholds.
_MALLOC_PINNED = _pin_malloc_thresholds()


class ArrayBackend:
    """Interface of an array backend: constructors + dispatched kernels.

    Constructors (``asarray``, ``zeros``, ...) resolve ``dtype=None``
    through the active precision policy.  Kernel methods take and return
    backend-native arrays; the base class provides NumPy-compatible
    implementations via ``self.xp`` so a duck-typed array module (CuPy
    style) only needs to replace that attribute.
    """

    #: Registry name of the backend.
    name = "abstract"
    #: The array-API module the default kernel implementations delegate to.
    xp = np

    # ------------------------------------------------------------ constructors
    def asarray(self, data, dtype=None):
        """``asarray`` with the policy default for ``dtype=None``."""
        return self.xp.asarray(data, dtype=resolve_dtype(dtype))

    def ascontiguous(self, data, dtype=None):
        """C-contiguous ``asarray`` with the policy default dtype."""
        return self.xp.ascontiguousarray(data, dtype=resolve_dtype(dtype))

    def zeros(self, shape, dtype=None):
        """Policy-dtype zeros."""
        return self.xp.zeros(shape, dtype=resolve_dtype(dtype))

    def ones(self, shape, dtype=None):
        """Policy-dtype ones."""
        return self.xp.ones(shape, dtype=resolve_dtype(dtype))

    def empty(self, shape, dtype=None):
        """Policy-dtype uninitialised array."""
        return self.xp.empty(shape, dtype=resolve_dtype(dtype))

    # ------------------------------------------------------- host round-trips
    def from_host(self, array: np.ndarray):
        """Move a host (NumPy) array onto the backend's device."""
        return array

    def to_host(self, array) -> np.ndarray:
        """Move a backend array back to host memory as a NumPy array."""
        return np.asarray(array)

    # ------------------------------------------------------------ kernels
    # Elementwise / reduction / linear-algebra kernels used by the autodiff
    # primitive ops.  All preserve the input dtype (NumPy semantics).
    #
    # Every kernel accepts an optional ``out=`` destination array (NumPy
    # ufunc semantics: ``out=None`` allocates a fresh result).  The ``out=``
    # forms are the **in-place kernel registry** the compiled executor
    # (:mod:`repro.compile`) is built on: a fused plan evaluates a whole
    # elementwise chain through these calls into arena-owned buffers, so
    # steady-state execution allocates nothing.  A backend that cannot
    # write in place may ignore ``out`` and return a fresh array — the
    # executor always uses the *returned* array — at the cost of losing
    # the zero-allocation property.
    def add(self, a, b, out=None):
        """Elementwise ``a + b``."""
        return self.xp.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        """Elementwise ``a - b``."""
        return self.xp.subtract(a, b, out=out)

    def multiply(self, a, b, out=None):
        """Elementwise ``a * b``."""
        return self.xp.multiply(a, b, out=out)

    def divide(self, a, b, out=None):
        """Elementwise ``a / b``."""
        return self.xp.divide(a, b, out=out)

    def negative(self, a, out=None):
        """Elementwise ``-a``."""
        return self.xp.negative(a, out=out)

    def power(self, a, exponent, out=None):
        """Elementwise ``a ** exponent``."""
        return self.xp.power(a, exponent, out=out)

    def exp(self, a, out=None):
        """Elementwise natural exponential."""
        return self.xp.exp(a, out=out)

    def log(self, a, out=None):
        """Elementwise natural logarithm."""
        return self.xp.log(a, out=out)

    def log1p(self, a, out=None):
        """Elementwise ``log(1 + a)`` (numerically stable near zero)."""
        return self.xp.log1p(a, out=out)

    def sqrt(self, a, out=None):
        """Elementwise square root."""
        return self.xp.sqrt(a, out=out)

    def sin(self, a, out=None):
        """Elementwise sine."""
        return self.xp.sin(a, out=out)

    def cos(self, a, out=None):
        """Elementwise cosine."""
        return self.xp.cos(a, out=out)

    def tanh(self, a, out=None):
        """Elementwise hyperbolic tangent."""
        return self.xp.tanh(a, out=out)

    def abs(self, a, out=None):
        """Elementwise absolute value."""
        return self.xp.abs(a, out=out)

    def sign(self, a, out=None):
        """Elementwise sign."""
        return self.xp.sign(a, out=out)

    def maximum(self, a, b, out=None):
        """Elementwise maximum."""
        return self.xp.maximum(a, b, out=out)

    def minimum(self, a, b, out=None):
        """Elementwise minimum."""
        return self.xp.minimum(a, b, out=out)

    def matmul(self, a, b, out=None):
        """Batched matrix product over the trailing two axes."""
        return self.xp.matmul(a, b, out=out)

    def sum(self, a, axis=None, keepdims=False, out=None, initial=0.0):
        """Summation over ``axis`` onto ``initial`` (``add.reduce``'s own default,
        its identity): the same bits as ``sum`` without its Python wrapper.

        One ``int`` axis that is not the last is added in index order onto
        ``initial``, ``((initial + a[0]) + a[1]) + ...``, whatever follows it.
        ``add.reduce`` does so unless every later extent is 1, where NumPy sums
        the axis pairwise; that case takes ``add.accumulate``'s running sum.
        """
        if type(axis) is int and -a.ndim <= axis < a.ndim:
            axis %= a.ndim
            if axis < a.ndim - 1 and a.shape[axis] > 1 and math.prod(a.shape[axis + 1 :]) == 1:
                start = self.xp.full(a.shape[:axis] + (1,) + a.shape[axis + 1 :], initial, a.dtype)
                running = self.xp.add.accumulate(self.xp.concatenate([start, a], axis=axis), axis=axis)
                return self.xp.take(running, [-1] if keepdims else -1, axis=axis, out=out)
        return self.xp.add.reduce(a, axis=axis, keepdims=keepdims, out=out, initial=initial)

    def greater(self, a, b, out=None):
        """Elementwise ``a > b`` (boolean, or ``out``'s dtype with ``out=``)."""
        return self.xp.greater(a, b, out=out)

    def greater_equal(self, a, b, out=None):
        """Elementwise ``a >= b`` (boolean result)."""
        return self.xp.greater_equal(a, b, out=out)

    def less_equal(self, a, b, out=None):
        """Elementwise ``a <= b`` (boolean result)."""
        return self.xp.less_equal(a, b, out=out)

    def floor(self, a, out=None):
        """Elementwise floor (dtype-preserving)."""
        return self.xp.floor(a, out=out)

    def copyto(self, dst, src, where=True):
        """Copy ``src`` into ``dst`` with broadcasting; returns ``dst``.

        ``where`` optionally masks the copy (NumPy ``copyto`` semantics),
        which the compiled executor uses for branchless piecewise kernels.
        """
        self.xp.copyto(dst, src, where=where)
        return dst


class NumpyBackend(ArrayBackend):
    """The reference CPU backend: plain NumPy."""

    name = "numpy"
    xp = np


_REGISTRY: dict[str, Callable[[], ArrayBackend]] = {"numpy": NumpyBackend}
_REGISTRY_LOCK = threading.Lock()
_ACTIVE: ArrayBackend = NumpyBackend()


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register an :class:`ArrayBackend` factory under ``name``."""
    with _REGISTRY_LOCK:
        _REGISTRY[name] = factory


def available_backends() -> list[str]:
    """Names of all registered backends."""
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY)


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """The active backend, or a fresh instance of the named one."""
    if name is None:
        return _ACTIVE
    with _REGISTRY_LOCK:
        factory = _REGISTRY.get(name)
        registered = sorted(_REGISTRY)
    if factory is None:
        raise ValueError(f"unknown backend '{name}'; registered: {registered}")
    return factory()
