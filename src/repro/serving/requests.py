"""Typed request/result containers exchanged with the model server.

A :class:`QueryRequest` names a registered domain and asks for either an
arbitrary point set (the paper's headline "query the continuous decoder
anywhere" workload) or a regular super-resolution grid.  Requests carry a
priority and an optional absolute deadline; results carry the decoded
values plus per-request serving telemetry (queue wait, service time, how
many requests shared the micro-batch).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..backend import canonical_dtype
from ..core.latent_grid import check_grid_shape

__all__ = [
    "QueryRequest",
    "QueryResult",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_CANCELLED",
    "STATUS_ERROR",
]

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_CANCELLED = "cancelled"
STATUS_ERROR = "error"

_REQUEST_COUNTER = itertools.count()
_REQUEST_LOCK = threading.Lock()


def _next_request_id() -> str:
    with _REQUEST_LOCK:
        return f"req-{next(_REQUEST_COUNTER)}"


@dataclass
class QueryRequest:
    """One client query against a registered domain.

    Exactly one of ``coords`` (arbitrary points) or ``output_shape``
    (regular super-resolution grid) must be given.

    Attributes
    ----------
    domain_id:
        Identifier of a domain previously registered with the server.
    coords:
        Query points of shape ``(P, 3)``, normalised to ``[0, 1]`` per axis
        over the domain extent (axis order ``t, z, x``).
    output_shape:
        Regular high-resolution grid shape ``(nt, nz, nx)``.
    priority:
        Higher values are scheduled first within the pending queue.
    dtype:
        Requested compute precision (``"float32"`` / ``"float64"``); the
        server routes the request to an engine replica of that precision
        and the result values come back in that dtype.  ``None`` uses the
        server's default precision.
    deadline:
        Absolute :func:`time.monotonic` instant after which the request
        should not be served (it completes with ``status="timeout"``).
        ``None`` means no deadline.  Use :meth:`with_timeout` to derive one
        from a relative timeout.
    request_id:
        Client-visible identifier; auto-generated when omitted.
    """

    domain_id: str
    coords: Optional[np.ndarray] = None
    output_shape: Optional[Tuple[int, int, int]] = None
    priority: int = 0
    deadline: Optional[float] = None
    dtype: Optional[str] = None
    request_id: str = field(default_factory=_next_request_id)

    def __post_init__(self):
        if (self.coords is None) == (self.output_shape is None):
            raise ValueError("exactly one of coords / output_shape must be given")
        if self.dtype is not None:
            self.dtype = canonical_dtype(self.dtype).name
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.float64)
            # Coordinates stay float64 here; the engine casts them to the
            # request's compute precision at decode time.
            if self.coords.ndim != 2 or self.coords.shape[1] != 3:
                raise ValueError(f"coords must have shape (P, 3); got {self.coords.shape}")
            if self.coords.shape[0] == 0:
                raise ValueError("coords must contain at least one point")
        if self.output_shape is not None:
            self.output_shape = check_grid_shape(self.output_shape)

    # ------------------------------------------------------------ properties
    @property
    def is_grid(self) -> bool:
        """Whether this is a regular-grid (vs. arbitrary point set) query."""
        return self.output_shape is not None

    @property
    def n_points(self) -> int:
        """Number of query points the request decodes."""
        if self.coords is not None:
            return int(self.coords.shape[0])
        return int(np.prod(self.output_shape))

    # --------------------------------------------------------------- helpers
    def with_timeout(self, timeout: Optional[float]) -> "QueryRequest":
        """Return ``self`` with ``deadline = now + timeout`` (no-op on ``None``)."""
        if timeout is not None:
            self.deadline = time.monotonic() + float(timeout)
        return self

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline (if any) has passed.

        Deadline semantics are *exclusive*: a request must complete
        strictly before its deadline, so a request examined exactly at
        the deadline instant is already expired (``>=``, not ``>``).
        """
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


@dataclass
class QueryResult:
    """Outcome of one :class:`QueryRequest`.

    ``values`` is ``(N, P, C_out)`` for point queries and
    ``(N, C_out, nt, nz, nx)`` for grid queries — exactly the arrays the
    underlying :class:`~repro.inference.InferenceEngine` would return for
    the request issued alone.
    """

    request_id: str
    status: str
    values: Optional[np.ndarray] = None
    error: Optional[str] = None
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    batch_requests: int = 1

    @property
    def ok(self) -> bool:
        """Whether the request completed successfully."""
        return self.status == STATUS_OK

    def raise_for_status(self) -> "QueryResult":
        """Raise ``RuntimeError`` unless the request succeeded; returns self."""
        if not self.ok:
            raise RuntimeError(
                f"request {self.request_id} failed with status '{self.status}'"
                + (f": {self.error}" if self.error else "")
            )
        return self


def total_points(requests: Sequence[QueryRequest]) -> int:
    """Sum of query points over ``requests`` (micro-batch sizing helper)."""
    return sum(r.n_points for r in requests)
