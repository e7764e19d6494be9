"""Dynamic micro-batching scheduler with cross-request coalescing.

Independent clients issue small point/grid queries; serving them one by one
wastes the engine's batch axis.  The scheduler holds a bounded priority
queue of pending requests and drains it in *micro-batches*.

**The batching rule** (stated here once; :class:`BatchPolicy`,
:class:`~repro.serving.server.ModelServer`, the README and
``docs/ARCHITECTURE.md`` point to it): *a worker never idles while a request
waits.*  :meth:`MicroBatchScheduler.next_batch` blocks only while the queue
is empty; as soon as something is queued it takes what is queued — highest
priority first, FIFO within a priority, at most ``max_requests`` requests
and ``max_points`` points, the first request always admitted — and returns.
There is no timer and nothing to tune: a lone request on an idle server is
a batch of one and starts decoding at once, and under load a batch is
whatever arrived while the previous batch was decoding, so batches grow
with the load by themselves.

:func:`run_batch` then groups the batch by domain and concatenates all point
queries against one domain into a single
:meth:`~repro.inference.engine.TiledLatentField.query` call — the
engine's planner assigns every point (whichever request it came from) to
its owning latent tile and the block decode sends them to the ImNet
together, so queries from different clients that hit the same tile decode
from one cached latent in one ImNet call.

Coalescing is exact: per-point decoding is element-wise in the point axis,
and per-point blend weights and tile-accumulation order are independent of
which other points share the batch, so every request's slice of a coalesced
batch is bit-identical to issuing that request alone through the engine
(asserted by ``tests/test_serving.py`` and the serving benchmark) — while
every decoder matmul stays in one BLAS kernel regime, which the tiled
engine's 2..``chunk_size`` rows per call ensure (``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

import numpy as np

from ..faults import plan as _faults
from ..obs.trace import current_context, span as _span
from ..obs import runtime as _obs
from .requests import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    QueryRequest,
    QueryResult,
)

__all__ = [
    "BatchPolicy",
    "MicroBatchScheduler",
    "ServerOverloadedError",
    "SchedulerClosedError",
    "run_batch",
]


class ServerOverloadedError(RuntimeError):
    """Raised by admission control when the pending queue is full."""


class SchedulerClosedError(RuntimeError):
    """Raised when submitting to a scheduler that has been closed."""


@dataclass
class BatchPolicy:
    """Bounds on one micro-batch (the module docstring states how batches form).

    Attributes
    ----------
    max_requests:
        Upper bound on requests per micro-batch.
    max_points:
        Upper bound on the total number of query points per micro-batch
        (a single larger request still forms a batch alone).
    """

    max_requests: int = 32
    max_points: int = 1 << 15

    def __post_init__(self):
        if self.max_requests < 1:
            raise ValueError("max_requests must be positive")
        if self.max_points < 1:
            raise ValueError("max_points must be positive")


@dataclass(order=True)
class _PendingItem:
    """Heap entry: priority-ordered (then FIFO) pending request."""

    sort_key: tuple = field(init=False, repr=False)
    request: QueryRequest = field(compare=False)
    future: "Future[QueryResult]" = field(compare=False)
    enqueued_at: float = field(compare=False)
    seq: int = field(compare=False, default=0)
    #: Submitting thread's span context (captured when tracing is on) so the
    #: worker-side batch span can stitch onto the gateway's trace across the
    #: queue handoff.
    trace_ctx: object = field(compare=False, default=None, repr=False)

    def __post_init__(self):
        self.sort_key = (-self.request.priority, self.seq)


class MicroBatchScheduler:
    """Bounded priority queue drained in micro-batches by worker threads.

    Parameters
    ----------
    policy:
        Batch formation policy (defaults to :class:`BatchPolicy`).
    max_pending:
        Admission-control bound on queued requests; submissions beyond it
        raise :class:`ServerOverloadedError` (backpressure instead of
        unbounded memory growth).
    """

    def __init__(self, policy: Optional[BatchPolicy] = None, max_pending: int = 1024):
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.policy = policy if policy is not None else BatchPolicy()
        self.max_pending = max_pending
        self._heap: List[_PendingItem] = []
        self._cond = threading.Condition()
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------ submission
    def __len__(self) -> int:
        with self._cond:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (no further admissions)."""
        with self._cond:
            return self._closed

    def submit(self, request: QueryRequest) -> "Future[QueryResult]":
        """Enqueue a request, returning a future for its result.

        Raises :class:`SchedulerClosedError` after :meth:`close` and
        :class:`ServerOverloadedError` when the queue is full.
        """
        future: "Future[QueryResult]" = Future()
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            if len(self._heap) >= self.max_pending:
                raise ServerOverloadedError(
                    f"pending queue full ({self.max_pending} requests)"
                )
            item = _PendingItem(request=request, future=future,
                                enqueued_at=time.monotonic(), seq=self._seq,
                                trace_ctx=current_context() if _obs.tracing else None)
            self._seq += 1
            heapq.heappush(self._heap, item)
            self._cond.notify()
        return future

    def close(self) -> None:
        """Stop accepting new requests; queued work can still be drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # ---------------------------------------------------------------- drains
    def next_batch(self, timeout: Optional[float] = None) -> Optional[List[_PendingItem]]:
        """Block until something is queued, then take what is queued.

        The batch is the queue's head in priority order, cut at the policy's
        ``max_requests`` / ``max_points`` (the first request is always
        admitted); nothing is waited for once a request is available.

        Returns ``None`` once the scheduler is closed *and* drained (the
        worker-loop exit signal), or an empty list if ``timeout`` elapses
        with nothing queued.
        """
        policy = self.policy
        wait_deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._heap:
                if self._closed:
                    return None
                remaining = None
                if wait_deadline is not None:
                    remaining = wait_deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                self._cond.wait(remaining)
            batch = [heapq.heappop(self._heap)]
            points = batch[0].request.n_points
            while (self._heap and len(batch) < policy.max_requests
                   and points + self._heap[0].request.n_points <= policy.max_points):
                item = heapq.heappop(self._heap)
                batch.append(item)
                points += item.request.n_points
        return batch

    def drain_pending(self) -> List[_PendingItem]:
        """Remove and return everything still queued (shutdown helper)."""
        with self._cond:
            items, self._heap = self._heap, []
            return items


def run_batch(engine, items: List[_PendingItem],
              resolve_domain: "Callable[[str], tuple]",
              telemetry=None, default_dtype: Optional[str] = None) -> None:
    """Execute one micro-batch on ``engine``, resolving every item's future.

    ``engine`` is either a single :class:`~repro.inference.InferenceEngine`
    or a mapping from dtype name (``"float32"`` / ``"float64"``) to an
    engine replica of that precision; requests carrying a ``dtype`` are
    routed to the matching replica (``default_dtype`` names the fallback
    for requests that leave it unset — it defaults to the single engine /
    first mapping entry).

    ``resolve_domain`` maps a domain id to ``(lowres_array, cache_key)``
    (raising ``KeyError`` for unknown ids); the key is passed to
    ``engine.open`` so all workers share the same latent cache entries.

    Requests are grouped by ``(domain, dtype)``; per group, all point
    queries are concatenated into one engine ``query`` call (cross-request
    tile coalescing — see the module docstring for why results stay exact)
    and grid queries run through ``predict_grid`` individually, still
    sharing the latent-tile cache.  Expired requests complete with
    ``status="timeout"`` without decoding; cancelled futures are skipped;
    per-group failures resolve that group's items with ``status="error"``
    without poisoning the rest of the batch.

    When tracing is enabled the batch executes under a
    ``scheduler.run_batch`` span stitched onto the first live item's
    submitting span (captured in ``_PendingItem.trace_ctx``), so the
    engine/compile/tape spans below all land in the gateway request's
    trace.
    """
    if not _obs.tracing:
        _run_batch_impl(engine, items, resolve_domain, telemetry, default_dtype)
        return
    parent = next((i.trace_ctx for i in items if i.trace_ctx is not None), None)
    if parent is None:
        sp = _span("scheduler.run_batch", n_requests=len(items))
    else:
        sp = _span("scheduler.run_batch", parent=parent, n_requests=len(items))
    with sp:
        _run_batch_impl(engine, items, resolve_domain, telemetry, default_dtype)


def _run_batch_impl(engine, items: List[_PendingItem],
                    resolve_domain: "Callable[[str], tuple]",
                    telemetry=None, default_dtype: Optional[str] = None) -> None:
    """The body of :func:`run_batch` (split out so the span wrapper stays thin)."""
    if isinstance(engine, Mapping):
        engines = dict(engine)
    else:
        engines = {getattr(engine, "dtype", np.dtype(np.float64)).name: engine}
    if default_dtype is None:
        default_dtype = next(iter(engines))

    start = time.monotonic()
    n_batch_requests = len(items)
    live: "dict[tuple[str, str], list[_PendingItem]]" = {}
    executed_points = 0
    executed_requests = 0

    def resolve(item: _PendingItem, result: QueryResult) -> None:
        if not item.future.done():
            item.future.set_result(result)
        if telemetry is not None:
            telemetry.record_result(result)

    for item in items:
        if not item.future.set_running_or_notify_cancel():
            if telemetry is not None:
                telemetry.record_result(QueryResult(
                    request_id=item.request.request_id, status=STATUS_CANCELLED))
            continue
        if item.request.expired(start):
            resolve(item, QueryResult(
                request_id=item.request.request_id, status=STATUS_TIMEOUT,
                queue_seconds=start - item.enqueued_at,
                batch_requests=n_batch_requests,
                error="deadline expired before execution"))
            continue
        dtype_name = item.request.dtype or default_dtype
        live.setdefault((item.request.domain_id, dtype_name), []).append(item)

    for (domain_id, dtype_name), domain_items in live.items():
        try:
            lowres, domain_key = resolve_domain(domain_id)
        except KeyError:
            for item in domain_items:
                resolve(item, QueryResult(
                    request_id=item.request.request_id, status=STATUS_ERROR,
                    queue_seconds=start - item.enqueued_at,
                    batch_requests=n_batch_requests,
                    error=f"unknown domain '{domain_id}'"))
            continue
        group_engine = engines.get(dtype_name)
        if group_engine is None:
            for item in domain_items:
                resolve(item, QueryResult(
                    request_id=item.request.request_id, status=STATUS_ERROR,
                    queue_seconds=start - item.enqueued_at,
                    batch_requests=n_batch_requests,
                    error=f"no engine replica serves precision '{dtype_name}' "
                          f"(available: {sorted(engines)})"))
            continue
        try:
            # Injection site "serving.batch": a fail rule poisons only this
            # (domain, dtype) group — the except below resolves its items
            # with status="error" — and a delay rule injects decode latency.
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("serving.batch", payload=(domain_id, dtype_name))
            field = group_engine.open(lowres, key=domain_key)
            point_items = [i for i in domain_items if not i.request.is_grid]
            grid_items = [i for i in domain_items if i.request.is_grid]
            outputs: "list[tuple[_PendingItem, np.ndarray]]" = []
            if point_items:
                coords = np.concatenate([i.request.coords for i in point_items], axis=0)
                values = field.query(coords)
                offset = 0
                for item in point_items:
                    n = item.request.n_points
                    # Copy the slice so a retained result does not pin the
                    # whole coalesced batch buffer alive.
                    outputs.append((item, values[:, offset:offset + n, :].copy()))
                    offset += n
            for item in grid_items:
                outputs.append((item, field.predict_grid(item.request.output_shape)))
            done = time.monotonic()
            for item, values in outputs:
                executed_points += item.request.n_points
                executed_requests += 1
                resolve(item, QueryResult(
                    request_id=item.request.request_id, status=STATUS_OK,
                    values=values,
                    queue_seconds=start - item.enqueued_at,
                    service_seconds=done - start,
                    batch_requests=n_batch_requests))
        except Exception as exc:  # noqa: BLE001 - worker must never die
            for item in domain_items:
                if not item.future.done():
                    resolve(item, QueryResult(
                        request_id=item.request.request_id, status=STATUS_ERROR,
                        queue_seconds=start - item.enqueued_at,
                        batch_requests=n_batch_requests,
                        error=f"{type(exc).__name__}: {exc}"))

    if telemetry is not None and executed_requests:
        telemetry.record_batch(executed_requests, executed_points)
