"""In-process asynchronous model server with a threaded worker pool.

:class:`ModelServer` is the front end the rest of the serving stack plugs
into.  It owns

* ``n_workers`` :class:`~repro.inference.InferenceEngine` replicas, one per
  worker thread, built from :meth:`~repro.core.model.MeshfreeFlowNet.replicate`
  (separate module trees, shared weight arrays) and all sharing **one**
  thread-safe :class:`~repro.inference.cache.LatentTileCache`, so a hot
  domain is encoded once for the whole pool;
* a :class:`~repro.serving.scheduler.MicroBatchScheduler` providing the
  bounded pending queue (admission control / backpressure), priority
  ordering, deadline handling and dynamic micro-batch formation;
* :class:`~repro.serving.telemetry.ServerTelemetry` counters.

Clients interact through :meth:`submit` (a ``concurrent.futures.Future``),
:meth:`submit_async` (awaitable from any asyncio event loop) or the
blocking convenience :meth:`query`.  The HTTP gateway in
:mod:`repro.serving.api` is a thin JSON layer over the same calls.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Optional, Sequence

import numpy as np

from ..autodiff import Tensor
from ..backend import canonical_dtype
from ..faults import CircuitBreaker, Retry
from ..faults import plan as _faults
from ..inference import InferenceEngine, LatentTileCache
from .requests import STATUS_CANCELLED, STATUS_ERROR, STATUS_TIMEOUT, QueryRequest, QueryResult
from .scheduler import (
    BatchPolicy,
    MicroBatchScheduler,
    SchedulerClosedError,
    ServerOverloadedError,
    run_batch,
    settle,
)
from .telemetry import ServerTelemetry

__all__ = ["ModelServer"]

logger = logging.getLogger("repro.serving")

#: Sleep between a worker crash and its restart: exponential backoff from
#: 10 ms, capped at 250 ms.  Only the delay schedule is used — the worker
#: loop itself never gives up.
_WORKER_BACKOFF = Retry(max_attempts=8, backoff=0.01, multiplier=2.0, max_backoff=0.25, jitter=0.0)


class ModelServer:
    """Concurrent request front end over a pool of inference-engine replicas.

    Parameters
    ----------
    model:
        A :class:`~repro.core.model.MeshfreeFlowNet`.  The server switches
        its replicas to eval mode — serving must not depend on batch
        statistics of whatever crop happens to be in flight.
    n_workers:
        Worker threads (= engine replicas).  One by default: small-ImNet
        decodes are bound by Python dispatch, not NumPy kernels, so a second
        worker convoys on the GIL (measured on two cores: two workers serve
        0.5-0.9x what one does, ``serving.server.worker_scaling``).
    policy:
        Bounds on one micro-batch (``max_requests`` / ``max_points``);
        defaults to :class:`BatchPolicy`.  How batches form is stated once,
        in :mod:`repro.serving.scheduler`: a worker never idles while a
        request waits, so a lone request is served at once and a batch is
        whatever arrived during the previous decode.
    max_pending:
        Bound on queued requests (admission control); submissions beyond it
        raise :class:`~repro.serving.scheduler.ServerOverloadedError`.
    precisions:
        Dtype names this server serves (e.g. ``("float64", "float32")``);
        the first entry is the default for requests that do not set
        :attr:`QueryRequest.dtype`.  For every non-default precision the
        server keeps one cast copy of the weights, shared by that
        precision's per-worker engine replicas, so a float32 fleet serves
        alongside the float64 one at +half the weight memory.  Defaults to
        the model's own parameter dtype only.
    breaker_threshold, breaker_cooldown:
        Per-worker circuit breaker: after ``breaker_threshold``
        *consecutive* batch failures the worker's breaker trips open and
        the worker stops pulling batches for ``breaker_cooldown`` seconds
        (the rest of the fleet keeps serving); the next batch after the
        cooldown is the half-open trial that either closes the breaker or
        re-opens it.
    shed_watermark, shed_priority:
        Load shedding: when the pending queue is at or beyond
        ``shed_watermark * max_pending``, submissions with priority
        ``<= shed_priority`` are fast-rejected with
        :class:`ServerOverloadedError` before touching the queue, keeping
        headroom for high-priority traffic.  The default watermark of
        ``1.0`` disables shedding (only the hard ``max_pending`` bound
        applies).
    tile_shape, cache_tiles, engine_kwargs:
        Forwarded to every :class:`~repro.inference.InferenceEngine`
        replica (``cache_tiles`` sizes the single shared latent cache;
        cache keys embed the precision, so fleets never alias tiles).
        Pass ``compile=True`` to run every replica's decoder calls
        through the graph-captured executor (:mod:`repro.compile`): each
        worker engine owns its own plan cache (compiled wrappers are
        thread-affine) and each precision's replicas trace under their
        own dtype policy, so a mixed-precision fleet keeps one plan set
        per dtype.  Outputs stay bit-identical to the eager engines.
    """

    def __init__(self, model, n_workers: int = 1,
                 policy: Optional[BatchPolicy] = None,
                 max_pending: int = 256,
                 tile_shape: Optional[Sequence[int]] = None,
                 cache_tiles: Optional[int] = 64,
                 precisions: Optional[Sequence] = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 0.25,
                 shed_watermark: float = 1.0,
                 shed_priority: int = 0,
                 **engine_kwargs):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if not 0.0 < shed_watermark <= 1.0:
            raise ValueError(f"shed_watermark must be in (0, 1], got {shed_watermark}")
        self.cache = LatentTileCache(capacity=cache_tiles)
        if precisions is None:
            precisions = (model.dtype,)
        names = [canonical_dtype(p).name for p in precisions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate precisions: {names}")
        self._precisions = tuple(names)
        # One weight set per precision: the model itself for its native
        # dtype, a single cast copy otherwise (shared by all replicas of
        # that precision).
        bases = {}
        for name in names:
            if name == model.dtype.name:
                bases[name] = model
            else:
                bases[name] = model.replicate(1, share_parameters=False)[0].astype(name)
        self._worker_engines = []
        for _ in range(n_workers):
            engines = {
                name: InferenceEngine(base.replicate(1, share_parameters=True)[0].eval(),
                                      tile_shape=tile_shape, cache=self.cache,
                                      dtype=name, **engine_kwargs)
                for name, base in bases.items()
            }
            self._worker_engines.append(engines)
        #: Default-precision engine replicas, one per worker (back-compat
        #: convenience for introspection and tests).
        self.engines = [engines[self._precisions[0]] for engines in self._worker_engines]
        self.scheduler = MicroBatchScheduler(policy=policy, max_pending=max_pending)
        self.telemetry = ServerTelemetry()
        #: domain id -> (array, generation); the generation is embedded in
        #: cache keys so re-registration can never serve stale latents.
        self._domains: Dict[str, tuple] = {}
        self._domains_lock = threading.Lock()
        self._shed_watermark = float(shed_watermark)
        self._shed_priority = int(shed_priority)
        self._breaker_cooldown = float(breaker_cooldown)
        self._breakers = [
            CircuitBreaker(name=f"serving-worker-{i}",
                           failure_threshold=breaker_threshold,
                           cooldown=breaker_cooldown,
                           on_transition=self.telemetry.record_breaker_transition)
            for i in range(n_workers)
        ]
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(i, engines),
                             name=f"serving-worker-{i}", daemon=True)
            for i, engines in enumerate(self._worker_engines)
        ]
        self._closed = False
        self._drained = True
        for worker in self._workers:
            worker.start()

    # ---------------------------------------------------------------- domains
    def register_domain(self, domain_id: str, lowres) -> None:
        """Attach a low-resolution domain array under ``domain_id``.

        Re-registering an existing id replaces the array and bumps the id's
        *generation*: cache keys embed the generation, so an in-flight encode
        of the old array can only ever land under the old generation's keys
        and no request against the new registration decodes stale latents.
        The old generation's entries are also invalidated to free memory.
        """
        data = lowres.data if isinstance(lowres, Tensor) else np.asarray(lowres)
        if data.ndim != 5:
            raise ValueError(f"lowres must be 5-D (N, C, nt, nz, nx); got shape {data.shape}")
        with self._domains_lock:
            replacing = domain_id in self._domains
            generation = self._domains[domain_id][1] + 1 if replacing else 0
            self._domains[domain_id] = (data, generation)
        if replacing:
            # The shared cache may also hold anonymous-token entries (an
            # engine used directly, outside the server) whose keys are not
            # ("named", ...) tuples — guard before subscripting.
            self.cache.invalidate(
                lambda key: isinstance(key[0], tuple) and key[0][0] == "named"
                and key[0][1][0] == domain_id and key[0][1][1] < generation
            )

    def domains(self) -> "list[str]":
        """Ids of all registered domains."""
        with self._domains_lock:
            return sorted(self._domains)

    def _resolve_domain(self, domain_id: str):
        """Return ``(array, cache_key)`` for a domain id (KeyError if unknown)."""
        with self._domains_lock:
            data, generation = self._domains[domain_id]
        return data, (domain_id, generation)

    # ------------------------------------------------------------- submission
    def submit(self, request: QueryRequest, timeout: Optional[float] = None):
        """Enqueue a request; returns a ``concurrent.futures.Future``.

        ``timeout`` (seconds, relative) sets the deadline on a *copy* of the
        request (the caller's object is never mutated, so it can be resubmitted
        with a fresh timeout).  Raises :class:`ServerOverloadedError` under
        backpressure and :class:`SchedulerClosedError` after :meth:`close` —
        both count as rejected admissions in the telemetry.
        """
        if request.dtype is not None and request.dtype not in self._precisions:
            raise ValueError(
                f"request precision '{request.dtype}' is not served; this server "
                f"offers {list(self._precisions)} (see ModelServer(precisions=...))"
            )
        if timeout is not None:
            request = dataclasses.replace(
                request, deadline=time.monotonic() + float(timeout))
        if (self._shed_watermark < 1.0
                and request.priority <= self._shed_priority
                and len(self.scheduler) >= self._shed_watermark * self.scheduler.max_pending):
            # Fast-reject before touching the heap: under saturation, low
            # priority traffic is shed to keep headroom for the rest.
            self.telemetry.record_shed()
            raise ServerOverloadedError(
                f"load shed: pending queue at watermark "
                f"({self._shed_watermark:.0%} of {self.scheduler.max_pending})")
        try:
            future = self.scheduler.submit(request)
        except (ServerOverloadedError, SchedulerClosedError):
            self.telemetry.record_admission(False)
            raise
        self.telemetry.record_admission(True)
        return future

    async def submit_async(self, request: QueryRequest,
                           timeout: Optional[float] = None) -> QueryResult:
        """Awaitable submission for asyncio front ends (e.g. HTTP handlers)."""
        return await asyncio.wrap_future(self.submit(request, timeout=timeout))

    def query(self, request: QueryRequest, timeout: Optional[float] = None) -> QueryResult:
        """Blocking convenience: submit and wait for the result.

        With ``timeout`` set, a request that cannot be served in time
        resolves to ``status="timeout"`` (cancelled before execution where
        possible) instead of raising.
        """
        future = self.submit(request, timeout=timeout)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            return QueryResult(request_id=request.request_id, status=STATUS_TIMEOUT,
                               error="client wait timed out")
        except CancelledError:
            return QueryResult(request_id=request.request_id, status=STATUS_CANCELLED,
                               error="request cancelled")

    # ---------------------------------------------------------------- workers
    def _worker_loop(self, index: int, engines: "dict[str, InferenceEngine]") -> None:
        """Supervised worker loop: crashes are contained, never fatal.

        ``run_batch`` already resolves per-group failures, so an exception
        escaping it means the replica itself is sick (or a fault was
        injected above the batch level).  The supervisor fails only the
        poisoned batch's still-pending requests (``status="error"``),
        records the crash on the worker's circuit breaker, sleeps an
        exponential backoff, and keeps pulling.  While the breaker is open
        the worker idles and the rest of the fleet serves; a closed
        scheduler overrides the breaker so shutdown can always drain.
        """
        breaker = self._breakers[index]
        crashes = 0  # consecutive, for the restart backoff schedule
        while True:
            if not breaker.allow() and not self.scheduler.closed:
                time.sleep(min(0.005, self._breaker_cooldown or 0.005))
                continue
            batch = self.scheduler.next_batch()
            if batch is None:
                return
            if not batch:
                continue
            try:
                self._serve_batch(engines, batch)
            except Exception as exc:  # noqa: BLE001 - supervisor boundary
                crashes += 1
                self._on_worker_crash(index, batch, exc)
                breaker.record_failure()
                delay = _WORKER_BACKOFF.delay_for(min(crashes, _WORKER_BACKOFF.max_attempts))
                if delay > 0:
                    time.sleep(delay)
            else:
                crashes = 0
                breaker.record_success()

    def _serve_batch(self, engines: "dict[str, InferenceEngine]", batch) -> None:
        """One batch through the injection site + engine (supervised above)."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("serving.worker")
        run_batch(engines, batch, self._resolve_domain,
                  telemetry=self.telemetry, default_dtype=self._precisions[0])

    def _on_worker_crash(self, index: int, batch, exc: BaseException) -> None:
        """Fail the crashed batch's unresolved requests with a definite status."""
        summary = f"{type(exc).__name__}: {exc}"
        logger.warning("serving worker %d crashed on a %d-request batch (%s); restarting",
                       index, len(batch), summary)
        self.telemetry.record_worker_crash()
        for item in batch:  # those the batch did not settle
            settle(item, QueryResult(
                request_id=item.request.request_id, status=STATUS_ERROR,
                batch_requests=len(batch),
                error=f"worker-{index} crashed: {summary}"), self.telemetry)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Telemetry snapshot including queue depth and shared-cache counters."""
        snapshot = self.telemetry.snapshot(queue_depth=len(self.scheduler),
                                           cache_stats=self.cache.stats())
        snapshot["precisions"] = list(self._precisions)
        snapshot["breakers"] = [breaker.state for breaker in self._breakers]
        return snapshot

    @property
    def precisions(self) -> tuple:
        """Dtype names served, default first."""
        return self._precisions

    @property
    def n_workers(self) -> int:
        """Number of worker threads / engine replicas."""
        return len(self.engines)

    # --------------------------------------------------------------- shutdown
    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Gracefully shut down: stop admissions, finish or cancel the queue.

        With ``drain=True`` (default) queued requests are still served
        before the workers exit; with ``drain=False`` they complete
        immediately with ``status="cancelled"``.  Idempotent.  Returns
        ``True`` when every worker thread exited within ``timeout``;
        ``False`` (with a logged warning) when one had to be abandoned —
        it is a daemon thread, so it cannot block interpreter exit, but
        its in-flight batch may still be running.
        """
        if self._closed:
            return self._drained
        self._closed = True
        self.scheduler.close()
        if not drain:
            for item in self.scheduler.drain_pending():
                settle(item, QueryResult(request_id=item.request.request_id,
                                         status=STATUS_CANCELLED, error="server shut down"),
                       self.telemetry)
        drained = True
        for worker in self._workers:
            worker.join(timeout=timeout)
            if worker.is_alive():
                drained = False
                logger.warning("serving worker %s did not exit within %.1fs; "
                               "abandoning its thread", worker.name, timeout)
        self._drained = drained
        return drained

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
