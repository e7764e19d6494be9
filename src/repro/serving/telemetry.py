"""Rolling serving telemetry: throughput, queue depth, latency percentiles.

The server records every admission decision, executed micro-batch and
completed request here; :meth:`ServerTelemetry.snapshot` folds the counters
into the flat dictionary exposed by ``GET /stats`` and
:func:`format_stats_table` renders it as the human-readable table the
serving demo prints.

Since the unified observability layer landed, the counters and latency
windows live in a per-server :class:`repro.obs.MetricsRegistry`
(``telemetry.registry``): the same series that back :meth:`snapshot` are
scraped by the gateway's ``GET /metrics`` Prometheus endpoint.  The
registry is private per telemetry instance so several servers in one
process never interleave their counts; process-wide series (plan caches,
tile caches, profilers) live in the global :data:`repro.obs.REGISTRY` and
are merged at scrape time.

The counters conserve: every accepted request ends exactly once, so once
the server is closed ``accepted == completed + timed_out + errors +
cancelled``.  ``rejected`` counts backpressure rejections and load sheds
alike, so ``rejected >= shed``.
"""

from __future__ import annotations

import math
import time
from typing import Mapping, Optional

from ..obs.metrics import MetricsRegistry

__all__ = ["ServerTelemetry", "format_stats_table"]


class ServerTelemetry:
    """Thread-safe rolling counters for one model server.

    Parameters
    ----------
    window:
        Number of most-recent samples retained by each latency window (the
        percentiles are rolling, not lifetime).
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` to publish into; by
        default each telemetry instance owns a private registry so
        servers never collide on series names.
    """

    def __init__(self, window: int = 2048,
                 registry: Optional[MetricsRegistry] = None):
        self._started = time.monotonic()
        #: Metrics registry backing every series below (``GET /metrics``).
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        # Admission / completion counters (lifetime).
        self._accepted = reg.counter("serving.accepted")
        self._rejected = reg.counter("serving.rejected")
        self._completed = reg.counter("serving.completed")
        self._timed_out = reg.counter("serving.timed_out")
        self._cancelled = reg.counter("serving.cancelled")
        self._errors = reg.counter("serving.errors")
        # Micro-batch counters.
        self._batches = reg.counter("serving.batches")
        self._batched_requests = reg.counter("serving.batched_requests")
        self._coalesced_requests = reg.counter("serving.coalesced_requests")
        self._points_decoded = reg.counter("serving.points_decoded")
        # Fault-tolerance counters (lifetime).
        self._shed = reg.counter("serving.shed")
        self._worker_crashes = reg.counter("serving.worker_crashes")
        self._breaker_transitions = reg.counter("serving.breaker_transitions")
        # Rolling latency windows (seconds).
        self.queue_wait = reg.histogram("serving.queue_wait_seconds",
                                        maxlen=window).window
        self.latency = reg.histogram("serving.latency_seconds",
                                     maxlen=window).window

    # ------------------------------------------------- counter compatibility
    # The pre-registry API exposed plain integer attributes; keep them as
    # read-only properties so callers and tests are unaffected.
    @property
    def accepted(self) -> int:
        """Admitted requests (lifetime)."""
        return int(self._accepted.value)

    @property
    def rejected(self) -> int:
        """Requests dropped by admission control (lifetime)."""
        return int(self._rejected.value)

    @property
    def completed(self) -> int:
        """Requests finished with ``status="ok"`` (lifetime)."""
        return int(self._completed.value)

    @property
    def timed_out(self) -> int:
        """Requests that expired before or during execution (lifetime)."""
        return int(self._timed_out.value)

    @property
    def cancelled(self) -> int:
        """Requests cancelled before execution (lifetime)."""
        return int(self._cancelled.value)

    @property
    def errors(self) -> int:
        """Requests finished with ``status="error"`` (lifetime)."""
        return int(self._errors.value)

    @property
    def batches(self) -> int:
        """Executed micro-batches (lifetime)."""
        return int(self._batches.value)

    @property
    def batched_requests(self) -> int:
        """Requests executed across all micro-batches (lifetime)."""
        return int(self._batched_requests.value)

    @property
    def coalesced_requests(self) -> int:
        """Requests that shared a micro-batch with others (lifetime)."""
        return int(self._coalesced_requests.value)

    @property
    def points_decoded(self) -> int:
        """Query points decoded (lifetime)."""
        return int(self._points_decoded.value)

    @property
    def shed(self) -> int:
        """Requests fast-rejected by load shedding (lifetime; also rejected)."""
        return int(self._shed.value)

    @property
    def worker_crashes(self) -> int:
        """Worker-loop crashes caught by the supervisor (lifetime)."""
        return int(self._worker_crashes.value)

    @property
    def breaker_transitions(self) -> int:
        """Circuit-breaker state transitions across all workers (lifetime)."""
        return int(self._breaker_transitions.value)

    # -------------------------------------------------------------- recording
    def record_admission(self, accepted: bool) -> None:
        """Count one admission decision (rejected = backpressure drop)."""
        (self._accepted if accepted else self._rejected).inc()

    def record_shed(self) -> None:
        """Count one load-shed request (a shed request is also a rejection)."""
        self._shed.inc()
        self._rejected.inc()

    def record_worker_crash(self) -> None:
        """Count one supervised worker crash."""
        self._worker_crashes.inc()

    def record_breaker_transition(self, old: str, new: str) -> None:
        """Count one circuit-breaker transition (wired via ``on_transition``)."""
        self._breaker_transitions.inc()

    def record_batch(self, n_requests: int, n_points: int) -> None:
        """Count one executed micro-batch of ``n_requests`` / ``n_points``."""
        self._batches.inc()
        self._batched_requests.inc(n_requests)
        if n_requests > 1:
            self._coalesced_requests.inc(n_requests)
        self._points_decoded.inc(n_points)

    def record_result(self, result) -> None:
        """Count one finished :class:`~repro.serving.requests.QueryResult`."""
        from .requests import STATUS_CANCELLED, STATUS_OK, STATUS_TIMEOUT

        if result.status == STATUS_OK:
            self._completed.inc()
            self.queue_wait.record(result.queue_seconds)
            self.latency.record(result.queue_seconds + result.service_seconds)
        elif result.status == STATUS_TIMEOUT:
            self._timed_out.inc()
        elif result.status == STATUS_CANCELLED:
            self._cancelled.inc()
        else:
            self._errors.inc()

    # -------------------------------------------------------------- reporting
    def snapshot(self, queue_depth: Optional[int] = None,
                 cache_stats=None) -> "dict":
        """Flat dictionary of counters, rates and rolling percentiles.

        ``queue_depth`` and ``cache_stats`` (a
        :class:`~repro.inference.cache.CacheStats`) are gauges owned by the
        server/cache and are merged in when provided (and mirrored into the
        registry so a ``/metrics`` scrape sees them too).  Latency summaries
        come from :meth:`~repro.utils.timing.LatencyWindow.summary`, so a
        server that has not completed a request yet reports ``NaN``
        percentiles rather than a fake zero latency.
        """
        elapsed = max(time.monotonic() - self._started, 1e-9)
        batches = self.batches
        completed = self.completed
        points = self.points_decoded
        snap = {
            "uptime_seconds": elapsed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": completed,
            "timed_out": self.timed_out,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "batches": batches,
            "points_decoded": points,
            "shed": self.shed,
            "worker_crashes": self.worker_crashes,
            "breaker_transitions": self.breaker_transitions,
            "requests_per_batch": (self.batched_requests / batches
                                   if batches else 0.0),
            "coalesced_requests": self.coalesced_requests,
            "requests_per_second": completed / elapsed,
            "points_per_second": points / elapsed,
        }
        latency = self.latency.summary()
        snap.update({f"latency_{k}": v for k, v in latency.items() if k != "count"})
        queue_wait = self.queue_wait.summary()
        snap.update({f"queue_wait_{k}": v for k, v in queue_wait.items() if k != "count"})
        reg = self.registry
        reg.gauge("serving.uptime_seconds").set(elapsed)
        if queue_depth is not None:
            snap["queue_depth"] = queue_depth
            reg.gauge("serving.queue_depth").set(queue_depth)
        if cache_stats is not None:
            snap["cache_hits"] = cache_stats.hits
            snap["cache_misses"] = cache_stats.misses
            snap["cache_evictions"] = cache_stats.evictions
            snap["cache_hit_rate"] = cache_stats.hit_rate
            reg.gauge("serving.cache_hits").set(cache_stats.hits)
            reg.gauge("serving.cache_misses").set(cache_stats.misses)
            reg.gauge("serving.cache_evictions").set(cache_stats.evictions)
            reg.gauge("serving.cache_hit_rate").set(cache_stats.hit_rate)
        return snap


def format_stats_table(snapshot: Mapping[str, float]) -> str:
    """Render a telemetry snapshot as an aligned two-column text table.

    ``NaN`` latency entries (no completed requests yet) render as ``n/a``.
    """
    rows = []
    for key, value in snapshot.items():
        if isinstance(value, float):
            if math.isnan(value):
                shown = "n/a"
            elif key.startswith(("latency_", "queue_wait_")) and not key.endswith("count"):
                shown = f"{value * 1e3:.3f} ms"
            else:
                shown = f"{value:.3f}"
        else:
            shown = str(value)
        rows.append((key, shown))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)
