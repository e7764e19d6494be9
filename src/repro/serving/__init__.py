"""Asynchronous model-serving subsystem with dynamic cross-request batching.

The ROADMAP's north star is serving heavy traffic from many concurrent
clients.  :mod:`repro.inference` made a *single* request cheap (tiling +
latent LRU cache + fused decode batches); this package makes *many
concurrent* requests cheap by coalescing them onto that machinery:

* :mod:`~repro.serving.requests` — typed :class:`QueryRequest` /
  :class:`QueryResult` dataclasses (point sets or regular grids, per-request
  domain id, priority, deadline);
* :mod:`~repro.serving.scheduler` — a dynamic micro-batching scheduler that
  drains a bounded priority queue under a max-batch-size / max-wait policy
  and coalesces queries from *different* requests into shared fused decode
  batches, reusing the engine's planner and latent-tile cache;
* :mod:`~repro.serving.server` — :class:`ModelServer`: asyncio-awaitable
  submission over a thread pool of engine replicas (shared weights, one
  shared latent cache), with backpressure, per-request timeout/cancellation
  and graceful shutdown;
* :mod:`~repro.serving.telemetry` — rolling throughput, queue depth, cache
  hit-rate and p50/p95/p99 latency counters;
* :mod:`~repro.serving.api` — a stdlib ``http.server`` gateway (arrays as
  raw-byte frames, JSON for header-less requests) plus a synchronous
  :class:`Client`.

Coalesced results are bit-identical to issuing each request alone through
the :class:`~repro.inference.InferenceEngine`.  A server can host replica
fleets at several precisions (``ModelServer(precisions=("float64",
"float32"))``); requests pick one per call via ``QueryRequest.dtype`` and
batches are coalesced within each ``(domain, dtype)`` group.

Quickstart
----------
>>> from repro import MeshfreeFlowNet, MeshfreeFlowNetConfig
>>> from repro.serving import ModelServer, QueryRequest
>>> model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
>>> server = ModelServer(model)
>>> # server.register_domain("rb0", lowres)   # (N, C, nt, nz, nx) array
>>> # result = server.query(QueryRequest("rb0", coords=points))
>>> server.close()
"""

from .requests import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    QueryRequest,
    QueryResult,
)
from .scheduler import (
    BatchPolicy,
    MicroBatchScheduler,
    SchedulerClosedError,
    ServerOverloadedError,
    run_batch,
)
from .server import ModelServer
from .telemetry import ServerTelemetry, format_stats_table
from .api import Client, ServingUnavailable, start_http_server, stop_http_server

__all__ = [
    "QueryRequest",
    "QueryResult",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_CANCELLED",
    "STATUS_ERROR",
    "BatchPolicy",
    "MicroBatchScheduler",
    "ServerOverloadedError",
    "SchedulerClosedError",
    "run_batch",
    "ModelServer",
    "ServerTelemetry",
    "format_stats_table",
    "Client",
    "ServingUnavailable",
    "start_http_server",
    "stop_http_server",
]
