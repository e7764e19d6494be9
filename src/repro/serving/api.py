"""Minimal stdlib HTTP gateway and synchronous client for a ModelServer.

The gateway is a :class:`http.server.ThreadingHTTPServer` whose handler
translates request bodies into :class:`~repro.serving.requests.QueryRequest`
objects and blocks on the in-process :class:`~repro.serving.server.ModelServer`.
Arrays cross the wire as their own bytes, in one *frame* used in both
directions (:func:`_pack` / :func:`_unpack`)::

    frame  = u32le(len(header)) header array
    header = UTF-8 JSON object; "shape" (list or null) and "dtype"
             ("float64" / "float32") describe ``array``
    array  = prod(shape) * itemsize bytes, C order, little-endian
             (``<f8`` / ``<f4``); absent when "shape" is null

so a client receives the engine's values bit for bit (``nan``, ``+-inf``,
``-0.0`` included) at ``itemsize * C_out`` bytes per point.  The wire is
little-endian whatever the host: a big-endian host byteswaps at this boundary.

Negotiation is by the request's own headers.  ``POST /query`` answers 200
with a frame (``Content-Type: application/octet-stream``) when the request
carries ``Accept: application/octet-stream``, and reads its body as a frame
when the request's ``Content-Type`` says so; :class:`Client` does both,
always.  Otherwise the gateway speaks JSON, which is what ``curl`` gets: the
values travel as a flat list and still round-trip losslessly (Python's
``repr``-based float serialisation is shortest-round-trip), at ~83 bytes per
point and with the non-standard ``NaN`` / ``Infinity`` tokens.  Replies other
than 200 and the ``GET`` endpoints are always JSON / text.

Endpoints
---------
``POST /query``
    JSON body: ``{"domain_id": str, "coords": [[t, z, x], ...]}`` *or*
    ``{"domain_id": str, "output_shape": [nt, nz, nx]}``, plus optional
    ``"priority"`` (int), ``"timeout"`` (seconds) and ``"dtype"``
    (``"float32"`` / ``"float64"`` — a precision the server was built to
    serve).  Frame body: header ``{"query": <that object without "coords">,
    "shape": [P, 3] | null, "dtype": "float64"}``, the coords as the array.
    Response: ``{"request_id", "status", "error", ...timings, "shape",
    "dtype"}`` as a frame header followed by the values, or the same JSON
    object with a ``"values"`` list.  400 malformed, 413 body above
    :data:`MAX_BODY_BYTES`, 503 overloaded / shutting down.
``GET /stats``
    Telemetry snapshot (see :meth:`ModelServer.stats`).
``GET /health``
    Liveness probe: ``{"status": "ok", "workers": N, "domains": [...]}``.
``GET /metrics``
    Prometheus-style text exposition of the server's telemetry registry
    merged with the process-wide :data:`repro.obs.REGISTRY` (plan caches,
    tile caches, profiler histograms).
"""

from __future__ import annotations

import io
import json
import logging
import math
import threading
from contextlib import contextmanager
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from ..faults import Retry, TransientError
from ..obs.trace import span as _span
from .requests import QueryRequest, QueryResult
from .scheduler import BatchPolicy, SchedulerClosedError, ServerOverloadedError
from .server import ModelServer

__all__ = ["start_http_server", "stop_http_server", "Client", "ServingUnavailable"]

logger = logging.getLogger("repro.serving")

FRAME_TYPE = "application/octet-stream"
_WIRE_DTYPES = {"float64": "<f8", "float32": "<f4"}
# Largest request body read: the coords frame of a query that fills a default
# micro-batch (``max_points`` x 3 float64), times four so that the same query
# as JSON text (<= 26 bytes per value) fits too.  3 MiB.
MAX_BODY_BYTES = 4 * BatchPolicy.max_points * 3 * 8


class ServingUnavailable(TransientError):
    """The gateway answered 503 (overloaded / shutting down) — retryable."""


def _pack(header: dict, array: Optional[np.ndarray]) -> Tuple[bytes, memoryview]:
    """Frame ``header`` + ``array`` -> (length-prefixed header, array bytes).

    The second part is a view of ``array``'s own memory (no copy for a
    C-contiguous array on a little-endian host), empty when ``array`` is
    ``None``; ``header`` gains the ``shape`` / ``dtype`` that describe it.
    """
    header, data = dict(header, shape=None), memoryview(b"")
    if array is not None:
        header.update(shape=list(array.shape), dtype=array.dtype.name)
        wire = np.ascontiguousarray(array, dtype=_WIRE_DTYPES[array.dtype.name])
        data = wire.reshape(-1).view(np.uint8).data
    head = json.dumps(header).encode()
    return len(head).to_bytes(4, "little") + head, data


def _unpack(stream, length: Optional[int]) -> Tuple[dict, Optional[np.ndarray]]:
    """Read one ``length``-byte frame from ``stream`` -> (header, array or None).

    Every declared size is checked against ``length`` before anything is
    allocated, so a lying or truncated frame is a ``ValueError``, never a
    short ``readinto``.  The array is read straight into a fresh ``np.empty``:
    it is writable, C-contiguous and owns its memory.
    """
    n_head = int.from_bytes(stream.read(4), "little")
    n_data = (length or 0) - 4 - n_head
    if n_data < 0:
        raise ValueError(f"frame header of {n_head} bytes overruns the {length}-byte body")
    header = json.loads(stream.read(n_head))
    if not isinstance(header, dict):
        raise ValueError("frame header is not a JSON object")
    shape, declared = header.get("shape"), 0
    if shape is not None:
        shape = tuple(int(v) for v in shape)
        dtype = np.dtype(_WIRE_DTYPES[header["dtype"]])
        declared = math.prod(shape) * dtype.itemsize
    if declared != n_data:
        raise ValueError(f"frame declares {declared} array bytes but carries {n_data}")
    if shape is None:
        return header, None
    array = np.empty(shape, dtype)
    if stream.readinto(array.reshape(-1).view(np.uint8)) != n_data:
        raise ValueError("truncated frame")
    return header, array.astype(dtype.newbyteorder("="), copy=False)


def _encode_result(result: QueryResult, framed: bool) -> tuple:
    """The one place a result becomes bytes -> (content type, head[, array part])."""
    payload = {
        "request_id": result.request_id,
        "status": result.status,
        "error": result.error,
        "queue_seconds": result.queue_seconds,
        "service_seconds": result.service_seconds,
        "batch_requests": result.batch_requests,
    }
    if framed:
        return (FRAME_TYPE, *_pack(payload, result.values))
    payload.update(shape=None, values=None)
    if result.values is not None:
        payload["shape"] = list(result.values.shape)
        payload["dtype"] = result.values.dtype.name
        payload["values"] = result.values.ravel().tolist()
    return "application/json", json.dumps(payload).encode()


def _make_handler(server: ModelServer):
    class ServingHandler(BaseHTTPRequestHandler):
        """Request handler bound to one :class:`ModelServer` instance."""

        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # noqa: D102 - silence default stderr log
            pass

        def _send(self, status: int, content_type: str, head: bytes, data=b"") -> None:
            """Reply in at most two writes: HTTP headers + ``head``, then ``data``."""
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(head) + len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            try:
                if self.request_version == "HTTP/0.9":  # has no header block
                    self.wfile.write(head)
                else:
                    # http.server queues the header lines until end_headers();
                    # the small first part rides on that one write.
                    self._headers_buffer.extend((b"\r\n", head))
                    self.flush_headers()
                if len(data):
                    self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError) as exc:
                logger.debug("client %s hung up mid-reply: %s", self.client_address, exc)
                self.close_connection = True

        def _send_json(self, payload: dict, status: int = 200) -> None:
            self._send(status, "application/json", json.dumps(payload).encode())

        def _read_body(self) -> Optional[bytes]:
            """The request body, or ``None`` after answering 400 / 413."""
            declared = self.headers.get("Content-Length", "0")
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if 0 <= length <= MAX_BODY_BYTES:
                return self.rfile.read(length)
            self.close_connection = True  # the unread body cannot be skipped
            self._send_json({"error": f"bad request: Content-Length {declared!r} is not an "
                                      f"integer in [0, {MAX_BODY_BYTES}]"},
                            status=400 if length < 0 else 413)
            return None

        def do_GET(self):  # noqa: N802 - http.server API
            if self.path == "/stats":
                self._send_json(server.stats())
            elif self.path == "/health":
                self._send_json({"status": "ok", "workers": server.n_workers,
                                 "domains": server.domains()})
            elif self.path == "/metrics":
                from ..obs import REGISTRY, prometheus_text

                # stats() refreshes the snapshot-time gauges (queue depth,
                # cache counters) in the telemetry registry before scraping.
                server.stats()
                self._send(200, "text/plain; version=0.0.4",
                           prometheus_text(server.telemetry.registry, REGISTRY).encode())
            else:
                self._send_json({"error": f"unknown path {self.path}"}, status=404)

        def do_POST(self):  # noqa: N802 - http.server API
            if self.path != "/query":
                self._send_json({"error": f"unknown path {self.path}"}, status=404)
                return
            raw = self._read_body()
            if raw is None:
                return
            try:
                if self.headers.get_content_type() == FRAME_TYPE:
                    header, coords = _unpack(io.BytesIO(raw), len(raw))
                    body = dict(header["query"], coords=coords)
                else:
                    body = json.loads(raw or b"{}")
                request = QueryRequest(
                    domain_id=body["domain_id"],
                    coords=body.get("coords"),
                    output_shape=(tuple(body["output_shape"])
                                  if body.get("output_shape") is not None else None),
                    priority=int(body.get("priority", 0)),
                    dtype=body.get("dtype"),
                )
                timeout = body.get("timeout")
                if timeout is not None:
                    timeout = float(timeout)
            except (KeyError, TypeError, ValueError) as exc:
                self._send_json({"error": f"bad request: {exc}"}, status=400)
                return
            try:
                # Root span of the request's trace: the scheduler captures
                # this context at submit time and the worker-side batch span
                # stitches onto it across the queue handoff.
                with _span("gateway.request", parent=None,
                           domain=request.domain_id, n_points=request.n_points):
                    result = server.query(request, timeout=timeout)
            except ValueError as exc:
                self._send_json({"error": str(exc)}, status=400)
                return
            except (ServerOverloadedError, SchedulerClosedError) as exc:
                self._send_json({"error": str(exc), "status": "rejected"}, status=503)
                return
            self._send(200, *_encode_result(result, FRAME_TYPE in self.headers.get("Accept", "")))

    return ServingHandler


def start_http_server(server: ModelServer, host: str = "127.0.0.1",
                      port: int = 0) -> ThreadingHTTPServer:
    """Serve ``server`` over HTTP in a daemon thread; returns the httpd.

    ``port=0`` binds an ephemeral port — read the actual one from
    ``httpd.server_address[1]``.  Stop with :func:`stop_http_server`.
    """
    httpd = ThreadingHTTPServer((host, port), _make_handler(server))
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever,
                              name="serving-http", daemon=True)
    httpd._serving_thread = thread  # type: ignore[attr-defined]
    thread.start()
    return httpd


def stop_http_server(httpd: ThreadingHTTPServer, timeout: float = 10.0) -> bool:
    """Stop a gateway started by :func:`start_http_server` and join its thread.

    Returns ``True`` when the serving thread exited within ``timeout``.
    A stuck thread (e.g. a handler blocked on a wedged worker) is logged
    and abandoned — it is a daemon thread, so it cannot block interpreter
    exit — and ``False`` is returned so callers can surface the failed
    drain instead of silently assuming a clean shutdown.
    """
    httpd.shutdown()
    httpd.server_close()
    thread = getattr(httpd, "_serving_thread", None)
    if thread is None:
        return True
    thread.join(timeout=timeout)
    if thread.is_alive():
        logger.warning("HTTP gateway thread %s did not exit within %.1fs; "
                       "abandoning it (drain incomplete)", thread.name, timeout)
        return False
    return True


class Client:
    """Synchronous convenience client for the HTTP gateway.

    Opens one connection per call (thread-safe without shared state) and
    speaks the module's frame in both directions; values come back in the
    served precision (float64 by default) as the engine's own bytes — a
    writable array, bit-identical to a direct engine call at that precision.

    ``retry`` opts into idempotent retries: every gateway call is a pure
    read or a deterministic re-computable query, so connection errors,
    socket timeouts and 503s (:class:`ServingUnavailable`) are safely
    retried under the given :class:`~repro.faults.Retry` policy.  Off by
    default — callers that cannot tolerate duplicate work keep fail-fast
    semantics.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout: Optional[float] = 60.0,
                 retry: Optional[Retry] = None):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retry = retry

    # ---------------------------------------------------------------- plumbing
    @staticmethod
    def _retryable(exc: BaseException) -> bool:
        # OSError covers refused/reset connections and socket timeouts;
        # HTTPException covers torn responses. All requests are idempotent.
        return isinstance(exc, (ServingUnavailable, OSError, HTTPException))

    def _call(self, method: str, path: str, payload: Optional[dict] = None, once=None):
        once = once or self._call_once
        if self.retry is None:
            return once(method, path, payload)
        return self.retry.call(once, method, path, payload,
                               classify=self._retryable, label=f"client:{path}")

    @contextmanager
    def _fetch(self, method: str, path: str, payload: Optional[dict] = None):
        """One exchange on a fresh connection; yields the 2xx response, raises otherwise."""
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body, headers = None, {"Accept": FRAME_TYPE}
            if payload is not None:
                query = dict(payload)
                coords = query.pop("coords", None)
                if coords is not None:
                    coords = np.asarray(coords, dtype=np.float64)
                body = b"".join(_pack({"query": query}, coords))
                headers["Content-Type"] = FRAME_TYPE
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            if response.status >= 400:
                error = json.loads(response.read() or b"{}").get("error")
                if response.status == 503:
                    raise ServingUnavailable(f"{method} {path} unavailable (503): {error}")
                raise RuntimeError(f"{method} {path} failed ({response.status}): {error}")
            yield response
        finally:
            conn.close()

    def _call_once(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        with self._fetch(method, path, payload) as response:
            if response.getheader("Content-Type") != FRAME_TYPE:
                return json.loads(response.read() or b"{}")
            data, values = _unpack(response, response.length)
            data["values"] = values
            return data

    @staticmethod
    def _to_result(data: dict) -> QueryResult:
        return QueryResult(
            request_id=data["request_id"], status=data["status"], values=data.get("values"),
            error=data.get("error"), queue_seconds=data.get("queue_seconds", 0.0),
            service_seconds=data.get("service_seconds", 0.0),
            batch_requests=data.get("batch_requests", 1),
        )

    # ------------------------------------------------------------------- calls
    def query_points(self, domain_id: str, coords, priority: int = 0,
                     timeout: Optional[float] = None,
                     dtype: Optional[str] = None) -> QueryResult:
        """Decode values at ``(P, 3)`` coordinates of a registered domain."""
        payload = {"domain_id": domain_id, "coords": coords,
                   "priority": priority, "timeout": timeout, "dtype": dtype}
        return self._to_result(self._call("POST", "/query", payload))

    def predict_grid(self, domain_id: str, output_shape, priority: int = 0,
                     timeout: Optional[float] = None,
                     dtype: Optional[str] = None) -> QueryResult:
        """Super-resolve a registered domain onto a regular grid."""
        payload = {"domain_id": domain_id,
                   "output_shape": [int(v) for v in output_shape],
                   "priority": priority, "timeout": timeout, "dtype": dtype}
        return self._to_result(self._call("POST", "/query", payload))

    def stats(self) -> dict:
        """Server telemetry snapshot."""
        return self._call("GET", "/stats")

    def health(self) -> dict:
        """Liveness probe."""
        return self._call("GET", "/health")

    def metrics_text(self) -> str:
        """Raw Prometheus text exposition from ``GET /metrics``."""
        def once(method, path, payload):
            with self._fetch(method, path) as response:
                return response.read().decode()
        return self._call("GET", "/metrics", once=once)
