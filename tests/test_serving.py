"""Serving subsystem: requests, scheduler, coalescing exactness, server, HTTP."""

import asyncio
import collections
import io
import json
import logging
import socket
import struct
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import precision
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.faults import FaultPlan
from repro.inference import InferenceEngine
from repro.serving import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    BatchPolicy,
    Client,
    MicroBatchScheduler,
    ModelServer,
    QueryRequest,
    QueryResult,
    SchedulerClosedError,
    ServerOverloadedError,
    ServerTelemetry,
    ServingUnavailable,
    format_stats_table,
    run_batch,
    start_http_server,
    stop_http_server,
)
from repro.serving.api import FRAME_TYPE, MAX_BODY_BYTES, _encode_result, _pack, _unpack


@pytest.fixture(scope="module")
def model():
    """Eval-mode tiny model shared by all serving tests (read-only)."""
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()


@pytest.fixture(scope="module")
def domain():
    """A (1, 4, 4, 16, 16) low-resolution domain."""
    rng = np.random.default_rng(7)
    return rng.standard_normal((1, 4, 4, 16, 16))


@pytest.fixture(scope="module")
def big_domain():
    """A (1, 4, 4, 24, 40) domain large enough for multi-tile layouts."""
    rng = np.random.default_rng(8)
    return rng.standard_normal((1, 4, 4, 24, 40))


def make_server(model, **kwargs):
    kwargs.setdefault("n_workers", 2)
    return ModelServer(model, **kwargs)


# --------------------------------------------------------------------------- #
# Request / result dataclasses                                                #
# --------------------------------------------------------------------------- #
class TestQueryRequest:
    def test_point_request(self):
        request = QueryRequest("d", coords=[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert not request.is_grid and request.n_points == 2
        assert request.coords.dtype == np.float64
        assert request.request_id.startswith("req-")

    def test_grid_request(self):
        request = QueryRequest("d", output_shape=(2, 4, 8))
        assert request.is_grid and request.n_points == 64

    def test_exactly_one_payload(self):
        with pytest.raises(ValueError):
            QueryRequest("d")
        with pytest.raises(ValueError):
            QueryRequest("d", coords=np.zeros((1, 3)), output_shape=(1, 1, 1))

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            QueryRequest("d", coords=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            QueryRequest("d", coords=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            QueryRequest("d", output_shape=(1, 2))
        with pytest.raises(ValueError):
            QueryRequest("d", output_shape=(0, 2, 2))

    def test_deadline_helpers(self):
        request = QueryRequest("d", coords=np.zeros((1, 3)))
        assert not request.expired()
        request.with_timeout(1e-9)
        time.sleep(0.002)
        assert request.expired()
        assert QueryRequest("d", coords=np.zeros((1, 3))).with_timeout(None).deadline is None

    def test_result_raise_for_status(self):
        ok = QueryResult(request_id="r", status=STATUS_OK)
        assert ok.ok and ok.raise_for_status() is ok
        with pytest.raises(RuntimeError, match="timeout"):
            QueryResult(request_id="r", status=STATUS_TIMEOUT).raise_for_status()


# --------------------------------------------------------------------------- #
# Micro-batching scheduler                                                    #
# --------------------------------------------------------------------------- #
class TestScheduler:
    def coords(self, n=4):
        return np.random.default_rng(0).random((n, 3))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_requests=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_points=0)

    def test_priority_order(self):
        scheduler = MicroBatchScheduler(BatchPolicy(max_requests=1))
        for priority in (0, 5, 1):
            scheduler.submit(QueryRequest("d", coords=self.coords(), priority=priority))
        drained = [scheduler.next_batch()[0].request.priority for _ in range(3)]
        assert drained == [5, 1, 0]

    def test_fifo_within_priority(self):
        scheduler = MicroBatchScheduler(BatchPolicy(max_requests=8))
        ids = [scheduler.submit(QueryRequest("d", coords=self.coords())) and None
               for _ in range(3)]
        assert ids == [None, None, None]
        batch = scheduler.next_batch()
        seqs = [item.seq for item in batch]
        assert seqs == sorted(seqs)

    def test_max_requests_bound(self):
        scheduler = MicroBatchScheduler(BatchPolicy(max_requests=2))
        for _ in range(5):
            scheduler.submit(QueryRequest("d", coords=self.coords()))
        assert len(scheduler.next_batch()) == 2
        assert len(scheduler) == 3

    def test_max_points_bound(self):
        scheduler = MicroBatchScheduler(BatchPolicy(max_points=10))
        for _ in range(3):
            scheduler.submit(QueryRequest("d", coords=self.coords(4)))
        # 4 + 4 fits the 10-point budget; the third request would exceed it.
        assert len(scheduler.next_batch()) == 2
        # A single oversized request still forms a batch alone.
        scheduler.submit(QueryRequest("d", coords=self.coords(64)))
        scheduler.next_batch()  # drain the leftover small request
        assert len(scheduler.next_batch()) == 1

    def test_queued_requests_are_taken_without_waiting(self, monkeypatch):
        """With k requests queued, next_batch returns them all and never waits."""
        scheduler = MicroBatchScheduler(BatchPolicy(max_requests=4))
        for _ in range(6):
            scheduler.submit(QueryRequest("d", coords=self.coords()))

        def no_wait(timeout=None):
            raise AssertionError("next_batch waited although requests were queued")

        monkeypatch.setattr(scheduler._cond, "wait", no_wait)
        assert [len(scheduler.next_batch()) for _ in range(2)] == [4, 2]  # capped, then the rest
        assert len(scheduler) == 0

    def test_empty_queue_waits_untimed_until_a_submit(self, monkeypatch):
        """With nothing queued and no ``timeout=``, the only wait has no timer."""
        scheduler = MicroBatchScheduler()
        request = QueryRequest("d", coords=self.coords())
        waits = []

        def wait(timeout=None):  # a submit arrives while the worker waits
            waits.append(timeout)
            scheduler.submit(request)

        monkeypatch.setattr(scheduler._cond, "wait", wait)
        (item,) = scheduler.next_batch()
        assert item.request is request
        assert waits == [None]

    def test_backpressure_and_close(self):
        scheduler = MicroBatchScheduler(BatchPolicy(), max_pending=1)
        scheduler.submit(QueryRequest("d", coords=self.coords()))
        with pytest.raises(ServerOverloadedError):
            scheduler.submit(QueryRequest("d", coords=self.coords()))
        scheduler.close()
        assert scheduler.closed
        with pytest.raises(SchedulerClosedError):
            scheduler.submit(QueryRequest("d", coords=self.coords()))
        # Queued work is still drained, then the exit signal follows.
        assert len(scheduler.next_batch()) == 1
        assert scheduler.next_batch() is None

    def test_empty_timeout_returns_empty_list(self):
        scheduler = MicroBatchScheduler()
        assert scheduler.next_batch(timeout=0.01) == []


# --------------------------------------------------------------------------- #
# Coalescing exactness: server results == direct engine results               #
# --------------------------------------------------------------------------- #
class TestCoalescingExactness:
    def test_concurrent_point_queries_bit_identical(self, model, domain):
        """8 clients' coalesced point queries equal solo engine calls exactly."""
        engine = InferenceEngine(model)
        rng = np.random.default_rng(1)
        point_sets = [rng.random((15, 3)) for _ in range(8)]
        expected = [engine.query_points(domain, coords) for coords in point_sets]
        with make_server(model) as server:
            server.register_domain("dom", domain)
            futures = [server.submit(QueryRequest("dom", coords=c)) for c in point_sets]
            results = [f.result(timeout=60) for f in futures]
        for result, want in zip(results, expected):
            assert result.status == STATUS_OK
            assert np.array_equal(result.values, want)

    def test_tiled_mode_coalescing_bit_identical(self, model, big_domain):
        """Cross-request coalescing stays exact with a multi-tile layout.

        Requests of 1-3 points are the hard case: alone they decode only a
        handful of rows, and a decoder matmul with a single row takes BLAS's
        matrix-vector path, whose bits differ from the matrix-matrix path a
        coalesced batch takes.  A pre-filled scheduler hands all sixteen
        requests to ``run_batch`` as one micro-batch — no threads, no clock.
        """
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        rng = np.random.default_rng(2)
        point_sets = [rng.random((n, 3)) for n in (1, 2, 3, 11) * 4]
        expected = [engine.query_points(big_domain, coords) for coords in point_sets]
        scheduler = MicroBatchScheduler()
        futures = [scheduler.submit(QueryRequest("dom", coords=c)) for c in point_sets]
        batch = scheduler.next_batch()
        assert len(batch) == len(point_sets)
        run_batch(engine, batch, lambda domain_id: (big_domain, (domain_id, 0)))
        for future, want in zip(futures, expected):
            result = future.result(timeout=0)
            assert result.batch_requests == len(point_sets)
            assert np.array_equal(result.values, want)

    def test_batches_form_under_load_without_a_timer(self, model, big_domain):
        """Requests arriving while the worker is busy become exactly one batch.

        The single worker is parked inside ``resolve_domain`` on an event
        while N requests queue up; once released it must take all N as one
        further batch (work-conserving: nothing was waited for, nothing was
        left behind), every value equal to a solo engine call, and the
        server's counters must account for every submission.
        """
        engine = InferenceEngine(model, tile_shape=(4, 16, 16))
        rng = np.random.default_rng(12)
        point_sets = [rng.random((n, 3)) for n in (1, 2, 3, 11, 40) * 2]
        expected = [engine.query_points(big_domain, coords) for coords in point_sets]
        parked, release = threading.Event(), threading.Event()
        with make_server(model, tile_shape=(4, 16, 16), n_workers=1) as server:
            server.register_domain("dom", big_domain)
            resolve = server._resolve_domain

            def parking_resolve(domain_id):
                if not parked.is_set():  # the first batch only
                    parked.set()
                    assert release.wait(timeout=60)
                return resolve(domain_id)

            server._resolve_domain = parking_resolve
            first = server.submit(QueryRequest("dom", coords=point_sets[0]))
            assert parked.wait(timeout=60)
            futures = [server.submit(QueryRequest("dom", coords=c)) for c in point_sets]
            release.set()
            assert first.result(timeout=60).batch_requests == 1
            results = [future.result(timeout=60) for future in futures]
            stats = server.stats()
        for result, want in zip(results, expected):
            assert result.ok and result.batch_requests == len(point_sets)
            assert np.array_equal(result.values, want)
        assert stats["batches"] == 2
        # Conservation: every submission reached exactly one terminal status.
        assert stats["accepted"] == 1 + len(point_sets) and stats["rejected"] == stats["shed"] == 0
        assert stats["accepted"] + stats["rejected"] == (
            stats["completed"] + stats["timed_out"] + stats["errors"]
            + stats["shed"] + stats["cancelled"])

    def test_grid_request_bit_identical(self, model, domain):
        engine = InferenceEngine(model)
        expected = engine.predict_grid(domain, (4, 16, 16))
        with make_server(model) as server:
            server.register_domain("dom", domain)
            result = server.query(QueryRequest("dom", output_shape=(4, 16, 16)))
        assert result.status == STATUS_OK
        assert np.array_equal(result.values, expected)

    def test_mixed_domains_in_one_batch(self, model, domain):
        """Requests against different domains in one batch stay separated."""
        other = domain + 1.0
        engine = InferenceEngine(model)
        coords = np.random.default_rng(3).random((9, 3))
        want_a = engine.query_points(domain, coords)
        want_b = engine.query_points(other, coords)
        assert not np.array_equal(want_a, want_b)
        with make_server(model) as server:
            server.register_domain("a", domain)
            server.register_domain("b", other)
            fut_a = server.submit(QueryRequest("a", coords=coords))
            fut_b = server.submit(QueryRequest("b", coords=coords))
            assert np.array_equal(fut_a.result(60).values, want_a)
            assert np.array_equal(fut_b.result(60).values, want_b)


# --------------------------------------------------------------------------- #
# Counter conservation over generated schedules                               #
# --------------------------------------------------------------------------- #
class TestCounterConservation:
    """Every admitted request reaches exactly one terminal status, whatever
    the schedule.  ``rejected`` counts backpressure rejections and sheds
    alike, so once ``close()`` returns the counters conserve as
    ``accepted == completed + timed_out + errors + cancelled`` and
    ``rejected >= shed``; each terminal counter equals the number of
    futures that ended that way."""

    @settings(max_examples=25, deadline=None)
    @given(schedule=st.lists(st.tuples(st.sampled_from(["serve", "expired", "cancel"]),
                                       st.integers(0, 1)), min_size=1, max_size=12),
           n_workers=st.sampled_from([1, 2]), shed=st.booleans(),
           crash_at=st.sampled_from([None, 1, 2]), drain=st.booleans())
    def test_counters_conserve_after_close(self, model, domain, schedule, n_workers, shed,
                                           crash_at, drain):
        plan = FaultPlan(seed=0)
        plan.delay("serving.worker", 0.005, every=1)  # a backlog forms: backpressure, sheds
        if crash_at is not None:
            plan.fail("serving.worker", at=(crash_at,), message="generated crash")
        server = make_server(model, n_workers=n_workers, max_pending=4,
                             policy=BatchPolicy(max_requests=2),
                             shed_watermark=0.5 if shed else 1.0, shed_priority=0)
        server.register_domain("dom", domain)
        coords = np.random.default_rng(5).random((3, 3))
        futures = []
        with plan:
            for kind, priority in schedule:
                request = QueryRequest("dom", coords=coords, priority=priority)
                try:
                    future = server.submit(request, timeout=0.0 if kind == "expired" else None)
                except ServerOverloadedError:
                    continue
                if kind == "cancel":
                    future.cancel()
                futures.append(future)
            assert server.close(drain=drain)
        stats = server.stats()
        assert all(future.done() for future in futures)
        ended = collections.Counter(STATUS_CANCELLED if future.cancelled() else future.result().status
                                    for future in futures)
        assert stats["accepted"] == len(futures)
        assert stats["accepted"] + stats["rejected"] == len(schedule)
        assert stats["rejected"] >= stats["shed"]
        assert stats["accepted"] == (stats["completed"] + stats["timed_out"] + stats["errors"]
                                     + stats["cancelled"])
        assert (stats["completed"], stats["timed_out"], stats["errors"], stats["cancelled"]) == (
            ended[STATUS_OK], ended[STATUS_TIMEOUT], ended[STATUS_ERROR], ended[STATUS_CANCELLED])


# --------------------------------------------------------------------------- #
# Server lifecycle, errors, backpressure, async front end                     #
# --------------------------------------------------------------------------- #
class TestModelServer:
    def test_unknown_domain_is_error_result(self, model, domain):
        with make_server(model) as server:
            result = server.query(QueryRequest("nope", coords=np.random.random((3, 3))))
        assert result.status == STATUS_ERROR and "unknown domain" in result.error

    def test_register_domain_validation(self, model):
        with make_server(model) as server:
            with pytest.raises(ValueError):
                server.register_domain("bad", np.zeros((4, 4, 4)))

    def test_reregister_invalidates_cached_latents(self, model, domain):
        """Re-registering a domain id must not serve stale latents."""
        coords = np.random.default_rng(4).random((6, 3))
        engine = InferenceEngine(model)
        with make_server(model) as server:
            server.register_domain("dom", domain)
            first = server.query(QueryRequest("dom", coords=coords))
            changed = domain * 2.0
            server.register_domain("dom", changed)
            second = server.query(QueryRequest("dom", coords=coords))
        assert np.array_equal(first.values, engine.query_points(domain, coords))
        assert np.array_equal(second.values, engine.query_points(changed, coords))

    def test_submit_does_not_mutate_caller_request(self, model, domain):
        """A timeout is applied to a copy; the caller's request stays reusable."""
        with make_server(model) as server:
            server.register_domain("dom", domain)
            request = QueryRequest("dom", coords=np.random.random((3, 3)))
            first = server.query(request, timeout=30.0)
            assert request.deadline is None  # caller object untouched
            second = server.query(request)   # resubmit without timeout
        assert first.status == STATUS_OK and second.status == STATUS_OK

    def test_reregister_bumps_cache_generation(self, model, domain):
        """New registrations use new cache keys, immune to in-flight encodes."""
        with make_server(model) as server:
            server.register_domain("dom", domain)
            _, key_before = server._resolve_domain("dom")
            server.register_domain("dom", domain * 2.0)
            _, key_after = server._resolve_domain("dom")
        assert key_before != key_after

    def test_reregister_tolerates_anonymous_cache_keys(self, model, domain):
        """Direct engine use leaves non-named cache keys; invalidation survives."""
        with make_server(model, n_workers=1) as server:
            server.engines[0].query_points(domain, np.random.random((3, 3)))
            server.register_domain("dom", domain)
            server.register_domain("dom", domain * 2.0)  # must not raise

    def test_expired_deadline_times_out_without_decoding(self, model, domain):
        with make_server(model) as server:
            server.register_domain("dom", domain)
            request = QueryRequest("dom", coords=np.random.random((4, 3)),
                                   deadline=time.monotonic() - 1.0)
            result = server.submit(request).result(timeout=60)
        assert result.status == STATUS_TIMEOUT and result.values is None

    def test_submit_async_front_end(self, model, domain):
        engine = InferenceEngine(model)
        coords = np.random.default_rng(5).random((8, 3))
        expected = engine.query_points(domain, coords)

        async def main(server):
            results = await asyncio.gather(*[
                server.submit_async(QueryRequest("dom", coords=coords))
                for _ in range(4)
            ])
            return results

        with make_server(model) as server:
            server.register_domain("dom", domain)
            results = asyncio.run(main(server))
        assert all(np.array_equal(r.values, expected) for r in results)

    def test_backpressure_rejects_and_counts(self, model, domain):
        # One-worker server with a tiny queue and slow-ish grid requests.
        server = ModelServer(model, n_workers=1, max_pending=2,
                             policy=BatchPolicy(max_requests=1))
        try:
            server.register_domain("dom", domain)
            rejected = 0
            futures = []
            for _ in range(40):
                try:
                    futures.append(server.submit(
                        QueryRequest("dom", output_shape=(4, 16, 16))))
                except ServerOverloadedError:
                    rejected += 1
            assert rejected > 0
            assert server.stats()["rejected"] == rejected
            for future in futures:
                assert future.result(timeout=120).status == STATUS_OK
        finally:
            server.close()

    def test_graceful_shutdown_drains_queue(self, model, domain):
        server = make_server(model)
        server.register_domain("dom", domain)
        futures = [server.submit(QueryRequest("dom", coords=np.random.random((5, 3))))
                   for _ in range(12)]
        server.close(drain=True)
        assert all(f.result(timeout=1).status == STATUS_OK for f in futures)
        with pytest.raises(SchedulerClosedError):
            server.submit(QueryRequest("dom", coords=np.random.random((2, 3))))

    def test_close_without_drain_cancels_pending(self, model, domain):
        server = ModelServer(model, n_workers=1,
                             policy=BatchPolicy(max_requests=1))
        server.register_domain("dom", domain)
        futures = [server.submit(QueryRequest("dom", output_shape=(4, 16, 16)))
                   for _ in range(10)]
        server.close(drain=False)
        statuses = set()
        for future in futures:
            if future.cancelled():
                statuses.add(STATUS_CANCELLED)
            else:
                statuses.add(future.result(timeout=60).status)
        assert statuses <= {STATUS_OK, STATUS_CANCELLED}
        assert STATUS_CANCELLED in statuses  # at least the tail was cancelled
        assert server.stats()["cancelled"] > 0  # counted in the telemetry

    def test_stats_snapshot_shape(self, model, domain):
        with make_server(model) as server:
            server.register_domain("dom", domain)
            server.query(QueryRequest("dom", coords=np.random.random((4, 3))))
            stats = server.stats()
        for key in ("accepted", "completed", "queue_depth", "cache_hit_rate",
                    "latency_p50", "latency_p95", "latency_p99",
                    "requests_per_second", "points_per_second", "requests_per_batch"):
            assert key in stats
        assert stats["completed"] == 1 and stats["accepted"] == 1
        table = format_stats_table(stats)
        assert "latency_p99" in table and "completed" in table

    def test_n_workers_validation(self, model):
        with pytest.raises(ValueError):
            ModelServer(model, n_workers=0)


# --------------------------------------------------------------------------- #
# Telemetry unit behaviour                                                    #
# --------------------------------------------------------------------------- #
class TestTelemetry:
    def test_counters_and_percentiles(self):
        telemetry = ServerTelemetry(window=16)
        telemetry.record_admission(True)
        telemetry.record_admission(False)
        telemetry.record_batch(n_requests=3, n_points=30)
        for seconds in (0.001, 0.002, 0.003):
            telemetry.record_result(QueryResult(
                request_id="r", status=STATUS_OK,
                queue_seconds=0.0005, service_seconds=seconds))
        telemetry.record_result(QueryResult(request_id="r", status=STATUS_TIMEOUT))
        snap = telemetry.snapshot(queue_depth=2)
        assert snap["accepted"] == 1 and snap["rejected"] == 1
        assert snap["completed"] == 3 and snap["timed_out"] == 1
        assert snap["requests_per_batch"] == 3.0
        assert snap["coalesced_requests"] == 3
        assert snap["queue_depth"] == 2
        assert snap["latency_p50"] > 0.0


# --------------------------------------------------------------------------- #
# Wire frame                                                                  #
# --------------------------------------------------------------------------- #
def _frame(header, array=None):
    return b"".join(_pack(header, array))


class TestFrame:
    """The wire frame on its own: exact bytes in, exact bytes out."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_special_values_round_trip_bit_for_bit(self, dtype):
        values = np.array([[np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1 / 3]], dtype=dtype)
        frame = _frame({"request_id": "r"}, values)
        header, out = _unpack(io.BytesIO(frame), len(frame))
        assert header == {"request_id": "r", "shape": [1, 7], "dtype": dtype}
        assert out.dtype == values.dtype and out.tobytes() == values.tobytes()
        assert np.signbit(out[0, 4]) and not np.signbit(out[0, 5])
        assert out.flags.writeable and out.flags.c_contiguous and out.flags.owndata
        assert len(frame) == 4 + struct.unpack("<I", frame[:4])[0] + values.nbytes

    def test_wire_is_c_order_little_endian_whatever_the_source_layout(self):
        values = np.arange(24, dtype=">f8").reshape(2, 3, 4).transpose(2, 0, 1)
        head, data = _pack({}, values)
        assert bytes(data) == np.ascontiguousarray(values, dtype="<f8").tobytes()
        _, out = _unpack(io.BytesIO(head + bytes(data)), len(head) + len(data))
        assert out.dtype.isnative and np.array_equal(out, values)

    def test_frame_without_array(self):
        frame = _frame({"status": "error", "error": "boom"})
        assert _unpack(io.BytesIO(frame), len(frame)) == (
            {"status": "error", "error": "boom", "shape": None}, None)

    def test_pack_does_not_copy_a_contiguous_array(self):
        values = np.random.default_rng(0).random((3, 5))
        assert np.shares_memory(np.frombuffer(_pack({}, values)[1]), values)

    @pytest.mark.parametrize("mutate", [
        lambda f: f[:-1],                                   # array cut short
        lambda f: f + b"\0",                                # bytes past the array
        lambda f: f[:3],                                    # no length prefix
        lambda f: struct.pack("<I", 2 ** 32 - 1) + f[4:],   # header overruns the body
        lambda f: struct.pack("<I", 2) + b"[]",             # header is not an object
        lambda f: _frame({"shape": [-1, -5], "dtype": "float64"}) + f[-40:],
        lambda f: _frame({"shape": [5], "dtype": "object"}) + f[-40:],
        lambda f: _frame({}) + b"\0" * 8,                   # array bytes, no shape
    ])
    def test_lying_frames_are_rejected_before_any_read(self, mutate):
        frame = mutate(_frame({}, np.zeros(5)))
        with pytest.raises((ValueError, KeyError)):
            _unpack(io.BytesIO(frame), len(frame))


class TestCodecAgreement:
    """The frame and the JSON fallback are two encodings of one result."""

    @staticmethod
    def _decode(framed, result):
        content_type, *parts = _encode_result(result, framed)
        body = b"".join(bytes(p) for p in parts)
        if content_type == FRAME_TYPE:
            data, data["values"] = _unpack(io.BytesIO(body), len(body))
        else:
            data = json.loads(body)
        return Client._to_result(data)

    @settings(max_examples=80, deadline=None)
    @given(status=st.sampled_from([STATUS_OK, STATUS_TIMEOUT, STATUS_CANCELLED, STATUS_ERROR]),
           dtype=st.sampled_from(["float64", "float32"]),
           shape=st.none() | st.lists(st.integers(0, 3), max_size=4),
           error=st.none() | st.text(max_size=20), seed=st.integers(0, 2**16))
    def test_frame_and_json_decode_to_the_same_result(self, status, dtype, shape, error, seed):
        rng = np.random.default_rng(seed)
        values = None
        if shape is not None:
            pool = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1 / 3, 1e-300, -7.5e30])
            values = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                              rng.standard_normal(shape)).astype(dtype)
        result = QueryResult(request_id=f"r{seed}", status=status, values=values, error=error,
                             queue_seconds=rng.random(), service_seconds=rng.random() * 1e-3,
                             batch_requests=int(rng.integers(1, 9)))
        framed, from_json = self._decode(True, result), self._decode(False, result)
        for decoded in (framed, from_json):
            assert (decoded.request_id, decoded.status, decoded.error, decoded.queue_seconds,
                    decoded.service_seconds, decoded.batch_requests) == (
                result.request_id, result.status, result.error, result.queue_seconds,
                result.service_seconds, result.batch_requests)
            if values is None:
                assert decoded.values is None
            else:
                assert isinstance(decoded.values, np.ndarray)
                assert decoded.values.dtype == values.dtype and decoded.values.shape == values.shape
                assert decoded.values.tobytes() == values.tobytes()


# --------------------------------------------------------------------------- #
# HTTP gateway + synchronous client                                           #
# --------------------------------------------------------------------------- #
class TestHTTPGateway:
    @pytest.fixture()
    def serving_stack(self, model, domain):
        server = make_server(model)
        server.register_domain("dom", domain)
        httpd = start_http_server(server)
        client = Client(port=httpd.server_address[1])
        yield server, client
        stop_http_server(httpd)
        server.close()

    def test_point_query_round_trip_exact(self, serving_stack, model, domain):
        server, client = serving_stack
        coords = np.random.default_rng(6).random((7, 3))
        expected = InferenceEngine(model).query_points(domain, coords)
        result = client.query_points("dom", coords)
        assert result.status == STATUS_OK
        # The framed reply carries the engine's own bytes: bit-identical.
        assert np.array_equal(result.values, expected)
        assert result.values.shape == expected.shape

    def test_grid_query_round_trip_exact(self, serving_stack, model, domain):
        _, client = serving_stack
        expected = InferenceEngine(model).predict_grid(domain, (4, 16, 16))
        result = client.predict_grid("dom", (4, 16, 16))
        assert np.array_equal(result.values, expected)

    def test_health_and_stats(self, serving_stack):
        _, client = serving_stack
        health = client.health()
        assert health["status"] == "ok" and health["domains"] == ["dom"]
        assert "latency_p99" in client.stats()

    def test_unknown_domain_surfaces_error_status(self, serving_stack):
        _, client = serving_stack
        result = client.query_points("missing", np.random.random((2, 3)))
        assert result.status == STATUS_ERROR

    def test_bad_request_raises(self, serving_stack):
        _, client = serving_stack
        with pytest.raises(RuntimeError, match="400|bad request"):
            client._call("POST", "/query", {"domain_id": "dom"})  # no payload
        with pytest.raises(RuntimeError, match="400|bad request"):
            client._call("POST", "/query", {"domain_id": "dom",
                                            "coords": [[0.1, 0.2, 0.3]],
                                            "timeout": "not-a-number"})
        with pytest.raises(RuntimeError, match="404|unknown path"):
            client._call("GET", "/nope")

    @pytest.fixture(scope="class")
    def stack(self, domain):
        with precision("float64"):
            model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
        server = make_server(model, precisions=("float64", "float32"))
        server.register_domain("dom", domain)
        httpd = start_http_server(server)
        port = httpd.server_address[1]
        engines = {"float64": InferenceEngine(model),
                   "float32": InferenceEngine(
                       model.replicate(1, share_parameters=False)[0].astype("float32").eval())}
        yield server, Client(port=port), port, engines
        stop_http_server(httpd)
        server.close()

    @staticmethod
    def post(port, body, headers):
        """One raw POST /query -> (status, content type, body bytes)."""
        conn = HTTPConnection("127.0.0.1", port, timeout=60.0)
        try:
            conn.request("POST", "/query", body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.getheader("Content-Type"), response.read()
        finally:
            conn.close()

    @staticmethod
    def raw(port, request: bytes) -> bytes:
        """Send raw bytes, return whatever comes back before the peer closes."""
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
            return b"".join(chunks)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("kind", ["grid", "points"])
    def test_framed_reply_equals_json_reply_and_engine(self, stack, domain, kind, dtype):
        _, client, port, engines = stack
        coords = np.random.default_rng(11).random((9, 3))
        if kind == "grid":
            query = {"domain_id": "dom", "output_shape": [4, 16, 16], "dtype": dtype}
            framed = client.predict_grid("dom", (4, 16, 16), dtype=dtype)
            expected = engines[dtype].predict_grid(domain, (4, 16, 16))
        else:
            query = {"domain_id": "dom", "coords": coords.tolist(), "dtype": dtype}
            framed = client.query_points("dom", coords, dtype=dtype)
            expected = engines[dtype].query_points(domain, coords)
        status, content_type, body = self.post(port, json.dumps(query), {})
        assert (status, content_type) == (200, "application/json")
        reply = json.loads(body)
        from_json = np.asarray(reply["values"], dtype=reply["dtype"]).reshape(reply["shape"])
        assert framed.ok and framed.values.dtype == np.dtype(dtype) == expected.dtype
        assert np.array_equal(framed.values, expected)
        assert np.array_equal(framed.values, from_json)

    @pytest.mark.parametrize("dtype, itemsize", [("float64", 8), ("float32", 4)])
    def test_framed_reply_byte_count(self, stack, dtype, itemsize):
        _, _, port, _ = stack
        query = json.dumps({"domain_id": "dom", "output_shape": [4, 32, 32], "dtype": dtype})
        status, content_type, body = self.post(port, query, {"Accept": FRAME_TYPE})
        assert (status, content_type) == (200, FRAME_TYPE)
        (n_head,) = struct.unpack("<I", body[:4])
        header = json.loads(body[4:4 + n_head])
        assert header["shape"] == [1, 4, 4, 32, 32] and header["dtype"] == dtype
        assert "values" not in header
        # itemsize * C_out = 32 (16) bytes per point, plus a constant: 131072 (65536).
        assert len(body) == 4 + n_head + 4 * 32 * 32 * 4 * itemsize

    def test_no_accept_header_gets_the_json_body(self, stack, domain):
        _, _, port, engines = stack
        query = json.dumps({"domain_id": "dom", "output_shape": [4, 16, 16]})
        for headers in ({}, {"Accept": "*/*"}, {"Content-Type": "application/json"}):
            status, content_type, body = self.post(port, query, headers)
            assert (status, content_type) == (200, "application/json")
            reply = json.loads(body)
            assert list(reply) == ["request_id", "status", "error", "queue_seconds",
                                   "service_seconds", "batch_requests", "shape", "values",
                                   "dtype"]
            assert body == json.dumps(reply).encode()
            expected = engines["float64"].predict_grid(domain, (4, 16, 16))
            assert reply["shape"] == list(expected.shape) and reply["dtype"] == "float64"
            assert reply["values"] == expected.ravel().tolist()

    def test_client_values_are_writable_and_own_their_memory(self, stack):
        _, client, _, _ = stack
        values = client.predict_grid("dom", (4, 16, 16)).values
        assert values.flags.writeable and values.flags.c_contiguous and values.flags.owndata
        values += 1.0

    def test_results_without_values_cross_the_frame(self, stack):
        _, client, _, _ = stack
        missing = client.query_points("missing", np.random.default_rng(0).random((2, 3)))
        assert missing.status == STATUS_ERROR and missing.values is None and missing.error
        late = client.predict_grid("dom", (4, 16, 16), timeout=0.0)
        assert late.status == STATUS_TIMEOUT and late.values is None

    def test_framed_point_request_equals_json_request(self, stack):
        _, client, port, _ = stack
        coords = np.random.default_rng(12).random((33, 3))
        coords[0] = (0.0, 1.0, 1 / 3)
        framed = client.query_points("dom", coords)
        query = json.dumps({"domain_id": "dom", "coords": coords.tolist()})
        _, content_type, body = self.post(port, query, {"Accept": FRAME_TYPE})
        assert content_type == FRAME_TYPE
        header, values = _unpack(io.BytesIO(body), len(body))
        assert header["status"] == STATUS_OK
        assert np.array_equal(framed.values, values)
        # Any (P, 3) array-like is framed as float64, exactly as the JSON path cast it.
        assert np.array_equal(client.query_points("dom", coords.tolist()).values, values)

    def test_error_replies_stay_json_with_the_same_messages(self, stack):
        _, client, port, _ = stack
        with pytest.raises(RuntimeError, match=r"POST /query failed \(400\): bad request"):
            client._call("POST", "/query", {"domain_id": "dom"})
        with pytest.raises(RuntimeError, match=r"POST /query failed \(400\): bad request: unsup"):
            client.predict_grid("dom", (4, 16, 16), dtype="float16")
        with pytest.raises(RuntimeError, match=r"GET /nope failed \(404\): unknown path /nope"):
            client._call("GET", "/nope")
        status, content_type, body = self.post(
            port, _frame({"query": {"domain_id": "dom"}}),
            {"Accept": FRAME_TYPE, "Content-Type": FRAME_TYPE})
        assert (status, content_type) == (400, "application/json")
        assert json.loads(body)["error"].startswith("bad request")

    def test_unserved_precision_is_400_and_draining_gateway_503(self, model, domain):
        server = make_server(model)
        server.register_domain("dom", domain)
        httpd = start_http_server(server)
        client = Client(port=httpd.server_address[1])
        other = "float32" if model.dtype == np.float64 else "float64"
        try:
            with pytest.raises(RuntimeError, match=r"POST /query failed \(400\): .*not served"):
                client.predict_grid("dom", (4, 16, 16), dtype=other)
            server.close()
            with pytest.raises(ServingUnavailable, match=r"POST /query unavailable \(503\)"):
                client.predict_grid("dom", (4, 16, 16))
        finally:
            assert stop_http_server(httpd) is True

    def test_malformed_bodies_are_answered_and_the_gateway_keeps_serving(self, stack):
        _, client, port, _ = stack
        head = b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: %s\r\n" % FRAME_TYPE.encode()
        frame = _frame({"query": {"domain_id": "dom"}}, np.random.default_rng(0).random((5, 3)))
        cases = [
            (b"Content-Length: -1\r\n\r\n", b"400"),
            (b"Content-Length: many\r\n\r\n", b"400"),
            (b"Content-Length: 99999999999\r\n\r\n", b"413"),
            (b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), b"413"),
            (b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
             % (len(frame) - 8, frame[:-8]), b"400"),                 # truncated array
            (b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
             % (len(frame) + 1, frame + b"!"), b"400"),               # oversized array
            (b"Content-Length: 2\r\nConnection: close\r\n\r\n\xff\xff", b"400"),
        ]
        for tail, status in cases:
            reply = self.raw(port, head + tail)
            assert reply.startswith(b"HTTP/1.1 " + status), (tail[:40], reply[:80])
            assert b"application/json" in reply and b'{"error": ' in reply
        assert client.health()["status"] == "ok"
        assert client.query_points("dom", np.random.default_rng(1).random((4, 3))).ok

    def test_largest_default_batch_fits_the_body_limit(self):
        coords = np.zeros((BatchPolicy().max_points, 3))
        assert len(_frame({"query": {"domain_id": "d" * 256}}, coords)) <= MAX_BODY_BYTES

    def test_client_hanging_up_mid_reply_is_logged_not_raised(self, stack, caplog, capfd):
        _, client, port, _ = stack
        query = json.dumps({"domain_id": "dom", "output_shape": [4, 64, 64]}).encode()
        with caplog.at_level(logging.DEBUG, logger="repro.serving"):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\nAccept: %s\r\nContent-Length: %d"
                         b"\r\n\r\n%s" % (FRAME_TYPE.encode(), len(query), query))
            # Linger 0: close() resets the connection while the grid is decoding.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.monotonic() + 30.0
            while "hung up mid-reply" not in caplog.text and time.monotonic() < deadline:
                time.sleep(0.01)
        assert "hung up mid-reply" in caplog.text
        assert client.health()["status"] == "ok"
        assert "Traceback" not in capfd.readouterr().err
