"""Chaos tests for the serving layer: supervised workers, breakers, shedding.

The survival contract under seeded fault injection: every submitted request
resolves to a *definite* status (``ok`` / ``timeout`` / ``error``) — none
hang — and the server keeps serving after worker crashes.  Fault schedules
are seeded, so each of these scenarios replays identically run to run.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.faults import FaultPlan, Retry
from repro.serving import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    BatchPolicy,
    Client,
    ModelServer,
    QueryRequest,
    ServerOverloadedError,
    ServingUnavailable,
    start_http_server,
    stop_http_server,
)


@pytest.fixture(scope="module")
def model():
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()


@pytest.fixture(scope="module")
def domain():
    rng = np.random.default_rng(7)
    return rng.standard_normal((1, 4, 4, 16, 16))


def make_server(model, domain, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("breaker_cooldown", 0.05)
    server = ModelServer(model, **kwargs)
    server.register_domain("d", domain)
    return server


def coords(n=8, seed=0):
    return np.random.default_rng(seed).random((n, 3))


# --------------------------------------------------------------------------- #
# Survival under seeded chaos                                                 #
# --------------------------------------------------------------------------- #


class TestChaosSurvival:
    def test_every_request_resolves_definitely_under_chaos(self, model, domain):
        with make_server(model, domain) as server:
            plan = FaultPlan(seed=11, name="serving-chaos")
            plan.fail("serving.worker", every=3, message="replica crash")
            plan.delay("serving.batch", 0.01, p=0.25)
            with plan:
                results = [server.query(QueryRequest("d", coords=coords()), timeout=30)
                           for _ in range(12)]
            statuses = [r.status for r in results]
            assert all(s in (STATUS_OK, STATUS_ERROR) for s in statuses)
            assert STATUS_ERROR in statuses  # the injected crashes surfaced
            assert plan.injected()[("serving.worker", "raise")] >= 1

            # The fleet keeps serving after the chaos window closes.
            post = [server.query(QueryRequest("d", coords=coords()), timeout=30)
                    for _ in range(4)]
            assert all(r.status == STATUS_OK for r in post)

            stats = server.stats()
            assert stats["worker_crashes"] >= 1
            assert stats["errors"] >= 1

    def test_crash_fails_only_the_poisoned_batch(self, model, domain):
        with make_server(model, domain, n_workers=1) as server:
            plan = FaultPlan(seed=0)
            plan.fail("serving.worker", at=(1,), message="one bad batch")
            with plan:
                first = server.query(QueryRequest("d", coords=coords()), timeout=30)
                second = server.query(QueryRequest("d", coords=coords()), timeout=30)
            assert first.status == STATUS_ERROR
            assert "crashed" in first.error and "one bad batch" in first.error
            assert second.status == STATUS_OK
            assert np.isfinite(second.values).all()

    def test_error_result_carries_worker_and_exception_summary(self, model, domain):
        with make_server(model, domain, n_workers=1) as server:
            plan = FaultPlan(seed=0)
            plan.fail("serving.worker", at=(1,), exc=MemoryError, message="replica OOM")
            with plan:
                result = server.query(QueryRequest("d", coords=coords()), timeout=30)
            assert result.status == STATUS_ERROR
            assert "worker-0 crashed" in result.error
            assert "MemoryError" in result.error and "replica OOM" in result.error


# --------------------------------------------------------------------------- #
# Circuit breaker                                                             #
# --------------------------------------------------------------------------- #


class TestWorkerBreakers:
    def test_breaker_trips_and_recovers(self, model, domain):
        with make_server(model, domain, n_workers=2, breaker_threshold=1,
                         breaker_cooldown=0.1) as server:
            plan = FaultPlan(seed=0)
            plan.fail("serving.worker", at=(1,), message="sick replica")
            with plan:
                bad = server.query(QueryRequest("d", coords=coords()), timeout=30)
                assert bad.status == STATUS_ERROR
                # One breaker is open; the other worker keeps serving.
                deadline = time.monotonic() + 5.0
                while ("open" not in server.stats()["breakers"]
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert "open" in server.stats()["breakers"]
                ok = server.query(QueryRequest("d", coords=coords()), timeout=30)
                assert ok.status == STATUS_OK

            # After the cooldown a half-open probe succeeds and the breaker
            # closes again; the fleet is whole.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                server.query(QueryRequest("d", coords=coords()), timeout=30)
                if server.stats()["breakers"] == ["closed", "closed"]:
                    break
                time.sleep(0.02)
            assert server.stats()["breakers"] == ["closed", "closed"]
            assert server.stats()["breaker_transitions"] >= 2


# --------------------------------------------------------------------------- #
# Load shedding                                                               #
# --------------------------------------------------------------------------- #


class TestLoadShedding:
    def test_sheds_low_priority_at_watermark(self, model, domain):
        server = make_server(model, domain, n_workers=1, max_pending=4,
                             shed_watermark=0.5, shed_priority=0,
                             policy=BatchPolicy(max_requests=1))
        try:
            plan = FaultPlan(seed=0)
            plan.delay("serving.worker", 0.4, every=1)  # stall the lone worker
            futures = []
            with plan:
                # Priority-1 traffic is above the shed class and fills the
                # queue.  Three submissions keep depth strictly below
                # max_pending even if the stalled worker has not yet pulled
                # the first one, so the later priority-1 admit never trips
                # the hard queue-full rejection.
                for _ in range(3):
                    futures.append(server.submit(
                        QueryRequest("d", coords=coords(), priority=1)))
                deadline = time.monotonic() + 2.0
                while len(server.scheduler) < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert len(server.scheduler) >= 2  # at/above the 0.5 * 4 watermark

                with pytest.raises(ServerOverloadedError, match="load shed"):
                    server.submit(QueryRequest("d", coords=coords(), priority=0))
                # Higher-priority traffic still gets in at the same depth.
                futures.append(server.submit(
                    QueryRequest("d", coords=coords(), priority=1)))
            for future in futures:
                assert future.result(timeout=30).status == STATUS_OK
            stats = server.stats()
            assert stats["shed"] >= 1
            assert stats["rejected"] >= stats["shed"]  # shed counts as rejected
        finally:
            server.close()

    def test_watermark_validation(self, model):
        with pytest.raises(ValueError, match="shed_watermark"):
            ModelServer(model, shed_watermark=0.0)
        with pytest.raises(ValueError, match="shed_watermark"):
            ModelServer(model, shed_watermark=1.5)


# --------------------------------------------------------------------------- #
# Deadline expiry (satellite): mid-queue expiry under concurrent submitters   #
# --------------------------------------------------------------------------- #


class TestDeadlineExpiry:
    def test_expired_is_inclusive_at_the_deadline_instant(self):
        request = QueryRequest("d", coords=np.zeros((1, 3)), deadline=5.0)
        assert not request.expired(now=4.999)
        assert request.expired(now=5.0)  # exclusive deadline: == is too late
        assert request.expired(now=5.001)

    def test_mid_queue_expiry_under_concurrent_submitters(self, model, domain):
        server = make_server(model, domain, n_workers=1,
                             policy=BatchPolicy(max_requests=2))
        try:
            plan = FaultPlan(seed=0)
            plan.delay("serving.worker", 0.25, every=1)  # every batch stalls
            results, lock = [], threading.Lock()

            def submitter(seed):
                for _ in range(2):
                    # 50 ms deadline vs a 250 ms stall: expired before decode.
                    future = server.submit(
                        QueryRequest("d", coords=coords(seed=seed)), timeout=0.05)
                    outcome = future.result(timeout=30)
                    with lock:
                        results.append(outcome)

            with plan:
                threads = [threading.Thread(target=submitter, args=(i,))
                           for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

            assert len(results) == 8
            # Expired requests resolve STATUS_TIMEOUT, never reach the engine.
            assert all(r.status == STATUS_TIMEOUT for r in results)
            assert all(r.values is None for r in results)
            stats = server.stats()
            assert stats["timed_out"] == 8
            assert stats["points_decoded"] == 0  # nothing was decoded for them
            # Backpressure accounting drained: the queue is empty and the
            # server still admits and serves new work.
            assert len(server.scheduler) == 0
            fresh = server.query(QueryRequest("d", coords=coords()), timeout=30)
            assert fresh.status == STATUS_OK
        finally:
            server.close()


# --------------------------------------------------------------------------- #
# Graceful shutdown                                                           #
# --------------------------------------------------------------------------- #


class TestShutdown:
    def test_close_reports_clean_drain(self, model, domain):
        server = make_server(model, domain)
        server.query(QueryRequest("d", coords=coords()), timeout=30)
        assert server.close() is True
        assert server.close() is True  # idempotent, cached verdict

    def test_close_reports_stuck_worker(self, model, domain, caplog):
        server = make_server(model, domain, n_workers=1)
        plan = FaultPlan(seed=0)
        plan.delay("serving.worker", 0.6, every=1)
        with plan:
            future = server.submit(QueryRequest("d", coords=coords()))
            time.sleep(0.05)  # let the worker pick the batch up and stall
            with caplog.at_level("WARNING", logger="repro.serving"):
                drained = server.close(timeout=0.05)
            assert drained is False
            assert any("did not exit" in r.message for r in caplog.records)
            assert server.close() is False  # the verdict is remembered
            # The abandoned daemon worker still finishes its batch.
            assert future.result(timeout=30).status == STATUS_OK

    def test_stop_http_server_returns_drain_verdict(self, model, domain):
        with make_server(model, domain) as server:
            httpd = start_http_server(server, port=0)
            try:
                port = httpd.server_address[1]
                client = Client(port=port)
                assert client.health()["status"] == "ok"
            finally:
                assert stop_http_server(httpd, timeout=10.0) is True


# --------------------------------------------------------------------------- #
# Client retries                                                              #
# --------------------------------------------------------------------------- #


class TestClientRetry:
    def test_retries_transient_gateway_failures(self, monkeypatch):
        client = Client(port=1, retry=Retry(max_attempts=3, backoff=0.0, jitter=0.0))
        calls = {"n": 0}

        def flaky(method, path, payload=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ServingUnavailable("draining")
            return {"status": "ok"}

        monkeypatch.setattr(client, "_call_once", flaky)
        assert client.health() == {"status": "ok"}
        assert calls["n"] == 3

    def test_no_retry_by_default(self, monkeypatch):
        client = Client(port=1)
        calls = {"n": 0}

        def failing(method, path, payload=None):
            calls["n"] += 1
            raise ServingUnavailable("draining")

        monkeypatch.setattr(client, "_call_once", failing)
        with pytest.raises(ServingUnavailable):
            client.health()
        assert calls["n"] == 1

    def test_client_errors_are_not_retried(self, monkeypatch):
        client = Client(port=1, retry=Retry(max_attempts=5, backoff=0.0))
        calls = {"n": 0}

        def bad_request(method, path, payload=None):
            calls["n"] += 1
            raise RuntimeError("POST /query failed (400): bad request")

        monkeypatch.setattr(client, "_call_once", bad_request)
        with pytest.raises(RuntimeError, match="400"):
            client.health()
        assert calls["n"] == 1

    def test_metrics_text_honours_the_retry_policy(self, model, domain, monkeypatch):
        with make_server(model, domain) as server:
            httpd = start_http_server(server, port=0)
            port = httpd.server_address[1]
            assert "serving_" in Client(port=port).metrics_text()
            assert stop_http_server(httpd) is True
        # Nothing listens on the port any more: every attempt is refused.
        client = Client(port=port, retry=Retry(max_attempts=3, backoff=0.0, jitter=0.0))
        attempts, fetch = [], client._fetch
        monkeypatch.setattr(client, "_fetch",
                            lambda *args: attempts.append(args) or fetch(*args))
        with pytest.raises(OSError):
            client.metrics_text()
        assert attempts == [("GET", "/metrics")] * 3

    def test_retry_against_live_gateway_shutdown_window(self, model, domain):
        # End-to-end: a 503 from a draining gateway is retried and the call
        # eventually fails with ServingUnavailable once retries exhaust.
        with make_server(model, domain) as server:
            httpd = start_http_server(server, port=0)
            port = httpd.server_address[1]
            server.close()  # scheduler closed: /query now answers 503
            client = Client(port=port,
                            retry=Retry(max_attempts=2, backoff=0.0, jitter=0.0))
            try:
                with pytest.raises(ServingUnavailable):
                    client.query_points("d", coords())
            finally:
                assert stop_http_server(httpd) is True
