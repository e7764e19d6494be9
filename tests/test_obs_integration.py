"""Cross-subsystem observability: one HTTP request → one four-layer trace.

The acceptance test for the unified observability layer: a single serving
request through the HTTP gateway must yield a single Chrome trace whose
spans cover its layers — gateway/scheduler, engine and compiled executor
on a compiled server, tape ops on an uncompiled one — correctly nested by
parent links, while leaving every served value bit-identical to an
uninstrumented run.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.inference import InferenceEngine
from repro.serving import (
    STATUS_OK,
    Client,
    ModelServer,
    start_http_server,
    stop_http_server,
)


@pytest.fixture(autouse=True)
def obs_clean():
    """Instrumentation off and trace buffer empty around every test."""
    obs.disable()
    obs.clear_events()
    yield
    obs.disable()
    obs.clear_events()


@pytest.fixture(scope="module")
def model():
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()


@pytest.fixture(scope="module")
def domain():
    rng = np.random.default_rng(11)
    return rng.standard_normal((1, 4, 4, 16, 16))


def _span_events(events, trace_id):
    """Events of one trace, keyed by span_id."""
    return {e["args"]["span_id"]: e for e in events
            if e["args"].get("trace_id") == trace_id}


def _traced_request(tmp_path, model, domain, coords, compile):
    """One HTTP request to a fresh one-worker server, traced after a warm-up.

    Returns the request's spans keyed by span id and its gateway span.  The
    warm-up runs with instrumentation off: a compiled decoder traces its plan
    and the latent tile lands in the cache, so the traced request exercises
    the steady-state path, and it must serve the warm-up's values.
    """
    server = ModelServer(model, n_workers=1, compile=compile)
    server.register_domain("dom", domain)
    httpd = start_http_server(server)
    client = Client(port=httpd.server_address[1])
    try:
        warm = client.query_points("dom", coords)
        assert warm.status == STATUS_OK

        obs.clear_events()
        obs.enable(trace=True, profile_ops=True, profile_kernels=True)
        result = client.query_points("dom", coords)
        obs.disable()
        assert result.status == STATUS_OK
        assert np.array_equal(result.values, warm.values)

        path = obs.write_chrome_trace(str(tmp_path / f"trace-{compile}.json"))
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
    finally:
        stop_http_server(httpd)
        server.close()
    gateway = [e for e in events if e["name"] == "gateway.request"]
    assert len(gateway) == 1, "one request must open exactly one gateway span"
    return _span_events(events, gateway[0]["args"]["trace_id"]), gateway[0]


def _chain_to_root(spans, event):
    """Span id of the root reached by following ``event``'s parent links."""
    seen = set()
    while "parent_id" in event["args"]:
        pid = event["args"]["parent_id"]
        assert pid not in seen, "parent cycle"
        seen.add(pid)
        event = spans[pid]
    return event["args"]["span_id"]


def _first_by_layer(spans):
    """The first span of each layer (the name's prefix before the first dot)."""
    by_name = {}
    for e in spans.values():
        by_name.setdefault(e["name"].split(".", 1)[0], e)
    return by_name


class TestSingleRequestTrace:
    def test_four_layer_chrome_trace(self, tmp_path, model, domain):
        coords = np.random.default_rng(3).random((24, 3))
        spans, gateway = _traced_request(tmp_path, model, domain, coords, compile=True)
        gateway_id = gateway["args"]["span_id"]
        names = {e["name"] for e in spans.values()}

        # The served layers are present in the single trace: the compiled
        # request decodes through plan kernels, so it runs no tape op.
        assert "scheduler.run_batch" in names
        assert "engine.decode_tile" in names
        assert "compile.plan_run" in names
        assert any(n.startswith("kernel.") for n in names)

        # Parent links chain every layer back up to the gateway span.
        by_name = _first_by_layer(spans)
        for layer in ("scheduler", "engine", "compile", "kernel"):
            assert _chain_to_root(spans, by_name[layer]) == gateway_id, \
                f"{layer} span does not chain to the gateway root"

        # Nesting is structural, not just labels: the batch span is a
        # direct child of the gateway span, and the engine decode span
        # sits under the batch span.
        batch = by_name["scheduler"]
        assert batch["args"]["parent_id"] == gateway_id
        decode = next(e for e in spans.values()
                      if e["name"] == "engine.decode_tile")
        assert spans[decode["args"]["parent_id"]]["name"] == "scheduler.run_batch"

        # The tape layer: the same request through an uncompiled server
        # decodes with eager tape ops, whose spans chain to its gateway span.
        spans, gateway = _traced_request(tmp_path, model, domain, coords, compile=False)
        assert any(e["name"].startswith("tape.") for e in spans.values())
        tape = _first_by_layer(spans)["tape"]
        assert _chain_to_root(spans, tape) == gateway["args"]["span_id"]
        assert spans[tape["args"]["parent_id"]]["name"] == "engine.decode_tile"

    def test_metrics_endpoint_scrapes_registries(self, model, domain):
        server = ModelServer(model, n_workers=1, compile=True)
        server.register_domain("dom", domain)
        httpd = start_http_server(server)
        client = Client(port=httpd.server_address[1])
        coords = np.random.default_rng(4).random((8, 3))
        try:
            assert client.query_points("dom", coords).status == STATUS_OK
            text = client.metrics_text()
            assert "serving_completed 1.0" in text
            assert "serving_queue_depth 0.0" in text
            # Global-registry series (plan cache, tile cache collectors)
            # are merged into the same exposition.
            assert "compile_plan_hits" in text or "compile_retraces" in text
            assert "engine_cache_misses" in text
        finally:
            stop_http_server(httpd)
            server.close()


class TestBitIdenticalUnderInstrumentation:
    def test_engine_outputs_unchanged(self, model, domain):
        coords = np.random.default_rng(5).random((40, 3))
        engine = InferenceEngine(model, tile_shape=(4, 16, 16), compile=True)
        baseline_pts = engine.query_points(domain, coords)
        baseline_grid = engine.predict_grid(domain, (4, 16, 16))
        obs.enable(trace=True, profile_ops=True, profile_kernels=True,
                   profile_memory=True)
        instrumented_pts = engine.query_points(domain, coords)
        instrumented_grid = engine.predict_grid(domain, (4, 16, 16))
        obs.disable()
        assert np.array_equal(instrumented_pts, baseline_pts)
        assert np.array_equal(instrumented_grid, baseline_grid)

    def test_server_outputs_unchanged(self, model, domain):
        coords = np.random.default_rng(9).random((16, 3))
        with ModelServer(model, n_workers=2) as server:
            server.register_domain("dom", domain)
            from repro.serving import QueryRequest

            baseline = server.query(QueryRequest("dom", coords=coords))
            obs.enable(trace=True, profile_ops=True, profile_kernels=True)
            instrumented = server.query(QueryRequest("dom", coords=coords))
            obs.disable()
        assert baseline.status == STATUS_OK and instrumented.status == STATUS_OK
        assert np.array_equal(instrumented.values, baseline.values)
