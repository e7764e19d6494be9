"""Observability layer: metrics registry, span tracing, profiling, exporters."""

import collections
import json
import math
import threading

import numpy as np
import pytest

from repro import compile as rc
from repro import obs
from repro.autodiff import Tensor, inference_mode
from repro.autodiff import tensor as tensor_mod
from repro.core.imnet import ImNet
from repro.obs.metrics import MetricsRegistry
from repro.serving import QueryResult, ServerTelemetry
from repro.serving.requests import STATUS_OK


@pytest.fixture(autouse=True)
def obs_clean():
    """Every test starts and ends with instrumentation off and buffers empty."""
    obs.disable()
    obs.clear_events()
    yield
    obs.disable()
    obs.clear_events()


# --------------------------------------------------------------------------- #
# Metrics registry                                                            #
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_get_or_create_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("requests", route="/query")
        b = reg.counter("requests", route="/query")
        c = reg.counter("requests", route="/stats")
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3.0 and c.value == 0.0
        snap = reg.snapshot()
        assert snap["counters"]["requests{route=/query}"] == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0

    def test_histogram_routes_through_latency_window(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", maxlen=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 5          # lifetime count
        assert summary["max"] == 5.0          # rolling window dropped 1.0
        assert summary["p50"] == pytest.approx(3.5)

    def test_empty_histogram_summary_is_nan(self):
        summary = MetricsRegistry().histogram("lat").summary()
        assert summary["count"] == 0 and math.isnan(summary["p99"])

    def test_collector_is_weakref_dropped(self):
        class Owner:
            """Dummy collector owner."""

        reg = MetricsRegistry()
        owner = Owner()
        reg.add_collector(lambda: {"custom.gauge": 7.0}, owner=owner)
        assert reg.snapshot()["gauges"]["custom.gauge"] == 7.0
        del owner
        assert "custom.gauge" not in reg.snapshot()["gauges"]

    def test_concurrent_hammer_with_snapshots(self):
        """N recording threads + concurrent snapshots: monotone, no torn reads."""
        reg = MetricsRegistry()
        n_threads, n_iter = 8, 400
        stop = threading.Event()
        seen = []

        def record(tid):
            counter = reg.counter("hits")
            hist = reg.histogram("lat", worker=tid)
            for i in range(n_iter):
                counter.inc()
                reg.gauge("depth").set(i)
                hist.observe(0.001 * i)

        def snapshotter():
            while not stop.is_set():
                snap = reg.snapshot()
                seen.append(snap["counters"].get("hits", 0.0))

        threads = [threading.Thread(target=record, args=(t,)) for t in range(n_threads)]
        snapper = threading.Thread(target=snapshotter)
        snapper.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        snapper.join()
        assert reg.counter("hits").value == n_threads * n_iter
        # Counter observed mid-flight must be monotone non-decreasing and
        # never exceed the true total (no torn/partial reads).
        assert all(b >= a for a, b in zip(seen, seen[1:]))
        assert all(0.0 <= v <= n_threads * n_iter for v in seen)
        for t in range(n_threads):
            assert reg.histogram("lat", worker=t).count == n_iter


class TestServerTelemetryConcurrency:
    def test_hammer_telemetry_while_snapshotting(self):
        telemetry = ServerTelemetry(window=256)
        n_threads, n_iter = 6, 300
        stop = threading.Event()
        seen = []

        def record():
            for _ in range(n_iter):
                telemetry.record_admission(True)
                telemetry.record_batch(n_requests=2, n_points=10)
                telemetry.record_result(QueryResult(
                    request_id="r", status=STATUS_OK,
                    queue_seconds=0.001, service_seconds=0.002))

        def snapshotter():
            while not stop.is_set():
                snap = telemetry.snapshot(queue_depth=1)
                seen.append((snap["accepted"], snap["completed"]))

        threads = [threading.Thread(target=record) for _ in range(n_threads)]
        snapper = threading.Thread(target=snapshotter)
        snapper.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        snapper.join()
        total = n_threads * n_iter
        assert telemetry.accepted == total
        assert telemetry.completed == total
        assert telemetry.batches == total
        assert telemetry.points_decoded == 10 * total
        assert telemetry.latency.count == total
        for accepted, completed in seen:
            assert 0 <= accepted <= total and 0 <= completed <= total
        assert all(a2 >= a1 for (a1, _), (a2, _) in zip(seen, seen[1:]))

    def test_snapshot_keys_and_registry_backing(self):
        telemetry = ServerTelemetry(window=8)
        snap = telemetry.snapshot()
        assert snap["accepted"] == 0
        assert math.isnan(snap["latency_p99"])  # no traffic yet: NaN, not 0
        telemetry.record_result(QueryResult(
            request_id="r", status=STATUS_OK, queue_seconds=0.001,
            service_seconds=0.001))
        assert telemetry.snapshot()["latency_p99"] > 0.0
        counters = telemetry.registry.snapshot()["counters"]
        assert counters["serving.completed"] == 1.0


# --------------------------------------------------------------------------- #
# Span tracing                                                                #
# --------------------------------------------------------------------------- #
class TestTracing:
    def test_disabled_tracing_is_noop(self):
        with obs.span("a.b", k=1) as sp:
            assert sp.ctx is None
        assert obs.events() == []

    def test_nesting_and_parent_links(self):
        obs.enable(trace=True)
        with obs.span("outer", parent=None) as outer:
            with obs.span("inner") as inner:
                assert obs.current_context() is inner.ctx
        events = {e["name"]: e for e in obs.take_events()}
        assert events["inner"]["args"]["trace_id"] == events["outer"]["args"]["trace_id"]
        assert events["inner"]["args"]["parent_id"] == events["outer"]["args"]["span_id"]
        assert "parent_id" not in events["outer"]["args"]
        assert events["inner"]["ts"] >= events["outer"]["ts"]
        assert events["inner"]["dur"] <= events["outer"]["dur"]

    def test_thread_isolation(self):
        obs.enable(trace=True)
        contexts = {}

        def worker():
            contexts["worker"] = obs.current_context()

        with obs.span("root", parent=None):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            contexts["main"] = obs.current_context()
        assert contexts["main"] is not None
        assert contexts["worker"] is None  # fresh thread: no inherited parent

    def test_explicit_context_handoff_across_threads(self):
        obs.enable(trace=True)

        def worker(parent_ctx):
            with obs.span("child", parent=parent_ctx):
                pass

        with obs.span("root", parent=None) as root:
            ctx = obs.current_context()
            t = threading.Thread(target=worker, args=(ctx,))
            t.start()
            t.join()
        events = {e["name"]: e for e in obs.take_events()}
        assert events["child"]["args"]["trace_id"] == root.ctx.trace_id
        assert events["child"]["args"]["parent_id"] == root.ctx.span_id

    def test_asyncio_task_isolation(self):
        import asyncio

        obs.enable(trace=True)

        async def task(name):
            with obs.span(name):
                await asyncio.sleep(0)
                return obs.current_context()

        async def main():
            with obs.span("root", parent=None):
                return await asyncio.gather(task("a"), task("b"))

        ctx_a, ctx_b = asyncio.run(main())
        assert ctx_a.trace_id == ctx_b.trace_id  # both under the root trace
        assert ctx_a.span_id != ctx_b.span_id
        events = {e["name"]: e for e in obs.take_events()}
        root_span = events["root"]["args"]["span_id"]
        assert events["a"]["args"]["parent_id"] == root_span
        assert events["b"]["args"]["parent_id"] == root_span

    def test_span_exceptions_still_record_and_restore(self):
        obs.enable(trace=True)
        with pytest.raises(RuntimeError):
            with obs.span("boom", parent=None):
                raise RuntimeError("x")
        assert obs.current_context() is None
        assert [e["name"] for e in obs.events()] == ["boom"]


# --------------------------------------------------------------------------- #
# Runtime switchboard + op hook                                               #
# --------------------------------------------------------------------------- #
class TestRuntime:
    def test_everything_off_by_default(self):
        assert not obs.is_enabled()
        assert tensor_mod._OP_HOOK is None

    def test_enable_installs_and_disable_removes_op_hook(self):
        obs.enable(profile_ops=True)
        assert obs.is_enabled()
        assert tensor_mod._OP_HOOK is not None
        obs.disable()
        assert tensor_mod._OP_HOOK is None and not obs.is_enabled()

    def test_op_profiling_records_histograms(self):
        obs.enable(trace=False, profile_ops=True)
        x = Tensor(np.ones((4, 4)))
        (x * 2.0 + 1.0).sum()
        snap = obs.REGISTRY.snapshot()
        names = set(snap["histograms"])
        assert "tape.op_seconds{op=Mul}" in names
        assert "tape.op_seconds{op=Add}" in names
        assert "tape.op_seconds{op=Sum}" in names

    def test_memory_profiling_records_alloc_bytes(self):
        obs.enable(trace=False, profile_memory=True)
        x = Tensor(np.ones((64, 64)))
        (x * 3.0).sum()
        snap = obs.REGISTRY.snapshot()
        hist = snap["histograms"].get("tape.op_alloc_bytes{op=Mul}")
        assert hist is not None and hist["count"] >= 1

    def test_kernel_profiling_labels_steps_by_what_they_are(self):
        """``compile.kernel_seconds`` is labelled by the step's op name or
        ``fused[N]``, never by its position: regions of one length share a
        series, so a profiled plan stays aggregable."""
        imnet = ImNet(coord_dim=3, latent_dim=6, out_channels=4, hidden=(16, 16, 16, 16)).eval()
        cm = rc.compile(imnet)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 32, 9)))
        prefix = "compile.kernel_seconds{kernel=fused["
        before = set(obs.REGISTRY.snapshot()["histograms"])
        with inference_mode():
            cm(x)  # served by the trace
            obs.enable(trace=False, profile_kernels=True)
            cm(x)
            cm(x)
        after = set(obs.REGISTRY.snapshot()["histograms"])
        sizes = collections.Counter(
            e["region"] for e in cm.plans[0].layout if e["region"] is not None)
        lengths = set(sizes.values())
        assert len(sizes) > len(lengths)  # several regions share a length
        assert len([k for k in after - before if k.startswith(prefix)]) <= len(lengths)
        assert {f"{prefix}{n}]}}" for n in lengths if n > 1} <= after

    def test_observed_context_manager(self):
        with obs.observed(profile_ops=True):
            assert obs.is_enabled()
        assert not obs.is_enabled()

    def test_instrumented_eager_outputs_bit_identical(self):
        x = Tensor(np.linspace(-2, 2, 64).reshape(8, 8))
        expected = (x.tanh() * x + 1.5).exp().sum()
        obs.enable(trace=True, profile_ops=True, profile_memory=True)
        with obs.span("test.root", parent=None):
            observed = (x.tanh() * x + 1.5).exp().sum()
        obs.disable()
        assert np.array_equal(observed.data, expected.data)


# --------------------------------------------------------------------------- #
# Exporters                                                                   #
# --------------------------------------------------------------------------- #
class TestExporters:
    def test_chrome_trace_schema(self, tmp_path):
        obs.enable(trace=True)
        with obs.span("phase.work", parent=None, detail="x"):
            pass
        path = obs.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X" and event["name"] == "phase.work"
        assert event["cat"] == "phase"
        assert event["dur"] >= 0 and isinstance(event["tid"], int)
        assert event["args"]["detail"] == "x"

    def test_metrics_jsonl_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        path = str(tmp_path / "metrics.jsonl")
        obs.append_metrics_jsonl(path, reg)
        obs.append_metrics_jsonl(path, reg)
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == 2
        assert lines[0]["metrics"]["counters"]["a"] == 3.0
        assert lines[1]["ts"] >= lines[0]["ts"]

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("serving.completed").inc(5)
        reg.gauge("queue.depth", worker="0").set(2)
        reg.histogram("serving.latency_seconds").observe(0.25)
        text = obs.prometheus_text(reg)
        assert "# TYPE serving_completed counter" in text
        assert "serving_completed 5.0" in text
        assert 'queue_depth{worker="0"} 2.0' in text
        assert 'serving_latency_seconds{quantile="0.5"} 0.25' in text
        assert "serving_latency_seconds_sum 0.25" in text
        assert "serving_latency_seconds_count 1" in text

    def test_prometheus_text_renders_nan_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("empty.hist")
        text = obs.prometheus_text(reg)
        assert 'empty_hist{quantile="0.5"} NaN' in text
        assert "empty_hist_sum 0.0" in text
        assert "empty_hist_count 0" in text
