"""Per-layer probes (``--trace`` mode) and the two budget tables.

Layers are the program's modules; every probe times calls into a layer's
*public* functions from here.  The serving and training probes form ladders:
the same seeded inputs (the first 512 ``serve-points`` requests in batches of
32; the per-node micro-batches of the first ``train-*`` steps) enter at
successively deeper entry points, so a layer's self time is its level minus
the next level down, and what no level accounts for is reported as
``budget.*.unattributed_frac``.
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import tempfile
import time
from http.client import HTTPConnection
from typing import Callable

import numpy as np

from repro import MeshfreeFlowNet, MeshfreeFlowNetConfig, obs
from repro.autodiff import Tensor, inference_mode
from repro.compile import CompiledTrainingStep, compile as compile_module
from repro.core import compute_losses
from repro.core.latent_grid import query_latent_grid
from repro.core.losses import prediction_loss
from repro.distributed import ScalingPerformanceModel, SimulatedCommunicator
from repro.inference import (GridQueryPlanner, InferenceEngine, LatentTileCache, TileGroup,
                             pack_groups)
from repro.serving import (Client, MicroBatchScheduler, QueryRequest, run_batch,
                           start_http_server, stop_http_server)
from repro.training import Trainer, TrainerConfig

from . import workloads as wl
from .harness import SpanRecorder

LADDER_REQUESTS = 512
LADDER_BATCH = 32
OPEN_LOOP_RATE = 100.0  # requests per second of the seeded Poisson schedule


class Probe:
    """Times callables for a fixed budget and records each call as a span."""

    def __init__(self, budget: float, spans: SpanRecorder):
        self.budget = budget
        self.spans = spans

    def samples(self, name: str, fn: Callable[[], object], parent: str = None,
                min_reps: int = 3) -> "list[float]":
        """Per-call wall seconds of ``fn`` over the budget (at least ``min_reps`` calls)."""
        times = []
        end = time.perf_counter() + self.budget
        while len(times) < min_reps or time.perf_counter() < end:
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            self.spans.add(name, t0, t1, parent)
        return times

    def time(self, name: str, fn: Callable[[], object], parent: str = None,
             min_reps: int = 3) -> float:
        """Median per-call wall seconds of ``fn``."""
        return statistics.median(self.samples(name, fn, parent, min_reps))


def run(seed: int, budget: float, spans: SpanRecorder, out_dir) -> "tuple[dict, str, list[str]]":
    """All layer probes: ``({name: {"value": v}}, budget tables, failed checks)``."""
    probe = Probe(budget, spans)
    failures: "list[str]" = []
    # glibc serves allocations above its mmap threshold (128 KiB at start) from
    # fresh, page-faulting mappings, and raises the threshold to the size of the
    # largest mapping freed so far (up to 32 MiB).  Inside a running server or
    # trainer that has long happened; without it the ImNet probe, whose 512 KiB
    # activations sit above the initial threshold, reads 2x slower than the same
    # calls made from the engine.  Free one large block so the probes see the
    # allocator of a warm process whatever ran before them.
    settle = np.empty(16 << 20, dtype=np.uint8)
    del settle
    serving, serving_table = serving_layers(seed, probe, failures)
    training, training_table = training_layers(seed, probe, failures, out_dir)
    values = {name: {"value": float(v)} for name, v in {**serving, **training}.items()}
    return values, serving_table + "\n\n" + training_table, failures


# --------------------------------------------------------------------- serving
def _coalesce(batch) -> "list[tuple[str, np.ndarray]]":
    """Group a micro-batch by domain and concatenate coords, as ``run_batch`` does."""
    by_domain: "dict[str, list[np.ndarray]]" = {}
    for domain, coords in batch:
        by_domain.setdefault(domain, []).append(coords)
    return [(domain, np.concatenate(parts, axis=0)) for domain, parts in by_domain.items()]


def _fused_batches(field, coords: np.ndarray, chunk: int) -> "list[tuple[Tensor, Tensor]]":
    """The ``(latent grids, padded coords)`` decode calls ``field.query(coords)`` makes."""
    pieces = [
        TileGroup(g.tile, g.rows[s:s + chunk], g.local_coords[s:s + chunk], g.weights[s:s + chunk])
        for g in field.planner.plan(coords) for s in range(0, g.n, chunk)
    ]
    calls = []
    for fused in pack_groups(pieces, budget=chunk):
        block = np.zeros((len(fused), max(g.n for g in fused), 3))
        for slot, g in enumerate(fused):
            block[slot, :g.n] = g.local_coords
        grids = np.concatenate([field.latent_tile(g.tile) for g in fused], axis=0)
        calls.append((Tensor(grids), Tensor(block)))
    return calls


def _raw_layers(rng, probe: Probe, m: dict) -> None:
    """ImNet, U-Net encode and single-tile decode of both model presets."""
    for tag, config, tile in (("tiny", MeshfreeFlowNetConfig.tiny(), wl.SERVE_TILE),
                              ("small", MeshfreeFlowNetConfig.small(), wl.ColdDomain.tile)):
        model = MeshfreeFlowNet(config).eval()
        # ImNet is entered the way query_latent_grid enters it: once per cell
        # corner, 4096 rows a call (one 32768-row call runs out of cache and
        # reads ~15% slower per row, which would invert the ladder).
        rows = Tensor(rng.random((1, 4096, 3 + config.latent_channels)))
        n_rows = 8 * rows.shape[1]
        crop = Tensor(rng.standard_normal((1, config.in_channels, *tile)))
        coords = Tensor(rng.random((1, rows.shape[1], 3)))
        with inference_mode():
            t = probe.time(f"core.imnet.{tag}", lambda: [model.imnet(rows) for _ in range(8)])
            m[f"core.imnet.rows_per_s_{tag}"] = n_rows / t
            t = probe.time(f"core.unet.encode.{tag}", lambda: model.latent_grid(crop))
            m[f"core.unet.encode_ms_{tag}"] = t * 1e3
            grid = model.latent_grid(crop)
            t = probe.time(f"core.latent_grid.decode.{tag}",
                           lambda: query_latent_grid(grid, coords, model.imnet))
            m[f"core.latent_grid.decode_pts_per_s_{tag}"] = coords.shape[1] / t
            if tag == "tiny":
                compiled = compile_module(model.imnet, copy_outputs=False)
                t0 = time.perf_counter()
                compiled(rows)
                m["compile.decode_trace_ms"] = (time.perf_counter() - t0) * 1e3
                t = probe.time("compile.imnet", lambda: [compiled(rows) for _ in range(8)])
                m["compile.imnet_rows_per_s"] = n_rows / t


def _cold_cache_counts(rng, m: dict) -> None:
    """Misses and evictions per ``cold-domain`` op once the tile cache is full (exact)."""
    engine = InferenceEngine(MeshfreeFlowNet(MeshfreeFlowNetConfig.small()).eval(),
                             tile_shape=wl.ColdDomain.tile, cache_tiles=wl.ColdDomain.cache_tiles)
    coords = rng.random((wl.ColdDomain.n_points, 3))
    while engine.cache_stats.evictions == 0:
        engine.query_points(rng.standard_normal(wl.DOMAIN_SHAPE), coords)
    before, ops = engine.cache_stats, 2
    for _ in range(ops):
        engine.query_points(rng.standard_normal(wl.DOMAIN_SHAPE), coords)
    after = engine.cache_stats
    m["inference.cache.misses_per_op"] = (after.misses - before.misses) / ops
    m["inference.cache.evictions_per_op"] = (after.evictions - before.evictions) / ops


def _server_pass(server, stream, in_flight: int = wl.IN_FLIGHT):
    return wl.drive_closed(server, stream, 0, in_flight, count=len(stream))


def _open_loop(server, stream, rng, duration: float, spans: SpanRecorder) -> "tuple[list, list]":
    """Send ``stream`` on a seeded Poisson schedule; latencies count from the due time."""
    due = np.cumsum(rng.exponential(1.0 / OPEN_LOOP_RATE, size=int(duration * OPEN_LOOP_RATE)))
    latencies, lags, pending = [], [], []
    t0 = time.perf_counter()
    for i, offset in enumerate(due):
        wait = t0 + offset - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        lags.append(time.perf_counter() - (t0 + offset))
        domain, coords = stream[i % len(stream)]
        future = server.submit(QueryRequest(domain, coords=coords))
        future.add_done_callback(
            lambda f, t_due=t0 + offset: latencies.append(time.perf_counter() - t_due))
        pending.append(future)
    for future in pending:
        future.result(timeout=60.0)
    spans.add("loadgen.open_loop", t0, time.perf_counter())
    return latencies, lags


def serving_layers(seed: int, probe: Probe, failures: "list[str]") -> "tuple[dict, str]":
    """Ladder raw ImNet -> ... -> HTTP on the first 512 ``serve-points`` requests."""
    rng = np.random.default_rng(seed)
    domains = wl.make_domains(rng)
    stream = wl.point_stream(rng, 2000)[:LADDER_REQUESTS if probe.budget >= 0.25 else 2 * LADDER_BATCH]
    batches = [stream[i:i + LADDER_BATCH] for i in range(0, len(stream), LADDER_BATCH)]
    coalesced = [group for batch in batches for group in _coalesce(batch)]
    n_req = len(stream)
    n_pts = sum(coords.shape[0] for _, coords in stream)
    m: dict = {}
    _raw_layers(rng, probe, m)
    _cold_cache_counts(rng, m)

    cache = LatentTileCache(capacity=8)
    tile = cache.get_or_create("tile", lambda: np.zeros(8))
    t = probe.time("inference.cache.hit", lambda: [cache.get_or_create("tile", lambda: tile)
                                                   for _ in range(1000)])
    hit_s = t / 1000
    m["inference.cache.hit_us"] = hit_s * 1e6

    # L3: the engine, entered the way run_batch enters it.
    model = wl.tiny_model()
    # The server's shared cache holds 64 tiles; the engine default of 32 would
    # thrash on 4 domains x 9 tiles and turn the ladder into an encode benchmark.
    engine = InferenceEngine(model, tile_shape=wl.SERVE_TILE, cache_tiles=64)
    fields = {name: engine.open(lowres, key=(name, 0)) for name, lowres in domains.items()}
    for field in fields.values():
        field.predict_grid(wl.GRID_SHAPE)
    planner, layout = fields["d0"].planner, fields["d0"].layout
    m["inference.planner.groups_per_request"] = statistics.fmean(
        len(planner.plan(coords)) for _, coords in stream)
    plan_s = probe.time("inference.planner.plan",
                        lambda: [planner.plan(c) for _, c in coalesced], "inference.engine.query")
    m["inference.planner.plan_us_per_point"] = plan_s / n_pts * 1e6
    m["inference.planner.grid_plan_ms"] = 1e3 * probe.time(
        "inference.planner.grid_plan", lambda: list(GridQueryPlanner(layout).plan(wl.GRID_SHAPE)))
    l3_s = probe.time("inference.engine.query",
                      lambda: [fields[d].query(c) for d, c in coalesced], "scheduler.run_batch")
    m["inference.engine.query_pts_per_s"] = n_pts / l3_s
    grid_s = probe.time("inference.engine.predict_grid",
                        lambda: fields["d0"].predict_grid(wl.GRID_SHAPE))
    m["inference.engine.grid_pts_per_s"] = np.prod(wl.GRID_SHAPE) / grid_s
    calls = [call for d, c in coalesced for call in _fused_batches(fields[d], c, engine.chunk_size)]
    with inference_mode():
        decode_s = probe.time("core.latent_grid.decode",
                              lambda: [query_latent_grid(g, b, model.imnet) for g, b in calls],
                              "inference.engine.query")
    hits_s = hit_s * sum(g.shape[0] for g, _ in calls)
    imnet_s = sum(8 * b.shape[0] * b.shape[1] for _, b in calls) / m["core.imnet.rows_per_s_tiny"]
    m["inference.engine.self_frac"] = 1.0 - (plan_s + hits_s + decode_s) / l3_s

    compiled_engine = InferenceEngine(model, tile_shape=wl.SERVE_TILE, compile=True,
                                      cache=engine.cache)
    compiled_fields = {name: compiled_engine.open(lowres, key=(name, 0))
                       for name, lowres in domains.items()}
    if not all(np.array_equal(compiled_fields[d].query(c), fields[d].query(c))
               for d, c in coalesced):
        failures.append("compiled engine output is not bit-identical to the eager engine")
    compiled_s = probe.time("inference.engine.query.compiled",
                            lambda: [compiled_fields[d].query(c) for d, c in coalesced])
    m["inference.engine.compiled_ratio"] = l3_s / compiled_s

    # L2: scheduler + run_batch, called synchronously (no worker threads).
    scheduler = MicroBatchScheduler()
    requests = [[QueryRequest(d, coords=c) for d, c in batch] for batch in batches]

    def resolve(domain_id):
        return domains[domain_id], (domain_id, 0)

    def scheduler_pass():
        submit_s = next_s = run_s = 0.0
        for batch in requests:
            t0 = time.perf_counter()
            futures = [scheduler.submit(request) for request in batch]
            t1 = time.perf_counter()
            items = scheduler.next_batch()
            t2 = time.perf_counter()
            run_batch(engine, items, resolve)
            t3 = time.perf_counter()
            probe.spans.add("scheduler.run_batch", t2, t3, "serving.server")
            if len(items) != len(batch) or not all(f.result().ok for f in futures):
                failures.append("scheduler ladder: a batch was split or a request failed")
            submit_s, next_s, run_s = submit_s + t1 - t0, next_s + t2 - t1, run_s + t3 - t2
        return submit_s, next_s, run_s

    passes = [scheduler_pass() for _ in range(max(3, int(probe.budget / l3_s)))]
    submit_s, next_s, run_s = (statistics.median(p[i] for p in passes) for i in range(3))
    m["serving.scheduler.submit_us"] = submit_s / n_req * 1e6
    m["serving.scheduler.next_batch_us"] = next_s / n_req * 1e6
    m["serving.scheduler.run_batch_pts_per_s"] = n_pts / run_s

    # L1: the server with its default two workers, then one worker, then spans on.
    def server_rates(server, reps: int, between=None) -> "tuple[list[float], list]":
        """``reps`` closed-loop passes; ``between`` runs after each pass but the last."""
        rates, records = [], []
        for i in range(reps):
            result = _server_pass(server, stream)
            rates.append(result.pts_per_s(stream))
            records += result.records
            if between is not None and i < reps - 1:
                between()
        return rates, records

    reps = max(3, int(probe.budget / l3_s))
    server = wl.build_server(domains)
    try:
        _server_pass(server, stream)  # warm the worker threads
        traced_rates = []

        def traced_pass():
            obs.enable()
            try:
                traced_rates.append(_server_pass(server, stream).pts_per_s(stream))
            finally:
                obs.disable()
                obs.clear_events()

        # Spans-on passes are interleaved with the plain ones they are compared to.
        before = server.stats()
        rates, loaded = server_rates(server, reps, between=traced_pass)
        after = server.stats()
        l1_rate = statistics.median(rates)
        m["serving.server.pts_per_s"] = l1_rate
        m["serving.server.requests_per_batch"] = (
            (after["requests_per_batch"] * after["batches"]
             - before["requests_per_batch"] * before["batches"])
            / (after["batches"] - before["batches"]))
        m["obs.spans_overhead_frac"] = 1.0 - statistics.median(traced_rates) / l1_rate
        single = _server_pass(server, stream[:4 * LADDER_BATCH], in_flight=1).records
        both = [r for r in loaded + single if r[3]]
        m["serving.server.queue_ms"] = 1e3 * statistics.median(r[4] for r in both)
        m["serving.server.service_ms"] = 1e3 * statistics.median(r[5] for r in both)
        m["serving.server.handoff_ms"] = 1e3 * statistics.median(
            r[2] - r[1] - r[4] - r[5] for r in single if r[3])
        wl.add_request_spans(probe.spans, "serving.server", single)

        latencies, lags = _open_loop(server, stream, rng, max(8 * probe.budget, 0.5), probe.spans)
        m["loadgen.open_p50_ms"] = 1e3 * float(np.percentile(latencies, 50))
        m["loadgen.open_p95_ms"] = 1e3 * float(np.percentile(latencies, 95))
        m["loadgen.lag_p99_ms"] = 1e3 * float(np.percentile(lags, 99))
        m["inference.cache.hit_rate"] = server.stats()["cache_hit_rate"]

        # Top of the ladder: the HTTP gateway, one blocking client.
        httpd = start_http_server(server)
        try:
            port = httpd.server_address[1]
            client = Client(port=port)
            m["serving.api.roundtrip_ms"] = 1e3 * probe.time("serving.api.health", client.health)
            overheads, round_trips = [], []

            def grid_call():
                t0 = time.perf_counter()
                result = client.predict_grid("d0", wl.GRID_SHAPE)
                rt = time.perf_counter() - t0
                round_trips.append(rt)
                overheads.append(rt - result.queue_seconds - result.service_seconds)

            probe.samples("serving.api.predict_grid", grid_call)
            m["serving.api.grid_overhead_ms"] = 1e3 * statistics.median(overheads)
            http_rate = np.prod(wl.GRID_SHAPE) / statistics.median(round_trips)
            # Bytes of the values array alone: the rest of the body (request id,
            # timings) varies in length from call to call, the array does not.
            conn = HTTPConnection("127.0.0.1", port, timeout=60.0)
            try:
                conn.request("POST", "/query", headers={"Content-Type": "application/json"},
                             body=json.dumps({"domain_id": "d0", "output_shape": wl.GRID_SHAPE}))
                reply = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            m["serving.api.reply_bytes_per_point"] = (
                len(json.dumps(reply["values"])) / np.prod(wl.GRID_SHAPE))
        finally:
            stop_http_server(httpd)
    finally:
        server.close()
    one_worker = wl.build_server(domains, n_workers=1)
    try:
        _server_pass(one_worker, stream)
        m["serving.server.worker_scaling"] = l1_rate / statistics.median(
            server_rates(one_worker, reps)[0])
    finally:
        one_worker.close()

    # Budget of one served point request: ladder self times against the L1 wall time.
    l1_s = n_pts / l1_rate
    rows = [
        ("core.imnet", imnet_s), ("core.latent_grid", decode_s - imnet_s),
        ("inference.cache", hits_s), ("inference.planner", plan_s),
        ("inference.engine", l3_s - plan_s - hits_s - decode_s),
        ("serving.scheduler.run_batch", run_s - l3_s),
        ("serving.scheduler.submit+next_batch", submit_s + next_s),
    ]
    attributed = sum(max(s, 0.0) for _, s in rows)
    m["budget.serve-points.unattributed_frac"] = 1.0 - attributed / l1_s
    # (level, pts/s, index of the level it is compared with)
    ladder = [
        ("core.imnet (8 rows per point)", m["core.imnet.rows_per_s_tiny"] / 8, None),
        ("compile.imnet (off the default path)", m["compile.imnet_rows_per_s"] / 8, None),
        ("core.latent_grid.query_latent_grid", m["core.latent_grid.decode_pts_per_s_tiny"], 0),
        ("inference.engine.query (L3)", m["inference.engine.query_pts_per_s"], 2),
        ("serving.scheduler.run_batch (L2)", m["serving.scheduler.run_batch_pts_per_s"], 3),
        ("serving.server.ModelServer (L1)", l1_rate, 4),
        ("grid requests: inference.engine.predict_grid", m["inference.engine.grid_pts_per_s"], None),
        ("grid requests: serving.api over HTTP, 1 client", http_rate, 6),
    ]
    lines = ["serving budget: points per second at each level, and the factor lost to the level above",
             f"  {'level':<48} {'pts/s':>10} {'lost':>8}"]
    for name, rate, above in ladder:
        lost = "" if above is None else f"{ladder[above][1] / rate:7.2f}x"
        lines.append(f"  {name:<48} {rate:>10.0f} {lost:>8}")
    lines.append(f"  one pass of {n_req} requests ({n_pts} points) through ModelServer takes "
                 f"{l1_s * 1e3:.1f} ms; layer self times:")
    for name, s in rows + [("unattributed (threads, GIL, batch formation)", l1_s - attributed)]:
        lines.append(f"  {name:<48} {s * 1e3:>9.2f} ms {s / l1_s:>7.1%}")
    return m, "\n".join(lines)


# -------------------------------------------------------------------- training
def _reduction_costs(trainer, probe: Probe, tag: str) -> "dict[str, float]":
    """flatten / all-reduce / assign / optimizer.step on the trainer's real gradients."""
    params = trainer.model.parameters()
    grads = [p.grad for p in params]
    buckets, nodes = trainer.buckets, trainer.nodes
    costs = {"flatten": probe.time(f"distributed.flatten.{tag}", lambda: buckets.flatten(grads), tag)}
    node_buffers = [buckets.flatten(grads) for _ in range(nodes)]
    comm = SimulatedCommunicator(nodes)

    def allreduce():
        return [comm.allreduce([node_buffers[n][b] for n in range(nodes)], average=True)[0]
                for b in range(buckets.num_buckets)]

    costs["allreduce"] = probe.time(f"distributed.allreduce.{tag}", allreduce, tag)
    reduced = allreduce()
    costs["assign"] = probe.time(f"distributed.assign.{tag}",
                                 lambda: buckets.assign(params, reduced), tag)
    costs["optimizer"] = probe.time(f"optim.step.{tag}", trainer.optimizer.step, tag)
    return costs


def _timed_steps(trainer, n_steps: int, spans: SpanRecorder, tag: str) -> "tuple[float, list]":
    """Median ``train_step`` seconds over ``n_steps`` and the node batches they used."""
    times, batches = [], []
    for i in range(n_steps):
        t0 = time.perf_counter()
        trainer.train_step(i + 1, 0)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        spans.add(tag, t0, t1, op=i + 1)
        batches += wl.node_batches(trainer)
    return statistics.median(times), batches


def _budget_table(title: str, rows: "list[tuple[str, float]]", step_s: float) -> "tuple[str, float]":
    attributed = sum(s for _, s in rows)
    lines = [f"{title}: {step_s * 1e3:.1f} ms per train_step"]
    for name, s in rows + [("unattributed", step_s - attributed)]:
        lines.append(f"  {name:<48} {s * 1e3:>9.2f} ms {s / step_s:>7.1%}")
    return "\n".join(lines), 1.0 - attributed / step_s


def training_layers(seed: int, probe: Probe, failures: "list[str]", out_dir) -> "tuple[dict, str]":
    """Ladder ``sample_batch`` -> forward / residual / VJP (or one plan replay) ->
    flatten / all-reduce / assign -> ``optimizer.step`` against ``train_step``.

    Order matters: a compiled training plan is ~10^5 container objects, and
    while one is alive every cyclic-GC pass the eager tape triggers walks it
    (eager steps in the same process read 1.2-3.5x slower).  So everything
    eager is measured before the first plan is traced.
    """
    m: dict = {}
    n_steps = 8 if probe.budget >= 0.25 else 2
    ddp_table = _ddp_layers(seed, probe, n_steps, out_dir, m)
    eqloss_table = _eqloss_layers(seed, probe, n_steps, failures, m)
    return m, eqloss_table + "\n\n" + ddp_table


def _first_node_batch_indices(trainer) -> "list[int]":
    return [i for _n, _a, _r, drawn in trainer.last_step_indices[:trainer.ranks_per_node]
            for i in drawn]


def _ddp_layers(seed: int, probe: Probe, n_steps: int, out_dir, m: dict) -> str:
    """train-ddp: the eager tape, single backward, 4-node ring all-reduce."""
    trainer = wl.build_trainer("train-ddp", wl.training_data("train-ddp", seed))
    nodes, config = trainer.nodes, trainer.config
    trainer.train_step(0, 0)
    comm = trainer.communicator
    bytes_before, calls_before = comm.total_bytes, comm.num_collectives
    step_s, batches = _timed_steps(trainer, n_steps, probe.spans, "train-ddp")
    m["distributed.comm_bytes_per_step"] = (comm.total_bytes - bytes_before) / n_steps
    m["distributed.collectives_per_step"] = (comm.num_collectives - calls_before) / n_steps
    eager_model = trainer.model.replicate(1, share_parameters=False)[0]
    batch = batches[0]
    lowres, coords, targets = Tensor(batch.lowres), Tensor(batch.coords), Tensor(batch.targets)
    forward, loss_s, backward = [], [], []
    end = time.perf_counter() + probe.budget
    while len(forward) < 3 or time.perf_counter() < end:
        eager_model.zero_grad()
        t0 = time.perf_counter()
        pred = eager_model(lowres, coords)
        t1 = time.perf_counter()
        loss = prediction_loss(pred, targets, norm=trainer.weights.norm)
        t2 = time.perf_counter()
        loss.backward()
        t3 = time.perf_counter()
        forward.append(t1 - t0)
        loss_s.append(t2 - t1)
        backward.append(t3 - t2)
        probe.spans.add("autodiff.forward", t0, t1, "train-ddp")
        probe.spans.add("autodiff.backward", t2, t3, "train-ddp")
    forward_s, backward_s = statistics.median(forward), statistics.median(backward)
    m["autodiff.forward_ms"] = forward_s * 1e3
    m["autodiff.backward_ms"] = backward_s * 1e3
    indices = _first_node_batch_indices(trainer)
    sample_s = probe.time("data.sample_batch", lambda: trainer.dataset.sample_batch(indices, epoch=0),
                          "train-ddp")
    m["data.sample_batch_ms"] = sample_s * 1e3
    costs = _reduction_costs(trainer, probe, "train-ddp")
    m["distributed.flatten_ms"] = costs["flatten"] * 1e3
    m["distributed.allreduce_ms"] = costs["allreduce"] * 1e3
    m["distributed.assign_ms"] = costs["assign"] * 1e3
    m["optim.step_ms"] = costs["optimizer"] * 1e3
    n_params = sum(p.data.size for p in trainer.model.parameters())
    m["distributed.model_step_ms"] = 1e3 * ScalingPerformanceModel(
        n_parameters=n_params, bytes_per_parameter=trainer.model.dtype.itemsize,
        compute_time_per_sample=(forward_s + backward_s) / len(batch),
        batch_size_per_worker=config.batch_size,
    ).step_time(config.world_size)

    single = Trainer(trainer.model.replicate(1, share_parameters=False)[0], trainer.dataset,
                     config=TrainerConfig(batch_size=config.batch_size * config.world_size,
                                          world_size=1, gamma=0.0))
    single.train_step(0, 0)
    step_index = itertools.count(1)
    m["training.single_worker_step_ms"] = 1e3 * probe.time(
        "training.single_worker_step", lambda: single.train_step(next(step_index), 0), min_reps=2)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        m["training.checkpoint_save_ms"] = 1e3 * probe.time(
            "training.checkpoint_save", lambda: trainer.save(f"{tmp}/checkpoint.npz"))
    table, m["budget.train-ddp.unattributed_frac"] = _budget_table(
        "train-ddp budget", [
            (f"data.sample_batch x{nodes}", nodes * sample_s),
            (f"autodiff.forward x{nodes}", nodes * forward_s),
            (f"core.losses.prediction_loss x{nodes}", nodes * statistics.median(loss_s)),
            (f"autodiff.backward x{nodes}", nodes * backward_s),
            (f"distributed.flatten x{nodes}", nodes * costs["flatten"]),
            ("distributed.allreduce", costs["allreduce"]),
            ("distributed.assign", costs["assign"]),
            ("optim.step", costs["optimizer"]),
        ], step_s)
    return table + (f"\n  beside it: single-worker step {m['training.single_worker_step_ms']:.1f} ms; "
                    f"alpha-beta model of a real {config.world_size}-worker cluster "
                    f"{m['distributed.model_step_ms']:.2f} ms")


def _eqloss_layers(seed: int, probe: Probe, n_steps: int, failures: "list[str]", m: dict) -> str:
    """train-eqloss: eager forward + double backward, then the compiled plan replay."""
    data = wl.training_data("train-eqloss", seed)
    # An eager twin draws the same first-step batches the compiled trainer will.
    twin = wl.build_trainer("train-eqloss", data, compile=False)
    twin.synchronize_gradients(0, 0)
    batch = wl.node_batches(twin)[0]
    eager_model = twin.model.replicate(1, share_parameters=False)[0]
    forward, backward = [], []
    for _ in range(2):
        eager_model.zero_grad()
        t0 = time.perf_counter()
        total, eager_first = compute_losses(
            eager_model, Tensor(batch.lowres), Tensor(batch.coords, requires_grad=True),
            Tensor(batch.targets), twin.pde_system, twin.weights, batch.coord_scales)
        t1 = time.perf_counter()
        total.backward()
        t2 = time.perf_counter()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
        probe.spans.add("core.losses.eqloss_forward", t0, t1, "train-eqloss")
        probe.spans.add("autodiff.double_backward", t1, t2, "train-eqloss")
    eager_s = statistics.median(forward) + statistics.median(backward)
    m["core.losses.eqloss_forward_ms"] = 1e3 * statistics.median(forward)
    m["autodiff.double_backward_ms"] = 1e3 * statistics.median(backward)

    eager_grads = [p.grad.copy() for p in eager_model.parameters()]
    compiled_model = eager_model.replicate(1, share_parameters=False)[0]
    del twin, eager_model, total

    # The trainer of the workload: trace time, step time and reduction costs.
    # It is dropped again before the stand-alone step is traced, because
    # tracing beside a live plan takes three times as long (same GC effect).
    trainer = wl.build_trainer("train-eqloss", data)
    nodes = trainer.nodes
    t0 = time.perf_counter()
    trainer.train_step(0, 0)
    m["compile.train_trace_s"] = time.perf_counter() - t0
    probe.spans.add("compile.train_trace", t0, time.perf_counter(), "train-eqloss")
    step_s, batches = _timed_steps(trainer, n_steps, probe.spans, "train-eqloss")
    indices = _first_node_batch_indices(trainer)
    sample_s = probe.time("data.sample_batch.eqloss",
                          lambda: trainer.dataset.sample_batch(indices, epoch=0), "train-eqloss")
    costs = _reduction_costs(trainer, probe, "train-eqloss")
    pde_system, weights = trainer.pde_system, trainer.weights
    del trainer
    gc.collect()

    step = CompiledTrainingStep(compiled_model, pde_system, weights)
    if step(batch) != eager_first or not all(
            np.array_equal(p.grad, g) for p, g in zip(compiled_model.parameters(), eager_grads)):
        failures.append("compiled training step is not bit-equal to the eager step")
    upcoming = itertools.cycle(batches)

    def replay():
        compiled_model.zero_grad()
        step(next(upcoming))

    replay_s = probe.time("compile.train_step", replay, "train-eqloss")
    m["compile.train_step_ms"] = replay_s * 1e3
    m["compile.eqloss_ratio"] = eager_s / replay_s
    plans, stats = step.plans, step.stats()
    m["compile.train_plan_steps"] = sum(p.stats.n_ops for p in plans)
    m["compile.train_codegen_regions"] = sum(p.stats.n_codegen_regions for p in plans)
    m["compile.train_arena_bytes"] = sum(p.stats.arena_bytes for p in plans)
    m["compile.n_plans"] = stats["n_plans"]
    m["compile.fallbacks"] = sum(stats["fallbacks"].values())
    if m["compile.fallbacks"]:
        failures.append(f"compiled training step fell back to eager: {stats['fallbacks']}")
    table, m["budget.train-eqloss.unattributed_frac"] = _budget_table(
        "train-eqloss budget", [
            (f"data.sample_batch x{nodes}", nodes * sample_s),
            (f"compile plan replay (fwd+residual+VJP) x{nodes}", nodes * replay_s),
            (f"distributed.flatten x{nodes}", nodes * costs["flatten"]),
            ("distributed.allreduce", costs["allreduce"]),
            ("distributed.assign", costs["assign"]),
            ("optim.step", costs["optimizer"]),
        ], step_s)
    return table
