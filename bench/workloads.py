"""The five workloads: seeded inputs, set-up, timed rounds and correctness checks.

Every workload generates its inputs from ``numpy.random.default_rng(seed)``
in ``__init__``; the program only ever sees those arrays and requests.
``setup`` builds and warms the program objects (it is timed, and repeatable);
``run_round`` measures one window; ``check`` compares kept outputs against a
reference path of the program, outside the timed windows, and returns one
message per failed check.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import threading
import time
from functools import partial
from typing import Optional

import numpy as np

from repro import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.autodiff import Tensor
from repro.core import compute_losses
from repro.inference import InferenceEngine
from repro.obs import REGISTRY
from repro.scenarios import get_scenario
from repro.serving import (Client, ModelServer, QueryRequest, start_http_server,
                           stop_http_server)
from repro.training import DistributedTrainer, TrainerConfig

from .harness import Round, SpanRecorder

DOMAIN_SHAPE = (1, 4, 8, 64, 64)
SERVE_TILE = (8, 32, 32)
GRID_SHAPE = (4, 32, 32)
#: Point-request sizes and their probabilities in the ``serve-points`` stream.
REQUEST_SIZES = ((16, 64, 256), (0.5, 0.35, 0.15))
#: ``serve-points`` splits each window 2.2 : 0.8 between its two phases.
THROUGHPUT_SHARE = 2.2 / 3.0
IN_FLIGHT = 32


# -------------------------------------------------------------- serving inputs
def make_domains(rng: np.random.Generator, n: int = 4) -> "dict[str, np.ndarray]":
    """``n`` seeded low-resolution domains keyed ``d0..``."""
    return {f"d{i}": rng.standard_normal(DOMAIN_SHAPE) for i in range(n)}


def point_stream(rng: np.random.Generator, n: int, n_domains: int = 4) -> "list[tuple]":
    """Seeded ``(domain_id, coords)`` point requests: mixed sizes, uniform domains."""
    sizes = rng.choice(REQUEST_SIZES[0], p=REQUEST_SIZES[1], size=n)
    domains = rng.integers(0, n_domains, size=n)
    return [(f"d{d}", rng.random((int(s), 3))) for d, s in zip(domains, sizes)]


def tiny_model() -> MeshfreeFlowNet:
    return MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()


def build_server(domains: "dict[str, np.ndarray]", **kwargs) -> ModelServer:
    """Default-argument :class:`ModelServer` with every domain registered and encoded."""
    server = ModelServer(tiny_model(), tile_shape=SERVE_TILE, **kwargs)
    for name, lowres in domains.items():
        server.register_domain(name, lowres)
        # A dense grid touches every tile, so this fills the latent cache.
        server.query(QueryRequest(name, output_shape=GRID_SHAPE)).raise_for_status()
    return server


# ------------------------------------------------------------ closed-loop load
@dataclasses.dataclass
class LoopResult:
    """Outcome of :func:`drive_closed`; ``records`` rows are
    ``(index, t_submit, t_done, ok, queue_s, service_s)``."""

    t0: float
    t_end: float
    records: "list[tuple]"
    samples: "list[tuple]"

    def window_rate(self) -> "tuple[int, float]":
        """Ops completed inside the window and the time the last of them took.

        Dividing by the time of the last completion, not the nominal window,
        keeps the rate from being quantised to ``count / window``.
        """
        finished = [r[2] for r in self.records if r[3] and r[2] <= self.t_end]
        return len(finished), max(finished, default=self.t_end) - self.t0

    def pts_per_s(self, stream) -> float:
        points = sum(stream[r[0] % len(stream)][1].shape[0] for r in self.records if r[3])
        return points / (self.t_end - self.t0)


def drive_closed(server: ModelServer, stream: "list[tuple]", start: int, in_flight: int,
                 seconds: Optional[float] = None, count: Optional[int] = None,
                 sample_every: int = 0) -> LoopResult:
    """One generator thread keeping ``in_flight`` requests outstanding.

    Requests are ``submit`` futures refilled as they complete; the loop ends
    at the ``seconds`` deadline or after ``count`` submissions, then drains.
    Every ``sample_every``-th reply's values are kept for the correctness check.
    """
    records: "list[tuple]" = []
    samples: "list[tuple]" = []
    slots = threading.Semaphore(in_flight)

    def done(index: int, t_submit: float, future) -> None:
        t_done = time.perf_counter()
        result = None if future.cancelled() or future.exception() else future.result()
        ok = result is not None and result.ok
        records.append((index, t_submit, t_done, ok,
                        result.queue_seconds if ok else 0.0,
                        result.service_seconds if ok else 0.0))
        if ok and sample_every and index % sample_every == 0:
            samples.append((index, result.values))
        slots.release()

    t0 = time.perf_counter()
    deadline = t0 + seconds if seconds is not None else math.inf
    submitted = 0
    while count is None or submitted < count:
        slots.acquire()
        if time.perf_counter() >= deadline:
            slots.release()
            break
        index = start + submitted
        domain, coords = stream[index % len(stream)]
        t_submit = time.perf_counter()
        try:
            future = server.submit(QueryRequest(domain, coords=coords))
        except RuntimeError:  # admission control or a closed scheduler: a failed op
            records.append((index, t_submit, time.perf_counter(), False, 0.0, 0.0))
            slots.release()
        else:
            future.add_done_callback(partial(done, index, t_submit))
        submitted += 1
    for _ in range(in_flight):
        if not slots.acquire(timeout=60.0):
            raise RuntimeError("closed loop: a request never completed")
    t_end = min(deadline, time.perf_counter())
    return LoopResult(t0, t_end, records, samples)


def add_request_spans(spans: SpanRecorder, name: str, records) -> None:
    """One op span per request plus queue / service / hand-off children."""
    for index, t_submit, t_done, ok, queue_s, service_s in records:
        if not ok:
            continue
        spans.add(name, t_submit, t_done, op=index)
        spans.add("serving.server.queue", t_submit, t_submit + queue_s, name, index)
        spans.add("serving.server.service", t_submit + queue_s,
                  t_submit + queue_s + service_s, name, index)
        spans.add("serving.handoff", t_submit + queue_s + service_s, t_done, name, index)


# ------------------------------------------------------------------- workloads
class Workload:
    """Interface the harness drives; see the module docstring.

    Subclasses are constructed as ``cls(seed, smoke)``.
    """

    name = ""

    def __init__(self):
        #: Comparisons :meth:`check` made; they count as attempted ops.
        self.checked = 0

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (threads, sockets)."""

    def run_round(self, window: float, spans: SpanRecorder) -> Round:
        raise NotImplementedError

    def check(self) -> "list[str]":
        raise NotImplementedError


class ServePoints(Workload):
    """Mixed-size point requests against an in-process, pre-warmed ``ModelServer``."""

    name = "serve-points"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.domains = make_domains(rng)
        self.stream = point_stream(rng, 200 if smoke else 2000)
        self.server: Optional[ModelServer] = None
        self._cursor = 0
        self._samples: "list[tuple]" = []

    def setup(self) -> None:
        self.server = build_server(self.domains)
        # Let the worker threads, allocator and telemetry windows reach steady
        # state under load before anything is timed.
        drive_closed(self.server, self.stream, 0, IN_FLIGHT, count=len(self.stream) // 4)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def run_round(self, window: float, spans: SpanRecorder) -> Round:
        cpu0 = time.process_time()
        loaded = drive_closed(self.server, self.stream, self._cursor, IN_FLIGHT,
                              seconds=window * THROUGHPUT_SHARE,
                              sample_every=0 if self._samples else 37)
        self._cursor += len(loaded.records)
        single = drive_closed(self.server, self.stream, self._cursor, 1,
                              seconds=window * (1.0 - THROUGHPUT_SHARE))
        self._cursor += len(single.records)
        self._samples = self._samples or loaded.samples[:32]
        records = loaded.records + single.records
        if spans.enabled:
            add_request_spans(spans, self.name, records)
        completed, busy_s = loaded.window_rate()
        return Round(
            attempted=len(records), failed=sum(1 for r in records if not r[3]),
            completed=completed, busy_s=busy_s,
            latencies=[r[2] - r[1] for r in single.records if r[3]],
            cpu_s=time.process_time() - cpu0,
        )

    def check(self) -> "list[str]":
        engine = InferenceEngine(tiny_model(), tile_shape=SERVE_TILE, cache_tiles=64)
        failures = []
        for index, values in self._samples:
            domain, coords = self.stream[index % len(self.stream)]
            self.checked += 1
            if not np.array_equal(values, engine.query_points(self.domains[domain], coords)):
                failures.append(f"request {index}: served values differ from a direct engine call")
        if not self._samples:
            failures.append("no reply was sampled for the correctness check")
        return failures


class ServeGridHttp(Workload):
    """Two blocking HTTP clients repeating a 4096-point grid request."""

    name = "serve-grid-http"
    clients = 2

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.domains = make_domains(rng)
        self.choices = rng.integers(0, len(self.domains), size=(self.clients, 4096))
        self.server: Optional[ModelServer] = None
        self.httpd = None
        self._calls = [0] * self.clients
        self._kept: "list[tuple]" = []

    def setup(self) -> None:
        self.server = build_server(self.domains)
        self.httpd = start_http_server(self.server)
        client = Client(port=self.httpd.server_address[1])
        for name in self.domains:  # one warm request per domain through the gateway
            client.predict_grid(name, GRID_SHAPE).raise_for_status()

    def teardown(self) -> None:
        if self.httpd is not None:
            stop_http_server(self.httpd)
            self.httpd = None
        if self.server is not None:
            self.server.close()
            self.server = None

    def _client_loop(self, k: int, deadline: float, out: list, keep: bool) -> None:
        client = Client(port=self.httpd.server_address[1])
        while time.perf_counter() < deadline:
            domain = f"d{self.choices[k, self._calls[k] % self.choices.shape[1]]}"
            self._calls[k] += 1
            t0 = time.perf_counter()
            try:
                result = client.predict_grid(domain, GRID_SHAPE)
            except (OSError, RuntimeError, ValueError):
                out.append((t0, time.perf_counter(), False, 0.0, 0.0))
                continue
            t1 = time.perf_counter()
            out.append((t0, t1, result.ok, result.queue_seconds, result.service_seconds))
            if keep and result.ok:
                self._kept.append((domain, result.values))

    def run_round(self, window: float, spans: SpanRecorder) -> Round:
        cpu0 = time.process_time()
        outs: "list[list]" = [[] for _ in range(self.clients)]
        t0 = time.perf_counter()
        deadline = t0 + window
        threads = [threading.Thread(target=self._client_loop,
                                    args=(k, deadline, outs[k], not self._kept))
                   for k in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=window + 120.0)
            if thread.is_alive():
                raise RuntimeError("HTTP client thread did not finish")
        records = [r for out in outs for r in out]
        for op, (start, end, ok, queue_s, service_s) in enumerate(records):
            if ok:
                add_request_spans(spans, self.name, [(op, start, end, ok, queue_s, service_s)])
        finished = [r[1] for r in records if r[2] and r[1] <= deadline]
        return Round(
            attempted=len(records), failed=sum(1 for r in records if not r[2]),
            completed=len(finished), busy_s=max(finished, default=deadline) - t0,
            latencies=[r[1] - r[0] for r in records if r[2]],
            cpu_s=time.process_time() - cpu0,
        )

    def check(self) -> "list[str]":
        engine = InferenceEngine(tiny_model(), tile_shape=SERVE_TILE, cache_tiles=64)
        reference = {name: engine.predict_grid(lowres, GRID_SHAPE)
                     for name, lowres in self.domains.items()}
        failures = []
        for i, (domain, values) in enumerate(self._kept):
            self.checked += 1
            if not np.array_equal(values, reference[domain]):
                failures.append(f"reply {i} ({domain}): HTTP values differ from a direct engine call")
        if not self._kept:
            failures.append("no first-round reply was kept for the correctness check")
        return failures


class ColdDomain(Workload):
    """Point queries against never-seen domains: tile encodes and cache evictions."""

    name = "cold-domain"
    tile = (8, 48, 48)
    cache_tiles = 8
    n_points = 1024

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.coords = self.rng.random((self.n_points, 3))
        self.model: Optional[MeshfreeFlowNet] = None
        self.engine: Optional[InferenceEngine] = None
        self._kept: "list[tuple]" = []
        self._ops = 0

    def _fresh_domain(self) -> np.ndarray:
        return self.rng.standard_normal(DOMAIN_SHAPE)

    def teardown(self) -> None:
        self.engine = None

    def setup(self) -> None:
        self.model = MeshfreeFlowNet(MeshfreeFlowNetConfig.small()).eval()
        self.engine = InferenceEngine(self.model, tile_shape=self.tile,
                                      cache_tiles=self.cache_tiles)
        # Fill the tile cache so every timed op evicts as many tiles as it encodes.
        while self.engine.cache_stats.evictions == 0:
            self.engine.query_points(self._fresh_domain(), self.coords)

    def run_round(self, window: float, spans: SpanRecorder) -> Round:
        cpu0 = time.process_time()
        latencies, failed = [], 0
        deadline = time.perf_counter() + window
        while time.perf_counter() < deadline:
            lowres = self._fresh_domain()
            t0 = time.perf_counter()
            try:
                values = self.engine.query_points(lowres, self.coords)
            except (RuntimeError, ValueError):
                failed += 1
                continue
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            spans.add(self.name, t0, t1, op=self._ops)
            if len(self._kept) < 4 and self._ops % 3 == 0:
                self._kept.append((lowres, values))
            self._ops += 1
        return Round(attempted=len(latencies) + failed, failed=failed, completed=len(latencies),
                     busy_s=sum(latencies), latencies=latencies,
                     cpu_s=time.process_time() - cpu0)

    def check(self) -> "list[str]":
        direct = InferenceEngine(self.model)
        failures = []
        for i, (lowres, values) in enumerate(self._kept):
            self.checked += 1
            error = float(np.max(np.abs(values - direct.query_points(lowres, self.coords))))
            if not error < 1e-8:
                failures.append(f"sampled op {i}: tiled vs direct engine differ by {error:.3g}")
        if not self._kept:
            failures.append("no op was sampled for the correctness check")
        return failures


#: Shapes and trainer settings of the two training workloads.
TRAINING = {
    "train-eqloss": dict(
        generate=dict(nt=16, nz=16, nx=32), crop_shape_lr=(4, 4, 8), n_points=128, size="tiny",
        config=TrainerConfig(batch_size=2, world_size=4, nodes=2, gamma=0.0125,
                             learning_rate=1e-3, compile=True)),
    "train-ddp": dict(
        generate=dict(nt=16, nz=32, nx=64), crop_shape_lr=(4, 8, 16), n_points=256, size="small",
        config=TrainerConfig(batch_size=2, world_size=8, nodes=4, gamma=0.0, compile=False)),
}


def training_data(name: str, seed: int):
    """The seeded high-resolution simulation a training workload learns from."""
    return get_scenario("rayleigh_benard").generate(seed=seed, **TRAINING[name]["generate"])


def build_trainer(name: str, data, **config_overrides) -> DistributedTrainer:
    """Dataset, model and :class:`DistributedTrainer` of a training workload."""
    spec = TRAINING[name]
    scenario = get_scenario("rayleigh_benard")
    dataset = scenario.make_dataset(data, lr_factors=(2, 2, 2), crop_shape_lr=spec["crop_shape_lr"],
                                    n_points=spec["n_points"], samples_per_epoch=256)
    model = scenario.build_model(spec["size"])
    model.train()
    config = dataclasses.replace(spec["config"], **config_overrides)
    return DistributedTrainer(model, dataset, pde_system=scenario.make_pde_system(), config=config)


def node_batches(trainer: DistributedTrainer) -> list:
    """The fused per-node micro-batches of the trainer's last step."""
    by_node: "dict[int, list[int]]" = {}
    for node, _acc, _rank, indices in trainer.last_step_indices:
        by_node.setdefault(node, []).extend(indices)
    return [trainer.dataset.sample_batch(indices, epoch=0) for _, indices in sorted(by_node.items())]


def eager_micro_step(trainer: DistributedTrainer, model, batch, scale: float = 1.0):
    """Eager loss + backward of one micro-batch on ``model``; returns the breakdown."""
    uses_equation = trainer.weights.gamma > 0
    total, breakdown = compute_losses(
        model, Tensor(batch.lowres), Tensor(batch.coords, requires_grad=uses_equation),
        Tensor(batch.targets), trainer.pde_system if uses_equation else None,
        trainer.weights, coord_scales=batch.coord_scales)
    (total * scale).backward()
    return breakdown


class Train(Workload):
    """One optimizer step per op on a ``DistributedTrainer`` (see :data:`TRAINING`)."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        super().__init__()
        self.name = name
        self.data = training_data(name, seed)
        self.trainer: Optional[DistributedTrainer] = None
        self.records: "list[dict]" = []
        #: Steps whose records the checks compare; also the minimum a run performs.
        self.compared_steps = 3 if smoke or name == "train-eqloss" else 8

    def teardown(self) -> None:
        self.trainer = None

    def _step(self) -> dict:
        record = self.trainer.train_step(len(self.records), 0)
        self.records.append(record)
        return record

    def setup(self) -> None:
        self.trainer = build_trainer(self.name, self.data)
        self.records = []
        # The first step traces the compiled plan (train-eqloss) or pages in the
        # eager kernels (train-ddp); both belong to set-up, not to an op.
        for _ in range(3 if self.name == "train-eqloss" else 1):
            self._step()

    def run_round(self, window: float, spans: SpanRecorder) -> Round:
        cpu0 = time.process_time()
        latencies, failed = [], 0
        deadline = time.perf_counter() + window
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            record = self._step()
            t1 = time.perf_counter()
            if not math.isfinite(record["loss"]):
                failed += 1
                continue
            latencies.append(t1 - t0)
            spans.add(self.name, t0, t1, op=len(self.records) - 1)
        return Round(attempted=len(latencies) + failed, failed=failed, completed=len(latencies),
                     busy_s=sum(latencies), latencies=latencies,
                     cpu_s=time.process_time() - cpu0)

    def check(self) -> "list[str]":
        compared = self.compared_steps
        while len(self.records) < compared:
            self._step()
        failures = self._check_compiled() if self.name == "train-eqloss" else []
        # The eager twin runs 3x slower beside a live compiled plan (cyclic GC
        # walks the plan's objects), and the measured trainer is done.
        self.teardown()
        gc.collect()
        twin = build_trainer(self.name, self.data, compile=False)
        if self.name == "train-ddp":
            first, gradient_failures = self._step0_with_gradient_check(twin)
            failures += gradient_failures
        else:
            first = twin.train_step(0, 0)
        twin_records = [first] + [twin.train_step(i, 0) for i in range(1, compared)]
        if self.name == "train-eqloss":
            self.checked += compared
            for i, (got, want) in enumerate(zip(self.records, twin_records)):
                if got != want:
                    failures.append(f"step {i}: compiled record {got} != eager twin {want}")
        else:
            self.checked += 1
            got, want = self.records[compared - 1]["loss"], twin_records[-1]["loss"]
            if got != want:
                failures.append(f"loss after {compared} steps {got!r} != same-seed twin {want!r}")
        return failures

    def _step0_with_gradient_check(self, twin: DistributedTrainer) -> "tuple[dict, list[str]]":
        """Run the twin's step 0 by hand, comparing its all-reduced gradients
        against the serial average over the same per-node micro-batches."""
        reference = twin.model.replicate(1, share_parameters=False)[0]
        reference.train()
        reference.zero_grad()
        record = twin.synchronize_gradients(0, 0)
        reduced = [p.grad.copy() for p in twin.model.parameters()]
        twin.optimizer.step()  # synchronize + step is exactly train_step (no grad clipping)
        for batch in node_batches(twin):
            eager_micro_step(twin, reference, batch, scale=1.0 / twin.nodes)
        self.checked += 1
        worst = max(float(np.max(np.abs(got - want.grad)))
                    for got, want in zip(reduced, reference.parameters()))
        failures = [] if worst <= 1e-12 else [
            f"step-0 all-reduced gradients differ from the serial average by {worst:.3g}"]
        return record, failures

    def _check_compiled(self) -> "list[str]":
        """No plan fell back to eager, and the step plan was actually replayed."""
        self.checked += 1
        collected = REGISTRY.collect()
        fallbacks = sum(v for k, v in collected.items() if k.startswith("compile.fallbacks"))
        hits = sum(v for k, v in collected.items() if k.startswith("compile.plan_hits"))
        failures = []
        if fallbacks:
            failures.append(f"{fallbacks:g} compiled calls fell back to eager execution")
        if hits < len(self.records):
            failures.append(f"only {hits:g} plan replays for {len(self.records)} steps")
        return failures


WORKLOADS = {
    "serve-points": ServePoints,
    "serve-grid-http": ServeGridHttp,
    "cold-domain": ColdDomain,
    "train-eqloss": partial(Train, "train-eqloss"),
    "train-ddp": partial(Train, "train-ddp"),
}
