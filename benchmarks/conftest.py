"""Shared fixtures for the benchmark harness.

Every table/figure benchmark selects its experiment with a ``PipelineConfig``
at a CPU-friendly scale (the ``bench_scale`` overrides) and runs it in memory
through ``benchmark.pedantic(rounds=1)`` — the point of these benchmarks is to
*regenerate* the paper's tables and figures and report how long that takes,
not to micro-profile a hot loop.  The micro-benchmarks in
``test_microbenchmarks.py`` use normal multi-round timing.

Benchmarks that want their numbers tracked *across PRs* record entries
through the ``bench_artifact`` fixture; at session end the collected
entries are written to per-PR artifact files under the git-ignored
``.benchmarks/`` directory — a test run never touches a tracked file —
(``BENCH_pr3.json`` for the precision/serving gates, ``BENCH_pr4.json``
for the training gates, ``BENCH_pr5.json`` for the compiled-decode
gates, ``BENCH_pr7.json`` for the observability overhead gate,
``BENCH_pr8.json`` for the compiled training-step gate) —
machine-readable artifacts (throughput, latency percentiles,
peak memory, dtype) that CI and future PRs can diff against.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

#: Schema version of the BENCH_*.json artifacts.
BENCH_ARTIFACT_SCHEMA = "repro-bench/1"
#: Default artifact file for entries recorded without an explicit target.
BENCH_ARTIFACT_NAME = "BENCH_pr3.json"

_artifact_entries: dict[str, list[dict]] = {}


@pytest.fixture
def bench_artifact():
    """Record one machine-readable benchmark entry for a ``BENCH_*.json`` file.

    Call as ``bench_artifact(name, dtype=..., throughput=..., ...)``; every
    keyword lands verbatim in the artifact entry.  Recommended keys:
    ``dtype``, ``throughput`` + ``throughput_unit``, ``latency_ms``
    (mapping with ``p50``/``p95``/``p99``), ``peak_bytes``.  Pass
    ``artifact="BENCH_pr4.json"`` to target a different artifact file than
    the default ``BENCH_pr3.json``.
    """

    def record(name: str, artifact: str = BENCH_ARTIFACT_NAME, **fields) -> None:
        _artifact_entries.setdefault(artifact, []).append({"name": str(name), **fields})

    return record


def pytest_sessionfinish(session, exitstatus):
    """Merge collected benchmark entries into the ``.benchmarks/`` artifact files.

    Entries recorded this session replace same-named entries from previous
    runs; everything else is kept, so a partial benchmark run (one file)
    never silently drops the other benchmarks' data points.
    """
    for artifact, entries in _artifact_entries.items():
        if not entries:
            continue
        path = Path(str(session.config.rootpath)) / ".benchmarks" / artifact
        path.parent.mkdir(exist_ok=True)
        merged = {}
        if path.exists():
            try:
                previous = json.loads(path.read_text())
                if previous.get("schema") == BENCH_ARTIFACT_SCHEMA:
                    merged = {e["name"]: e for e in previous.get("entries", [])}
            except (json.JSONDecodeError, KeyError, TypeError):
                merged = {}
        merged.update({e["name"]: e for e in entries})
        payload = {
            "schema": BENCH_ARTIFACT_SCHEMA,
            "entries": sorted(merged.values(), key=lambda e: e["name"]),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def run_traced():
    """Run a callable and return ``(result, peak_traced_bytes)``.

    Shared tracemalloc wrapper for the peak-memory acceptance gates
    (inference engine, precision microbenchmark, serving fleet), so the
    measurement protocol stays identical across them.
    """

    def _run(fn):
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return _run


@pytest.fixture(scope="session")
def bench_scale() -> dict:
    """``PipelineConfig.scale_overrides`` of the table/figure regeneration benchmarks."""
    return dict(
        hr_shape=(16, 16, 64),
        lr_factors=(2, 2, 4),
        crop_shape_lr=(4, 4, 8),
        n_points=32,
        samples_per_epoch=8,
        epochs=2,
        batch_size=2,
    )


@pytest.fixture(scope="session")
def bench_scale_solver(bench_scale) -> dict:
    """Same overrides but generating data with the actual Rayleigh–Bénard solver."""
    return {**bench_scale, "backend": "solver", "t_final": 4.0}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
