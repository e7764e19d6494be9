"""Pipeline orchestration overhead: cold run vs warm (all-cache-hit) run.

The value proposition of the content-addressed pipeline is that re-running an
unchanged experiment costs artifact loads, not recomputation.  This benchmark
times the standard Table-1 DAG cold and warm and records both wall times (and
their ratio) in ``BENCH_pr9.json`` so CI and future PRs can track the cache's
effectiveness.
"""

import time

import pytest

from repro.pipeline import ArtifactStore, PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="pipeline")
def test_pipeline_warm_vs_cold(benchmark, bench_scale, once, tmp_path, bench_artifact):
    cfg = PipelineConfig(
        name="bench",
        scale_overrides=bench_scale,
        table1_gammas=(0.0, 0.0125),
        validate_table1=False,
        jobs=2,
    )
    store = ArtifactStore(tmp_path / "store")

    t0 = time.perf_counter()
    cold = run_pipeline(build_standard_pipeline(cfg), store=store, jobs=cfg.jobs)
    cold_seconds = time.perf_counter() - t0
    assert cold.ok and cold.counts() == {"computed": len(cold.results)}

    # Warm run under pytest-benchmark timing: must be 100% cache hits.
    warm = once(benchmark, run_pipeline, build_standard_pipeline(cfg),
                store=store, jobs=cfg.jobs)
    assert warm.ok
    assert warm.counts() == {"cached": len(warm.results)}
    warm_seconds = warm.seconds

    assert warm_seconds < cold_seconds, "cache hits must beat recomputation"
    bench_artifact(
        "pipeline_warm_vs_cold",
        artifact="BENCH_pr9.json",
        stages=len(cold.results),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        speedup=cold_seconds / warm_seconds,
    )
