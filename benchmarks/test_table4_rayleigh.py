"""Table 4 — generalisation across Rayleigh-number boundary conditions.

Trains on a mixture of Rayleigh numbers and evaluates on in-range and
out-of-range Rayleigh numbers.  Paper shape to compare against: performance is
best for Rayleigh numbers inside (or near) the training range and degrades
gradually, not catastrophically, far outside it.
"""

import pytest

from repro.metrics import format_table
from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="table4")
def test_table4_rayleigh_transfer(benchmark, bench_scale, once):
    cfg = PipelineConfig(scale_overrides=bench_scale, tables={"table4": True}, figures={},
                         table4_train_rayleigh=(2e5, 9e6),
                         table4_test_rayleigh=(1e4, 1e5, 5e6, 1e7, 1e8))
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="table.table4")
    assert report.ok
    reports = report.values["table.table4"]["reports"]
    assert set(reports) == {"Ra=1e+04", "Ra=1e+05", "Ra=5e+06", "Ra=1e+07", "Ra=1e+08"}
    for report in reports.values():
        assert len(report.r2) == 9
    print()
    print(format_table(reports, title="Table 4 (benchmark scale) — Rayleigh-number transfer"))
