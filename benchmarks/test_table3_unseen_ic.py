"""Table 3 — generalisation to unseen initial conditions (1 vs N training datasets).

Paper shape to compare against: training on more initial conditions improves
every metric on an unseen initial condition.
"""

import pytest

from repro.metrics import format_table
from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="table3")
def test_table3_unseen_initial_conditions(benchmark, bench_scale, once):
    cfg = PipelineConfig(scale_overrides=bench_scale, tables={"table3": True}, figures={},
                         table3_dataset_counts=(1, 3))
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="table.table3")
    assert report.ok
    reports = report.values["table.table3"]["reports"]
    assert set(reports) == {"1_dataset", "3_datasets"}
    for report in reports.values():
        assert len(report.nmae) == 9
    print()
    print(format_table(reports, title="Table 3 (benchmark scale) — unseen initial conditions"))
