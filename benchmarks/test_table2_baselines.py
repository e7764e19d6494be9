"""Table 2 — MeshfreeFlowNet vs. Baseline I (trilinear) and Baseline II (U-Net decoder).

Paper shape to compare against: the trilinear baseline fails badly on the
velocity-derived metrics, the U-Net decoder baseline is much better, and
MeshfreeFlowNet (especially with γ = γ*) is best.
"""

import pytest

from repro.metrics import format_table
from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="table2")
def test_table2_baselines(benchmark, bench_scale, once):
    cfg = PipelineConfig(scale_overrides=bench_scale, tables={"table2": True}, figures={})
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="table.table2")
    assert report.ok
    reports = report.values["table.table2"]["reports"]
    assert set(reports) == {"baseline_I_trilinear", "baseline_II_unet", "mfn_gamma=0", "mfn_gamma=gamma*"}
    for report in reports.values():
        assert len(report.r2) == 9
    print()
    print(format_table(reports, title="Table 2 (benchmark scale) — baselines comparison"))
