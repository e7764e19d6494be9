"""Table 1 — equation-loss weight (γ) sweep.

Regenerates the paper's γ ablation at benchmark scale: one MeshfreeFlowNet is
trained per γ and evaluated with the nine physics metrics on a held-out
simulation.  The paper's qualitative findings to compare against:

* γ = γ* = 0.0125 gives the best average R²,
* very large γ (≥ 0.4) severely degrades the reconstruction.
"""

import pytest

from repro.metrics import format_table
from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="table1")
def test_table1_gamma_sweep(benchmark, bench_scale, once):
    cfg = PipelineConfig(scale_overrides=bench_scale, tables={"table1": True}, figures={},
                         table1_gammas=(0.0, 0.0125, 0.2), validate_table1=False)
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="table.table1")
    assert report.ok
    reports = report.values["table.table1"]["reports"]
    assert set(reports) == {"gamma=0", "gamma=0.0125", "gamma=0.2"}
    for report in reports.values():
        # all nine metrics must be present and finite
        assert len(report.nmae) == 9
        assert all(v >= 0 for v in report.nmae.values())
    print()
    print(format_table(reports, title="Table 1 (benchmark scale) — gamma sweep"))
