"""Figure 2 — a typical Rayleigh–Bénard solution (T, p, u, w fields).

Runs the data-generating solver and extracts a late-time snapshot of the four
physical fields plus its turbulence statistics (the data one would contour to
regenerate the figure).
"""

import numpy as np
import pytest

from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="fig2")
def test_fig2_simulation_snapshot(benchmark, bench_scale_solver, once):
    cfg = PipelineConfig(scale_overrides=bench_scale_solver, tables={}, figures={"fig2": True})
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="fig.fig2")
    assert report.ok
    result = report.values["fig.fig2"]
    fields = result["fields"]
    assert set(fields) == {"p", "T", "u", "w"}
    nz, nx = bench_scale_solver["hr_shape"][1:]
    for name, field in fields.items():
        assert field.shape == (nz, nx)
        assert np.isfinite(field).all()
    # The temperature field must retain the hot-bottom / cold-top stratification.
    temp = fields["T"]
    assert temp[:2].mean() > temp[-2:].mean()
    summary = result["turbulence_summary"]
    assert summary["Etot"] >= 0.0
    print()
    print(f"Fig. 2 snapshot at t={result['time']:.2f} (Ra={result['rayleigh']:.1e}):")
    for key, value in summary.items():
        print(f"  {key:20s} {value:12.5g}")
