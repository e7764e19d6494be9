"""Figure 6 — qualitative comparison: low-res input / super-resolved / ground truth.

Produces the field arrays of the figure's three rows (plus the trilinear
baseline) for one snapshot and reports reconstruction errors.
"""

import numpy as np
import pytest

from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="fig6")
def test_fig6_qualitative_fields(benchmark, bench_scale, once):
    cfg = PipelineConfig(scale_overrides=bench_scale, tables={}, figures={"fig6": True},
                         gamma_star=0.0125)
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="fig.fig6")
    assert report.ok
    result = report.values["fig.fig6"]
    channels = ("p", "T", "u", "w")
    assert result["channels"] == channels
    for group in ("lowres", "prediction", "trilinear", "ground_truth"):
        assert set(result[group]) == set(channels)
        for field in result[group].values():
            assert field.ndim == 2
            assert np.isfinite(field).all()
    # Prediction grids must be at the high resolution, inputs at the low resolution.
    assert result["prediction"]["T"].shape == result["ground_truth"]["T"].shape
    assert result["lowres"]["T"].size < result["ground_truth"]["T"].size
    print()
    print(f"Fig. 6 reconstruction MAE — MeshfreeFlowNet: {result['errors']['prediction_mae']:.4f}, "
          f"trilinear: {result['errors']['trilinear_mae']:.4f}")
