"""Figure 7 — scaling study: throughput (7a), loss vs epochs (7b), loss vs wall time (7c).

Paper numbers to compare against: ≈96.80 % scaling efficiency and ≈1.9×10³
samples/s aggregate throughput at 128 GPUs; identical per-epoch loss curves
for 1–16 workers; drastically shorter wall time per epoch at high worker
counts.
"""

import pytest

from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


@pytest.mark.benchmark(group="fig7")
def test_fig7a_throughput_and_efficiency(benchmark, once):
    cfg = PipelineConfig(tables={}, figures={"fig7": True},
                         fig7_world_sizes=(1, 2, 4, 8, 16, 32, 64, 128),
                         fig7_curve_world_sizes=())
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="fig.fig7")
    assert report.ok
    result = report.values["fig.fig7"]
    throughput = result["throughput"]
    tps = [throughput[w]["throughput"] for w in (1, 2, 4, 8, 16, 32, 64, 128)]
    assert all(b > a for a, b in zip(tps, tps[1:]))          # monotone scaling
    assert result["efficiency_at_max"] == pytest.approx(0.968, abs=0.02)   # paper: 96.80 %
    assert 1.7e3 < throughput[128]["throughput"] < 2.1e3                   # paper: ~1.93e3 samples/s
    print()
    print("Fig. 7a (performance model):")
    for w in (1, 2, 4, 8, 16, 32, 64, 128):
        p = throughput[w]
        print(f"  {w:4d} workers  throughput={p['throughput']:9.1f} samples/s  "
              f"efficiency={p['efficiency']:.4f}  epoch={p['epoch_time']:.2f}s")


@pytest.mark.benchmark(group="fig7")
def test_fig7bc_loss_curves(benchmark, bench_scale, once):
    cfg = PipelineConfig(scale_overrides={**bench_scale, "epochs": 2},
                         tables={}, figures={"fig7": True},
                         fig7_world_sizes=(1, 2, 16, 128), fig7_curve_world_sizes=(1, 2))
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until="fig.fig7")
    assert report.ok
    result = report.values["fig.fig7"]
    curves = result["loss_curves"]
    assert set(curves) == {1, 2}
    for ws, curve in curves.items():
        assert len(curve["loss"]) == 2
        assert curve["wall_time"][-1] > curve["wall_time"][0] > 0
    # More workers -> shorter modelled wall time per epoch (Fig. 7c).
    assert curves[2]["modelled_epoch_time"] < curves[1]["modelled_epoch_time"]
    print()
    for ws, curve in curves.items():
        print(f"Fig. 7b/c  {ws} workers: losses={['%.4f' % l for l in curve['loss']]}, "
              f"epoch wall time={curve['modelled_epoch_time']:.2f}s")
