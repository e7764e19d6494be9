"""Ablation benchmarks for the design choices called out in DESIGN.md."""

import pytest

from repro.pipeline import PipelineConfig, build_standard_pipeline, run_pipeline


def run_ablation(benchmark, once, name: str, **config):
    """Run one ablation's stages in memory, once, under the benchmark clock."""
    cfg = PipelineConfig(tables={}, figures={}, ablations={name: True}, **config)
    report = once(benchmark, run_pipeline, build_standard_pipeline(cfg), store=None,
                  until=f"ablation.{name}")
    assert report.ok
    return report.values


@pytest.mark.benchmark(group="ablation")
def test_ablation_decoder_activation(benchmark, bench_scale, once):
    """Smooth (softplus) vs. piecewise-linear (relu) decoder activations under the equation loss."""
    values = run_ablation(benchmark, once, "activation", scale_overrides=bench_scale,
                          ablation_activations=("softplus", "relu"), gamma_star=0.0125)
    assert set(values["ablation.activation"]["reports"]) == {"activation=softplus", "activation=relu"}


@pytest.mark.benchmark(group="ablation")
def test_ablation_latent_interpolation(benchmark, bench_scale, once):
    """Trilinear blending of the 8 bounding latent vectors (Eqn. 6) vs. nearest vertex."""
    values = run_ablation(benchmark, once, "interpolation", scale_overrides=bench_scale)
    assert set(values["ablation.interpolation"]["reports"]) == {"interpolation=trilinear", "interpolation=nearest"}


@pytest.mark.benchmark(group="ablation")
def test_ablation_latent_capacity(benchmark, bench_scale, once):
    """Latent context grid width: fewer channels -> fewer parameters."""
    values = run_ablation(benchmark, once, "capacity", scale_overrides=bench_scale,
                          ablation_latent_channels=(2, 6))
    assert set(values["ablation.capacity"]["reports"]) == {"latent=2", "latent=6"}
    assert (values["train.mfn.g0.latent2"]["num_parameters"]
            < values["train.mfn.g0.latent6"]["num_parameters"])


@pytest.mark.benchmark(group="ablation")
def test_ablation_allreduce_overlap(benchmark, once):
    """Communication/computation overlap and ring vs. naive all-reduce cost."""
    result = run_ablation(benchmark, once, "allreduce")["ablation.allreduce"]
    eff_no = result["results"]["overlap=0"][128]["efficiency"]
    eff_yes = result["results"]["overlap=0.9"][128]["efficiency"]
    assert eff_yes > eff_no
    assert result["ring_vs_naive_comm_time"]["ring"] < result["ring_vs_naive_comm_time"]["naive"]
