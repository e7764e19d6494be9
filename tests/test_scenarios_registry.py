"""Behaviour of the scenario registry and its wiring into the subsystems.

The physics of each registered scenario is covered by the conformance matrix
in ``tests/scenarios/``; this file pins the registry mechanics (lookup,
guards, helper methods) and the by-name resolution paths in the trainer, the
inference engine and the experiment harness.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.inference import InferenceEngine
from repro.scenarios import (
    AnalyticCase,
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.scenarios import registry as scenario_registry
from repro.simulation import synthetic_convection
from repro.training import Trainer, TrainerConfig

BUILTINS = ("advection_diffusion", "decaying_turbulence", "rayleigh_benard", "shallow_water")


def _probe_scenario(name: str) -> Scenario:
    return Scenario(
        name=name,
        fields=("p", "T", "u", "w"),
        pde="none",
        generator=lambda **kw: synthetic_convection(nt=4, nz=4, nx=8, **kw),
        analytic_cases=lambda: [],
    )


@pytest.fixture
def scratch_registry():
    added: set[str] = set()
    yield added
    for name in added:
        scenario_registry._REGISTRY.pop(name.lower(), None)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_scenarios()
        for name in BUILTINS:
            assert name in names
        assert len(names) >= 4  # >= 3 fully wired scenarios beyond Rayleigh-Benard

    def test_available_sorted_and_in_sync(self):
        names = available_scenarios()
        assert names == sorted(names)
        for name in names:
            assert get_scenario(name).name == name

    def test_lookup_case_insensitive(self):
        assert get_scenario("Shallow_Water") is get_scenario("shallow_water")

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError) as excinfo:
            get_scenario("plasma")
        message = str(excinfo.value)
        assert "plasma" in message
        for name in available_scenarios():
            assert name in message

    def test_duplicate_registration_raises(self, scratch_registry):
        register_scenario(_probe_scenario("probe_dup"))
        scratch_registry.add("probe_dup")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(_probe_scenario("probe_dup"))

    def test_overwrite_replaces(self, scratch_registry):
        register_scenario(_probe_scenario("probe_ow"))
        scratch_registry.add("probe_ow")
        replacement = Scenario(
            name="probe_ow", fields=("c",), pde="none",
            generator=lambda **kw: None, analytic_cases=lambda: [])
        register_scenario(replacement, overwrite=True)
        assert get_scenario("probe_ow").fields == ("c",)

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError, match="at least one field"):
            Scenario(name="bad", fields=(), pde="none",
                     generator=lambda **kw: None, analytic_cases=lambda: [])

    def test_top_level_exports(self):
        assert repro.available_scenarios() == available_scenarios()
        assert repro.get_scenario("rayleigh_benard").pde == "rayleigh_benard"
        assert repro.Scenario is Scenario
        assert repro.register_scenario is register_scenario


class TestScenarioHelpers:
    def test_make_pde_system_defaults_and_overrides(self):
        sc = get_scenario("decaying_turbulence")
        assert sc.make_pde_system().viscosity == sc.pde_kwargs["viscosity"]
        assert sc.make_pde_system(viscosity=0.5).viscosity == 0.5

    def test_model_config_pins_channel_layout(self):
        for name in BUILTINS:
            sc = get_scenario(name)
            cfg = sc.model_config("tiny")
            assert cfg.field_names == sc.fields
            assert cfg.out_channels == len(sc.fields)
            assert cfg.coord_names == sc.coords

    def test_build_model_matches_fields(self):
        sc = get_scenario("advection_diffusion")
        model = sc.build_model("tiny")
        assert isinstance(model, MeshfreeFlowNet)
        assert model.config.field_names == ("c",)

    def test_metric_fns_resolve(self):
        for name in BUILTINS:
            fns = get_scenario(name).metric_fns()
            for metric_name, fn in fns.items():
                assert callable(fn), metric_name

    def test_normalizer_round_trip(self):
        sc = get_scenario("shallow_water")
        result = sc.generate(nt=4, nz=8, nx=8, seed=1)
        norm = sc.normalizer(result)
        transformed = norm.transform(result.fields, channel_axis=1)
        back = norm.inverse_transform(transformed, channel_axis=1)
        np.testing.assert_allclose(back, result.fields, rtol=1e-12, atol=1e-12)

    def test_analytic_case_defaults(self):
        case = AnalyticCase(name="x", values={}, expected={})
        assert dict(case.pde_kwargs) == {}


class TestWiring:
    def test_trainer_resolves_scenario(self):
        sc = get_scenario("advection_diffusion")
        dataset = sc.make_dataset(generate_kwargs=dict(nt=4, nz=8, nx=8, seed=2),
                                  n_points=8, samples_per_epoch=2)
        trainer = Trainer(sc.build_model("tiny"), dataset,
                          config=TrainerConfig(epochs=1, batch_size=1,
                                               scenario="advection_diffusion"))
        assert trainer.pde_system is not None
        assert [c.name for c in trainer.pde_system.constraints] == ["transport"]

    def test_trainer_explicit_pde_wins(self):
        sc = get_scenario("advection_diffusion")
        dataset = sc.make_dataset(generate_kwargs=dict(nt=4, nz=8, nx=8, seed=2),
                                  n_points=8, samples_per_epoch=2)
        explicit = sc.make_pde_system(diffusivity=0.5)
        trainer = Trainer(sc.build_model("tiny"), dataset, pde_system=explicit,
                          config=TrainerConfig(epochs=1, batch_size=1,
                                               scenario="advection_diffusion"))
        assert trainer.pde_system is explicit

    def test_trainer_rejects_mismatched_model(self):
        sc = get_scenario("decaying_turbulence")
        dataset = sc.make_dataset(generate_kwargs=dict(nt=4, nz=8, nx=8, seed=2),
                                  n_points=8, samples_per_epoch=2)
        wrong = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny())  # (p, T, u, w) channels
        with pytest.raises(ValueError, match="field_names"):
            Trainer(wrong, dataset, config=TrainerConfig(scenario="decaying_turbulence"))

    def test_engine_for_scenario_builds_model(self):
        engine = InferenceEngine.for_scenario("shallow_water")
        assert engine.model.config.field_names == ("h", "u", "w")

    def test_engine_for_scenario_checks_model(self):
        wrong = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny())
        with pytest.raises(ValueError, match="field_names"):
            InferenceEngine.for_scenario("shallow_water", model=wrong)
        sc = get_scenario("shallow_water")
        engine = InferenceEngine.for_scenario("shallow_water", model=sc.build_model("tiny"),
                                              tile_shape=(2, 4, 4))
        assert engine.tile_shape == (2, 4, 4)

    def test_experiment_scale_scenario(self):
        from repro.pipeline import ExperimentScale, build_model, simulate

        scale = ExperimentScale(scenario="decaying_turbulence", hr_shape=(4, 8, 8))
        result = simulate(scale)
        assert result.channels == ("omega", "u", "w")
        assert build_model(scale).config.field_names == ("omega", "u", "w")

    def test_experiment_scale_default_unchanged(self):
        from repro.pipeline import ExperimentScale

        scale = ExperimentScale()
        assert scale.scenario == "rayleigh_benard"
        cfg = scale.model_config()
        assert cfg.field_names == ("p", "T", "u", "w")
