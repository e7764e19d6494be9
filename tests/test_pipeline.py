"""Config front-end, standard experiment DAG, resumable training, validation, CLI."""

import json

import numpy as np
import pytest

from repro.experiments import SCALES
from repro.pipeline import (
    ArtifactStore,
    PipelineConfig,
    build_standard_pipeline,
    load_pipeline_config,
    load_pins,
    pins_from_reports,
    run_pipeline,
    validate_reports,
)
from repro.pipeline.cli import main as cli_main
from repro.pipeline.config import parse_toml

MICRO_OVERRIDES = {
    "hr_shape": (8, 8, 32), "lr_factors": (2, 2, 4), "crop_shape_lr": (2, 2, 4),
    "n_points": 8, "samples_per_epoch": 2, "epochs": 2, "batch_size": 1,
}


def micro_config(**kwargs) -> PipelineConfig:
    defaults = dict(scale_overrides=dict(MICRO_OVERRIDES),
                    table1_gammas=(0.0, 0.1), validate_table1=False, jobs=1)
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


SAMPLE_TOML = """
# comment line
[pipeline]
name = "demo"
scale = "tiny"
jobs = 3
table1_gammas = [0.0, 0.0125, 1.0]

[pipeline.scale_overrides]
epochs = 2
hr_shape = [8, 8, 32]

[pipeline.tables]
table1 = true
table2 = false

[pipeline.figures]
fig2 = false

[pipeline.train]
world_size = 2

[pipeline.validation]
table1 = false
nmae_rtol = 0.1
"""


class TestConfig:
    def test_toml_parsing_and_validation(self):
        cfg = PipelineConfig.from_dict(parse_toml(SAMPLE_TOML))
        assert cfg.name == "demo" and cfg.jobs == 3
        assert cfg.table1_gammas == (0.0, 0.0125, 1.0)
        assert cfg.scale_overrides == {"epochs": 2, "hr_shape": [8, 8, 32]}
        assert cfg.tables["table1"] and not cfg.tables["table2"]
        assert not cfg.figures["fig2"]
        assert cfg.train_overrides == {"world_size": 2}
        assert not cfg.validate_table1 and cfg.nmae_rtol == 0.1

    def test_unknown_keys_raise_with_valid_names(self):
        with pytest.raises(KeyError, match="valid keys"):
            PipelineConfig.from_dict({"pipeline": {"scal": "tiny"}})
        with pytest.raises(KeyError, match="valid keys"):
            PipelineConfig.from_dict({"pipeline": {"tables": {"table9": True}}})
        with pytest.raises(KeyError, match="valid keys"):
            PipelineConfig.from_dict({"pipeline": {"validation": {"tableX": True}}})
        with pytest.raises(KeyError, match="pipeline"):
            PipelineConfig.from_dict({"pipelin": {}})

    def test_scale_override_resolution(self):
        cfg = micro_config()
        scale = cfg.resolved_scale()
        assert scale.hr_shape == (8, 8, 32)
        assert scale.epochs == 2
        assert scale.name == "tiny"

    def test_unknown_scale_override_raises(self):
        cfg = PipelineConfig(scale_overrides={"epochz": 2})
        with pytest.raises(KeyError, match="valid fields"):
            cfg.resolved_scale()

    def test_repo_pipeline_toml_is_valid(self):
        import repro

        root = __import__("pathlib").Path(repro.__file__).parents[2]
        cfg = load_pipeline_config(root / "pipeline.toml")
        assert cfg.validate_table1
        pipe = build_standard_pipeline(cfg)
        assert "validate.table1" in pipe


class TestStandardPipeline:
    def test_default_dag_shape(self):
        pipe = build_standard_pipeline(micro_config())
        names = {s.name for s in pipe.stages}
        assert names == {"sim.s0", "sim.s1", "train.mfn.g0", "eval.mfn.g0",
                         "train.mfn.g0.1", "eval.mfn.g0.1", "table.table1",
                         "fig.fig2"}

    def test_training_stages_are_shared_across_tables(self):
        cfg = micro_config(tables={"table1": True, "table2": True,
                                   "table3": False, "table4": False},
                           table1_gammas=(0.0, 0.0125))
        pipe = build_standard_pipeline(cfg)
        # Table 2's mfn rows reuse Table 1's training stages: exactly one
        # γ=0 and one γ=γ* train stage exist plus the U-Net baseline's.
        train_stages = [s.name for s in pipe.stages if s.name.startswith("train.")]
        assert sorted(train_stages) == ["train.mfn.g0", "train.mfn.g0.0125",
                                        "train.unet.g0"]

    def test_cold_then_warm_run_zero_recompute(self, tmp_path):
        """The acceptance pin: an unchanged rerun computes nothing."""
        cfg = micro_config()
        store = ArtifactStore(tmp_path / "store")
        pipe = build_standard_pipeline(cfg)
        cold = run_pipeline(pipe, store=store, jobs=2)
        assert cold.ok and cold.counts() == {"computed": len(pipe)}
        warm = run_pipeline(build_standard_pipeline(cfg), store=store, jobs=2)
        assert warm.ok
        assert warm.counts() == {"cached": len(pipe)}, \
            "unchanged pipeline rerun must be 100% cache hits"

    def test_trainer_config_edit_recomputes_exactly_the_training_cone(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run_pipeline(build_standard_pipeline(micro_config()), store=store, jobs=2)

        edited = micro_config(train_overrides={"learning_rate": 5e-3})
        report = run_pipeline(build_standard_pipeline(edited), store=store, jobs=2)
        statuses = {n: r.status for n, r in report.results.items()}
        # Simulations are upstream of the edited knob: still cached.
        assert statuses["sim.s0"] == "cached"
        assert statuses["sim.s1"] == "cached"
        assert statuses["fig.fig2"] == "cached"
        # Every training stage and its downstream cone recomputes.
        for name in ("train.mfn.g0", "eval.mfn.g0", "train.mfn.g0.1",
                     "eval.mfn.g0.1", "table.table1"):
            assert statuses[name] == "computed", name

    def test_deterministic_metric_reports_across_reruns(self, tmp_path):
        """Determinism pin: fresh-store reruns reproduce reports bit-identically."""
        cfg = micro_config()
        first = run_pipeline(build_standard_pipeline(cfg),
                             store=ArtifactStore(tmp_path / "a"), jobs=2)
        second = run_pipeline(build_standard_pipeline(cfg),
                              store=ArtifactStore(tmp_path / "b"), jobs=2)
        for name in ("eval.mfn.g0", "eval.mfn.g0.1"):
            r1, r2 = first.values[name], second.values[name]
            assert r1.nmae == r2.nmae, f"{name}: NMAE must be bitwise identical"
            assert r1.r2 == r2.r2, f"{name}: R2 must be bitwise identical"
        s1 = first.values["train.mfn.g0"]["model_state"]
        s2 = second.values["train.mfn.g0"]["model_state"]
        assert sorted(s1) == sorted(s2)
        for key in s1:
            np.testing.assert_array_equal(s1[key], s2[key])

    def test_interrupted_training_resumes_bit_identically(self, tmp_path):
        """Mid-train interrupt + rerun must reproduce the uninterrupted state."""
        from repro.experiments.common import build_dataset, build_model, simulate
        from repro.training import Trainer

        cfg = micro_config(table1_gammas=(0.0,),
                           figures={"fig2": False, "fig6": False, "fig7": False})
        pipe = build_standard_pipeline(cfg)
        reference = run_pipeline(pipe, store=ArtifactStore(tmp_path / "ref"), jobs=1)
        ref_state = reference.values["train.mfn.g0"]["model_state"]

        # Simulate an interruption: train only 1 of 2 epochs, checkpoint into
        # the stage's scratch directory exactly as the stage body does.
        store = ArtifactStore(tmp_path / "resume")
        fp = pipe.fingerprints()["train.mfn.g0"]
        scale = cfg.resolved_scale()
        sim = simulate(scale, seed=scale.seed)
        dataset = build_dataset(scale, results=[sim])
        trainer = Trainer(build_model(scale), dataset,
                          config=scale.trainer_config(0.0))
        trainer.train(epochs=1)
        trainer.save(store.scratch_dir(fp) / "train.npz",
                     extra_metadata={"artifact_fingerprint": fp})

        resumed = run_pipeline(pipe, store=store, jobs=1)
        res_state = resumed.values["train.mfn.g0"]["model_state"]
        assert sorted(res_state) == sorted(ref_state)
        for key in ref_state:
            np.testing.assert_array_equal(
                res_state[key], ref_state[key],
                err_msg=f"{key}: resumed training diverged from uninterrupted run")
        # The scratch checkpoint is cleared once the artifact commits.
        assert not (store.root / "scratch" / fp).exists()

    def test_stale_scratch_checkpoint_is_discarded(self, tmp_path):
        """A checkpoint written for a different fingerprint restarts cleanly."""
        from repro.experiments.common import build_dataset, build_model, simulate
        from repro.training import Trainer

        cfg = micro_config(table1_gammas=(0.0,),
                           figures={"fig2": False, "fig6": False, "fig7": False})
        pipe = build_standard_pipeline(cfg)
        fp = pipe.fingerprints()["train.mfn.g0"]
        store = ArtifactStore(tmp_path / "store")

        scale = cfg.resolved_scale()
        dataset = build_dataset(scale, results=[simulate(scale, seed=scale.seed)])
        trainer = Trainer(build_model(scale), dataset, config=scale.trainer_config(0.0))
        trainer.train(epochs=1)
        trainer.save(store.scratch_dir(fp) / "train.npz",
                     extra_metadata={"artifact_fingerprint": "not-this-artifact"})

        report = run_pipeline(pipe, store=store, jobs=1)
        assert report.ok
        reference = run_pipeline(pipe, store=ArtifactStore(tmp_path / "ref"), jobs=1)
        s1 = report.values["train.mfn.g0"]["model_state"]
        s2 = reference.values["train.mfn.g0"]["model_state"]
        for key in s2:
            np.testing.assert_array_equal(s1[key], s2[key])


def _full_report(label: str = "row", r2_etot: float = 0.5):
    """A MetricReport with all nine metrics (average_r2 requires the full set)."""
    from repro.metrics.report import MetricReport
    from repro.metrics.turbulence import METRIC_NAMES

    return MetricReport(nmae={m: 2.0 for m in METRIC_NAMES},
                        r2={m: (r2_etot if m == "Etot" else 0.8) for m in METRIC_NAMES},
                        label=label)


class TestValidation:
    def test_shipped_tiny_pins_load(self):
        pins = load_pins("table1_tiny")
        assert set(pins["rows"]) == {"gamma=0", "gamma=0.0125", "gamma=0.1", "gamma=1"}

    def test_unknown_pin_set_lists_available(self):
        with pytest.raises(FileNotFoundError, match="table1_tiny"):
            load_pins("table1_enormous")

    def test_validate_round_trip_passes(self):
        reports = {"row": _full_report()}
        pins = pins_from_reports(reports, name="t")
        verdict = validate_reports(reports, pins)
        assert verdict["ok"]
        assert verdict["rows"]["row"]["ok"]
        assert verdict["missing_rows"] == [] and verdict["unpinned_rows"] == []

    def test_validate_catches_drift_beyond_tolerance(self):
        pins = pins_from_reports({"row": _full_report(r2_etot=0.5)})
        drifted = {"row": _full_report(r2_etot=0.3)}
        verdict = validate_reports(drifted, pins)
        assert not verdict["ok"]
        assert not verdict["rows"]["row"]["metrics"]["Etot"]["r2"]["ok"]
        # NMAE unchanged: still fine.
        assert verdict["rows"]["row"]["metrics"]["Etot"]["nmae"]["ok"]

    def test_validate_missing_row_fails_unpinned_does_not(self):
        pins = pins_from_reports({"pinned_row": _full_report()})
        verdict = validate_reports({"other_row": _full_report()}, pins)
        assert not verdict["ok"] and verdict["missing_rows"] == ["pinned_row"]

        pins = pins_from_reports({"other_row": _full_report()})
        verdict = validate_reports({"other_row": _full_report(),
                                    "extra": _full_report()}, pins)
        assert verdict["ok"] and verdict["unpinned_rows"] == ["extra"]

    def test_validation_stage_in_pipeline(self, tmp_path):
        """End-to-end: regenerate a table, pin it, and validate against the pins."""
        cfg = micro_config(table1_gammas=(0.0,),
                           figures={"fig2": False, "fig6": False, "fig7": False})
        report = run_pipeline(build_standard_pipeline(cfg),
                              store=ArtifactStore(tmp_path / "s"), jobs=1)
        pins = pins_from_reports(report.values["table.table1"]["reports"])
        pins_path = tmp_path / "pins.json"
        pins_path.write_text(json.dumps(pins))

        cfg2 = micro_config(table1_gammas=(0.0,), validate_table1=True,
                            pins=str(pins_path),
                            figures={"fig2": False, "fig6": False, "fig7": False})
        report2 = run_pipeline(build_standard_pipeline(cfg2),
                               store=ArtifactStore(tmp_path / "s2"), jobs=1)
        assert report2.ok
        assert report2.values["validate.table1"]["ok"]


class TestCLI:
    def _write_config(self, tmp_path, store_dir) -> str:
        text = f"""
[pipeline]
name = "cli-test"
store = "{store_dir}"
jobs = 1
table1_gammas = [0.0]

[pipeline.scale_overrides]
hr_shape = [8, 8, 32]
lr_factors = [2, 2, 4]
crop_shape_lr = [2, 2, 4]
n_points = 8
samples_per_epoch = 2
epochs = 1
batch_size = 1

[pipeline.figures]
fig2 = false

[pipeline.validation]
table1 = false
"""
        path = tmp_path / "pipeline.toml"
        path.write_text(text)
        return str(path)

    def test_run_status_ls_and_expect_cached(self, tmp_path, capsys):
        config = self._write_config(tmp_path, tmp_path / "store")

        assert cli_main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "computed" in out and "failed" not in out.replace("0 failed", "")
        assert (tmp_path / "store" / "manifest.json").exists()
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert {s["name"] for s in manifest["stages"]} == \
               {"sim.s0", "sim.s1", "train.mfn.g0", "eval.mfn.g0", "table.table1"}

        # Warm run: all cache hits, --expect-cached passes.
        assert cli_main(["run", "--config", config, "--expect-cached"]) == 0
        assert "0 computed" in capsys.readouterr().out

        # Forcing a stage recomputes it, which --expect-cached rejects.
        assert cli_main(["run", "--config", config, "--expect-cached",
                         "--force", "eval.mfn.g0"]) == 1
        capsys.readouterr()

        assert cli_main(["status", "--config", config]) == 0
        assert "5/5 artifacts cached" in capsys.readouterr().out

        assert cli_main(["ls", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "table.table1" in out and "5 stages" in out

    def test_run_until_restricts_selection(self, tmp_path, capsys):
        config = self._write_config(tmp_path, tmp_path / "store")
        assert cli_main(["run", "--config", config, "--until", "train.mfn.g0"]) == 0
        out = capsys.readouterr().out
        assert "[ skipped] eval.mfn.g0" in out


class TestLegacyWrapperEquivalence:
    def test_wrapper_matches_pipeline_numbers(self, tmp_path):
        """The legacy runner and the cached pipeline produce identical rows."""
        from repro.experiments import run_table1_gamma_sweep

        cfg = micro_config(table1_gammas=(0.0,),
                           figures={"fig2": False, "fig6": False, "fig7": False})
        scale = cfg.resolved_scale()
        legacy = run_table1_gamma_sweep(scale, gammas=(0.0,))
        piped = run_pipeline(build_standard_pipeline(cfg),
                             store=ArtifactStore(tmp_path / "s"), jobs=1)
        pipeline_report = piped.values["table.table1"]["reports"]["gamma=0"]
        legacy_report = legacy["reports"]["gamma=0"]
        assert legacy_report.nmae == pipeline_report.nmae
        assert legacy_report.r2 == pipeline_report.r2
