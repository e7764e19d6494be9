"""Config front-end, standard experiment DAG, resumable training, validation, CLI."""

import json

import numpy as np
import pytest

from repro.pipeline import (
    SCALES,
    ArtifactStore,
    ExperimentScale,
    PipelineConfig,
    build_dataset,
    build_model,
    build_standard_pipeline,
    get_scale,
    load_pipeline_config,
    load_pins,
    pins_from_reports,
    run_pipeline,
    simulate,
    validate_reports,
)
from repro.pipeline.cli import main as cli_main
from repro.pipeline.config import parse_toml
from repro.training import Trainer

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


class TestScales:
    def test_presets_exist(self):
        assert {"tiny", "small", "paper"} <= set(SCALES)
        assert get_scale("tiny") is SCALES["tiny"]

    def test_paper_scale_matches_paper_settings(self):
        paper = SCALES["paper"]
        assert paper.hr_shape == (400, 128, 512)
        assert paper.lr_factors == (4, 8, 8)
        assert paper.samples_per_epoch == 3000
        assert paper.epochs == 100

    def test_get_scale_error_lists_available_scales(self):
        with pytest.raises(KeyError) as excinfo:
            get_scale("gigantic")
        message = str(excinfo.value)
        for name in sorted(SCALES):
            assert name in message
        with pytest.raises(KeyError, match="gigantic"):
            PipelineConfig(scale="gigantic").resolved_scale()

    def test_with_overrides(self):
        scale = SCALES["tiny"].with_overrides(epochs=99)
        assert scale.epochs == 99
        assert SCALES["tiny"].epochs != 99

    def test_with_overrides_unknown_key_lists_valid_fields(self):
        with pytest.raises(KeyError, match="valid fields") as excinfo:
            SCALES["tiny"].with_overrides(epochz=99)
        assert "epochs" in str(excinfo.value)

    def test_model_config_threads_the_scale_seed(self):
        assert SCALES["tiny"].with_overrides(seed=3).model_config().seed == 3
        # An explicit override still wins.
        assert SCALES["tiny"].with_overrides(seed=3).model_config(seed=7).seed == 7

    @pytest.mark.parametrize("size", ["tiny", "small", "paper"])
    def test_model_config_overrides_are_validated_for_every_size(self, size):
        scale = ExperimentScale(model_size=size)
        with pytest.raises(ValueError, match="bogus"):
            scale.model_config(interpolation="bogus")
        # Overrides go through the constructor, so lists are normalised to tuples.
        assert scale.model_config(imnet_hidden=[8, 8]).imnet_hidden == (8, 8)

    @pytest.mark.parametrize("size", ["tiny", "small", "paper"])
    def test_model_config_honours_pool_factors_for_every_size(self, size):
        pools = ((1, 2, 2), (2, 1, 1))
        scale = ExperimentScale(model_size=size, model_pool_factors=pools)
        assert scale.model_config().unet_pool_factors == pools

    def test_build_helpers(self):
        scale = micro_config().resolved_scale()
        sim = simulate(scale)
        assert sim.shape == scale.hr_shape
        assert build_dataset(scale, sim).lr_shape == (4, 4, 8)
        assert build_model(scale).config.latent_channels == 6


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
        # The training histories agree too, wall-clock time aside.
        h1, h2 = ([{k: v for k, v in record.items() if k != "wall_time"}
                   for record in run.values["train.mfn.g0"]["history"]["records"]]
                  for run in (first, second))
        assert h1 == h2 and len(h1) == 2

    def test_interrupted_training_resumes_bit_identically(self, tmp_path):
        """Mid-train interrupt + rerun must reproduce the uninterrupted state."""
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

    def test_torn_scratch_checkpoint_is_discarded(self, tmp_path):
        """A truncated checkpoint (the right fingerprint, an unreadable zip)
        is deleted and training restarts, instead of failing every rerun."""
        cfg = micro_config(table1_gammas=(0.0,),
                           figures={"fig2": False, "fig6": False, "fig7": False})
        pipe = build_standard_pipeline(cfg)
        fp = pipe.fingerprints()["train.mfn.g0"]
        store = ArtifactStore(tmp_path / "store")

        scale = cfg.resolved_scale()
        dataset = build_dataset(scale, results=[simulate(scale, seed=scale.seed)])
        trainer = Trainer(build_model(scale), dataset, config=scale.trainer_config(0.0))
        trainer.train(epochs=1)
        ckpt = store.scratch_dir(fp) / "train.npz"
        trainer.save(ckpt, extra_metadata={"artifact_fingerprint": fp})
        with open(ckpt, "r+b") as fh:
            fh.truncate(ckpt.stat().st_size // 2)

        report = run_pipeline(pipe, store=store, jobs=1)
        assert report.ok
        reference = run_pipeline(pipe, store=ArtifactStore(tmp_path / "ref"), jobs=1)
        s1 = report.values["train.mfn.g0"]["model_state"]
        s2 = reference.values["train.mfn.g0"]["model_state"]
        assert sorted(s1) == sorted(s2)
        for key in s2:
            np.testing.assert_array_equal(s1[key], s2[key])


#: config key -> terminal stage of each of the paper's 11 artefacts
EXPERIMENTS = {
    "table1": "table.table1", "table2": "table.table2",
    "table3": "table.table3", "table4": "table.table4",
    "fig2": "fig.fig2", "fig6": "fig.fig6", "fig7": "fig.fig7",
    "activation": "ablation.activation", "interpolation": "ablation.interpolation",
    "capacity": "ablation.capacity", "allreduce": "ablation.allreduce",
}


def everything_config(**kwargs) -> PipelineConfig:
    """Every table, figure and ablation enabled, one epoch at the micro scale."""
    return micro_config(
        scale_overrides={**MICRO_OVERRIDES, "epochs": 1},
        table1_gammas=(0.0, 0.0125),
        tables=dict.fromkeys(["table1", "table2", "table3", "table4"], True),
        figures=dict.fromkeys(["fig2", "fig6", "fig7"], True),
        ablations=dict.fromkeys(["activation", "interpolation", "capacity", "allreduce"], True),
        **kwargs)


class TestEveryExperiment:
    """Each ``build_standard_pipeline`` branch executed, in memory, in one run."""

    @pytest.fixture(scope="class")
    def pipe(self):
        return build_standard_pipeline(everything_config())

    @pytest.fixture(scope="class")
    def run(self, pipe):
        return run_pipeline(pipe, store=None, jobs=1)

    @pytest.mark.parametrize("key", EXPERIMENTS)
    def test_experiment_runs_through_the_pipeline(self, pipe, run, key):
        assert run.ok
        for name in pipe.upstream_closure([EXPERIMENTS[key]]):
            assert run.results[name].status == "computed", name
        assert key in run.values[EXPERIMENTS[key]]["experiment"]

    def test_table_row_labels(self, run):
        rows = {key: list(run.values[EXPERIMENTS[key]]["reports"])
                for key in ("table1", "table2", "table3", "table4")}
        assert rows == {
            "table1": ["gamma=0", "gamma=0.0125"],
            "table2": ["baseline_I_trilinear", "baseline_II_unet",
                       "mfn_gamma=0", "mfn_gamma=gamma*"],
            "table3": ["1_dataset", "3_datasets"],
            "table4": ["Ra=1e+04", "Ra=1e+05", "Ra=5e+06"],
        }
        for key in rows:
            assert all(len(r.nmae) == 9 for r in run.values[EXPERIMENTS[key]]["reports"].values())

    def test_table2_shares_table1_rows(self, run):
        """The shared stages are one computation, not two that happen to agree."""
        table1 = run.values["table.table1"]["reports"]
        table2 = run.values["table.table2"]["reports"]
        assert table2["mfn_gamma=0"] is table1["gamma=0"]
        assert table2["mfn_gamma=gamma*"] is table1["gamma=0.0125"]
        assert table2["mfn_gamma=0"].nmae == table1["gamma=0"].nmae

    def test_fig2_payload(self, run):
        out = run.values["fig.fig2"]
        assert set(out["fields"]) == {"p", "T", "u", "w"}
        assert out["fields"]["T"].shape == (8, 32)
        assert np.isfinite(out["turbulence_summary"]["Etot"])

    def test_fig6_payload(self, run):
        out = run.values["fig.fig6"]
        assert out["gamma"] == 0.0125 and out["channels"] == ("p", "T", "u", "w")
        assert out["prediction"]["T"].shape == out["ground_truth"]["T"].shape
        assert out["lowres"]["T"].size < out["ground_truth"]["T"].size
        assert np.isfinite(out["errors"]["prediction_mae"])

    def test_fig7_payload(self, run):
        out = run.values["fig.fig7"]
        assert out["efficiency_at_max"] == pytest.approx(0.968, abs=0.02)
        assert set(out["throughput"]) == {1, 2, 16, 128}
        assert list(out["loss_curves"]) == [1, 2]  # int world sizes
        for curve in out["loss_curves"].values():
            assert len(curve["loss"]) == 1  # one loss per epoch
            assert curve["wall_time"][0] > 0

    def test_fig7_without_training_curves(self):
        cfg = everything_config(fig7_curve_world_sizes=())
        report = run_pipeline(build_standard_pipeline(cfg), store=None, until="fig.fig7")
        assert report.ok and report.counts()["computed"] == 1
        assert report.values["fig.fig7"]["loss_curves"] == {}
        assert report.values["fig.fig7"]["efficiency_at_max"] == pytest.approx(0.968, abs=0.02)

    def test_ablation_payloads(self, run):
        assert list(run.values["ablation.activation"]["reports"]) == \
            ["activation=softplus", "activation=relu"]
        assert list(run.values["ablation.interpolation"]["reports"]) == \
            ["interpolation=trilinear", "interpolation=nearest"]
        assert list(run.values["ablation.capacity"]["reports"]) == ["latent=2", "latent=6"]
        assert run.values["train.mfn.g0.latent2"]["num_parameters"] < \
            run.values["train.mfn.g0.latent6"]["num_parameters"]

    def test_ablation_allreduce(self, run):
        out = run.values["ablation.allreduce"]
        eff_no = out["results"]["overlap=0"][128]["efficiency"]
        eff_yes = out["results"]["overlap=0.9"][128]["efficiency"]
        assert eff_yes > eff_no
        assert out["ring_vs_naive_comm_time"]["ring"] < out["ring_vs_naive_comm_time"]["naive"]


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
