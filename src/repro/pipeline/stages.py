"""Registered stage bodies + builders for the standard experiment pipeline.

Every table, figure and ablation of the paper is defined here, once, as a
DAG of reusable, individually cached stages:

* **simulate** — one high-resolution dataset (one initial condition / one
  Rayleigh number) as a :class:`SimulationResult` artifact,
* **train** — one trained model; the artifact is the model state dict plus
  the training history (and parameter count).  Training checkpoints into the
  stage's scratch directory after every epoch with the artifact fingerprint
  embedded, so an interrupted stage resumes bit-identically (PR 4's
  checkpoint/resume contract) instead of restarting,
* **evaluate** — the physics-metric :class:`MetricReport` of one model on one
  held-out simulation (one row of Tables 1–4),
* **render** — assemble rows into a table artifact (reports + formatted
  text), or build a figure payload (the arrays one would plot),
* **validate** — diff a regenerated table against pinned numbers with
  per-metric tolerances, emitting a machine-readable report.

:func:`build_standard_pipeline` wires a :class:`PipelineConfig` into the full
DAG; an experiment is a config selection (``tables=``, ``figures=``,
``ablations=``, ...) run through :func:`~repro.pipeline.graph.run_pipeline`,
in memory (``store=None``) or against an :class:`ArtifactStore`.  Stage names
are shared across experiments wherever the computation is identical (Table
1's γ=0 training is Table 2's ``mfn_gamma=0`` training, the γ-sweep's
training simulation is Figure 2's snapshot source, …), so the
content-addressed cache deduplicates work across tables automatically.
``docs/ARCHITECTURE.md`` maps each paper artefact to its config key and
stage name.
"""

from __future__ import annotations

import fnmatch
import logging
from dataclasses import asdict, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from ..autodiff import Tensor
from ..baselines import TrilinearBaseline, UNetDecoderBaseline
from ..distributed import ScalingPerformanceModel
from ..inference import InferenceEngine
from ..metrics import turbulence_summary
from ..metrics.report import format_table
from ..pde import RayleighBenard2D
from ..scenarios import get_scenario
from ..training import DistributedTrainer, Trainer, TrainState, evaluate_model
from .config import PipelineConfig
from .graph import Pipeline
from .scale import ExperimentScale, build_dataset, build_model, simulate
from .stage import Stage, StageContext
from .validation import load_pins, validate_reports

__all__ = [
    "build_standard_pipeline",
    "sim_stage", "train_stage", "eval_stage", "table_stage",
    "fig2_stage", "fig6_stage", "fig7_stage", "allreduce_stage",
    "validate_stage",
]

logger = logging.getLogger("repro.pipeline")


# --------------------------------------------------------------------------
# param plumbing
# --------------------------------------------------------------------------

def _scale_params(scale) -> dict:
    """Fingerprintable dict form of an :class:`ExperimentScale`."""
    return asdict(scale)


def _scale_from_params(params: Mapping) -> ExperimentScale:
    """Rebuild an :class:`ExperimentScale` from :func:`_scale_params` output."""
    kwargs = dict(params)
    for key in ("hr_shape", "lr_factors", "crop_shape_lr"):
        kwargs[key] = tuple(kwargs[key])
    kwargs["model_pool_factors"] = tuple(tuple(p) for p in kwargs["model_pool_factors"])
    return ExperimentScale(**kwargs)


def _build_model_for(scale, kind: str, overrides: Mapping):
    """Instantiate the model a train/evaluate stage operates on."""
    if kind == "trilinear":
        return TrilinearBaseline()
    if kind == "unet_baseline":
        return UNetDecoderBaseline(scale.model_config(**overrides),
                                   upsample_factors=scale.lr_factors)
    if kind == "mfn":
        return build_model(scale, **overrides)
    raise ValueError(f"unknown model kind '{kind}'; expected mfn, unet_baseline or trilinear")


# --------------------------------------------------------------------------
# stage bodies
# --------------------------------------------------------------------------

def _run_simulate(ctx: StageContext):
    """Generate one high-resolution simulation block."""
    p = ctx.params
    return simulate(_scale_from_params(p["scale"]), rayleigh=p.get("rayleigh"),
                    seed=p["seed"])


def _run_train(ctx: StageContext):
    """Train one model; resumable via fingerprinted scratch checkpoints."""
    p = ctx.params
    scale = _scale_from_params(p["scale"])
    sims = [ctx.inputs[name] for name in p["sim_inputs"]]
    dataset = build_dataset(scale, results=sims)
    kind = p.get("model_kind", "mfn")
    model = _build_model_for(scale, kind, p.get("model_overrides", {}))

    gamma = float(p["gamma"])
    pde = None
    if gamma > 0 and kind == "mfn":
        if scale.scenario == "rayleigh_benard":
            ra = p.get("pde_rayleigh")
            pde = RayleighBenard2D(rayleigh=scale.rayleigh if ra is None else float(ra),
                                   prandtl=scale.prandtl)
        else:
            pde = get_scenario(scale.scenario).make_pde_system()
    trainer_cls = DistributedTrainer if p.get("distributed") else Trainer
    trainer = trainer_cls(model, dataset, pde_system=pde,
                          config=scale.trainer_config(gamma, **p.get("trainer_overrides", {})))

    total_epochs = trainer.config.epochs
    ckpt = ctx.scratch / "train.npz" if ctx.scratch is not None else None
    if ckpt is not None and ckpt.exists():
        # Only resume state written for exactly this artifact fingerprint —
        # anything else (a stale config, a torn or unreadable file) is
        # deleted and training restarts cleanly.
        try:
            state, meta = TrainState.load(ckpt)
            if meta.get("artifact_fingerprint") != ctx.fingerprint:
                raise ValueError(f"{ckpt} was written for another artifact")
            trainer.restore(state)
        except Exception as exc:
            logger.warning("discarding scratch checkpoint %s (%s: %s); training restarts",
                           ckpt, type(exc).__name__, exc)
            ckpt.unlink(missing_ok=True)
    while trainer.epochs_completed < total_epochs:
        trainer.train(epochs=1)  # checkpoint after every epoch
        if ckpt is not None:
            trainer.save(ckpt, extra_metadata={"artifact_fingerprint": ctx.fingerprint})
    return {
        "model_state": {key: np.asarray(value)
                        for key, value in model.state_dict().items()},
        "history": trainer.history.to_dict(),
        "num_parameters": int(model.num_parameters()) if hasattr(model, "num_parameters") else 0,
        "epochs": int(total_epochs),
    }


def _restore_model(ctx: StageContext, scale):
    """Rebuild the evaluated model from a train artifact (or stateless baseline)."""
    p = ctx.params
    kind = p.get("model_kind", "mfn")
    model = _build_model_for(scale, kind, p.get("model_overrides", {}))
    train_dep = p.get("train_input")
    if train_dep is not None:
        model.load_state_dict(ctx.inputs[train_dep]["model_state"])
    return model


def _run_evaluate(ctx: StageContext):
    """Physics-metric report of one model on one held-out simulation."""
    p = ctx.params
    scale = _scale_from_params(p["scale"])
    model = _restore_model(ctx, scale)
    dataset = build_dataset(scale, results=ctx.inputs[p["sim_input"]])
    return evaluate_model(model, dataset, label=p["label"])


def _run_table(ctx: StageContext):
    """Assemble evaluation rows into one table artifact (reports + text)."""
    p = ctx.params
    reports = {label: ctx.inputs[dep] for label, dep in p["rows"]}
    return {
        "experiment": p["experiment"],
        "scale": p["scale_name"],
        "reports": reports,
        "text": format_table(reports, title=p.get("title", "")),
        **{key: value for key, value in p.get("extras", {}).items()},
    }


def _run_fig2(ctx: StageContext):
    """Late-time snapshot + turbulence statistics of the data-generating run."""
    p = ctx.params
    scale = _scale_from_params(p["scale"])
    sim = ctx.inputs[p["sim_input"]]
    index = int(0.75 * (sim.nt - 1))  # a late-time snapshot
    snapshot = sim.snapshot(index)
    _, dz, dx = sim.grid_spacing()
    nu = float(np.sqrt(sim.prandtl / sim.rayleigh))
    stats = turbulence_summary(snapshot["u"], snapshot["w"], dx=dx, dz=dz, nu=nu)
    return {
        "experiment": "fig2_simulation",
        "scale": scale.name,
        "snapshot_index": index,
        "time": float(sim.times[index]),
        "fields": snapshot,
        "grid": {"nz": sim.nz, "nx": sim.nx, "lx": sim.lx, "lz": sim.lz},
        "rayleigh": sim.rayleigh,
        "prandtl": sim.prandtl,
        "turbulence_summary": stats,
    }


def _run_fig6(ctx: StageContext):
    """Figure 6 rows (input / prediction / trilinear / truth) for one trained model."""
    p = ctx.params
    scale = _scale_from_params(p["scale"])
    model = _restore_model(ctx, scale)
    dataset = build_dataset(scale, results=ctx.inputs[p["sim_input"]])

    lowres, highres, _ = dataset.evaluation_pair(0)
    hr_shape = highres.shape[1:]
    engine = InferenceEngine(model)
    prediction = engine.predict_grid(Tensor(lowres[None]), hr_shape)[0]
    trilinear = TrilinearBaseline().predict_grid(Tensor(lowres[None]), hr_shape)[0]

    pred_fields = dataset.denormalize(prediction, channel_axis=0)
    tri_fields = dataset.denormalize(trilinear, channel_axis=0)
    true_fields = dataset.denormalize(highres, channel_axis=0)
    low_fields = dataset.denormalize(lowres, channel_axis=0)

    t_hr = int(0.5 * (hr_shape[0] - 1))  # the mid-time snapshot
    t_lr = min(t_hr // scale.lr_factors[0], lowres.shape[1] - 1)
    channels = dataset.channel_names
    return {
        "experiment": "fig6_qualitative",
        "scale": scale.name,
        "gamma": float(p["gamma"]),
        "channels": channels,
        "lowres": {c: low_fields[i, t_lr] for i, c in enumerate(channels)},
        "prediction": {c: pred_fields[i, t_hr] for i, c in enumerate(channels)},
        "trilinear": {c: tri_fields[i, t_hr] for i, c in enumerate(channels)},
        "ground_truth": {c: true_fields[i, t_hr] for i, c in enumerate(channels)},
        "errors": {
            "prediction_mae": float(np.mean(np.abs(pred_fields - true_fields))),
            "trilinear_mae": float(np.mean(np.abs(tri_fields - true_fields))),
        },
    }


def _run_fig7(ctx: StageContext):
    """Figure 7 scaling payload (α–β throughput model + training-loss curves)."""
    p = ctx.params
    perf = ScalingPerformanceModel()
    curves: dict[int, dict] = {}
    for ws, dep in p["curve_inputs"]:
        records = ctx.inputs[dep]["history"]["records"]
        losses = np.asarray([r["loss"] for r in records if "loss" in r], dtype=float)
        epoch_time = perf.epoch_time(int(ws))
        curves[int(ws)] = {
            "epochs": list(range(len(losses))),
            "loss": losses.tolist(),
            "wall_time": (np.arange(1, len(losses) + 1) * epoch_time).tolist(),
            "modelled_epoch_time": epoch_time,
        }
    throughput_points = perf.evaluate(list(p["world_sizes"]))
    return {
        "experiment": "fig7_scaling",
        "scale": p["scale_name"],
        "world_sizes": [int(w) for w in p["world_sizes"]],
        "throughput": {
            pt.world_size: {
                "throughput": pt.throughput,
                "ideal_throughput": perf.ideal_throughput(pt.world_size),
                "efficiency": pt.efficiency,
                "step_time": pt.step_time,
                "communication_time": pt.communication_time,
                "epoch_time": pt.epoch_time,
            }
            for pt in throughput_points
        },
        "efficiency_at_max": throughput_points[-1].efficiency,
        "loss_curves": curves,
        "performance_model": {
            "n_parameters": perf.n_parameters,
            "compute_time_per_sample": perf.compute_time_per_sample,
            "batch_size_per_worker": perf.batch_size_per_worker,
            "overlap_fraction": perf.overlap_fraction,
        },
    }


def _run_allreduce_ablation(ctx: StageContext):
    """Scaling-efficiency ablation over communication/computation overlap."""
    p = ctx.params
    world_sizes = [int(w) for w in p["world_sizes"]]
    results = {}
    for overlap in p["overlap_fractions"]:
        model = ScalingPerformanceModel(overlap_fraction=float(overlap))
        results[f"overlap={overlap:g}"] = {
            int(pt.world_size): {"efficiency": pt.efficiency, "throughput": pt.throughput}
            for pt in model.evaluate(world_sizes)
        }
    ring = ScalingPerformanceModel()
    naive_cost = ring.message_bytes * (max(world_sizes) - 1) / ring.cluster.inter_node_bandwidth
    return {
        "experiment": "ablation_allreduce",
        "world_sizes": world_sizes,
        "results": results,
        "ring_vs_naive_comm_time": {
            "ring": ring.communication_time(max(world_sizes)),
            "naive": naive_cost,
        },
    }


def _run_validate(ctx: StageContext):
    """Diff a regenerated table against its pinned numbers."""
    p = ctx.params
    table = ctx.inputs[p["table_input"]]
    return validate_reports(table["reports"], p["pins"],
                            nmae_rtol=float(p["nmae_rtol"]),
                            r2_atol=float(p["r2_atol"]),
                            experiment=table.get("experiment", p["table_input"]))


# --------------------------------------------------------------------------
# stage builders
# --------------------------------------------------------------------------

def sim_stage(name: str, scale, seed: int, rayleigh: Optional[float] = None) -> Stage:
    """A simulate stage producing one :class:`SimulationResult` artifact."""
    return Stage(name=name, fn=_run_simulate, params={
        "scale": _scale_params(scale), "seed": int(seed),
        "rayleigh": None if rayleigh is None else float(rayleigh),
    }, description="generate one high-resolution simulation")


def train_stage(name: str, scale, gamma: float, sim_deps: Sequence[str],
                model_kind: str = "mfn", model_overrides: Optional[Mapping] = None,
                trainer_overrides: Optional[Mapping] = None,
                pde_rayleigh: Optional[float] = None,
                distributed: bool = False) -> Stage:
    """A train stage producing a model-state + history artifact."""
    return Stage(name=name, fn=_run_train, deps=tuple(sim_deps), params={
        "scale": _scale_params(scale), "gamma": float(gamma),
        "sim_inputs": list(sim_deps), "model_kind": model_kind,
        "model_overrides": dict(model_overrides or {}),
        "trainer_overrides": dict(trainer_overrides or {}),
        "pde_rayleigh": None if pde_rayleigh is None else float(pde_rayleigh),
        "distributed": bool(distributed),
    }, description="train one model (resumable)")


def eval_stage(name: str, scale, label: str, sim_dep: str,
               train_dep: Optional[str] = None, model_kind: str = "mfn",
               model_overrides: Optional[Mapping] = None) -> Stage:
    """An evaluate stage producing one :class:`MetricReport` artifact."""
    deps = [sim_dep] + ([train_dep] if train_dep is not None else [])
    return Stage(name=name, fn=_run_evaluate, deps=tuple(deps), params={
        "scale": _scale_params(scale), "label": str(label),
        "sim_input": sim_dep, "train_input": train_dep,
        "model_kind": model_kind, "model_overrides": dict(model_overrides or {}),
    }, description="evaluate one model against held-out ground truth")


def table_stage(name: str, experiment: str, scale_name: str,
                rows: Sequence[tuple[str, str]], title: str = "",
                extras: Optional[Mapping] = None) -> Stage:
    """A render stage assembling ``rows`` (label → eval-stage name) into a table."""
    rows = [(str(label), str(dep)) for label, dep in rows]
    return Stage(name=name, fn=_run_table, deps=tuple(dep for _, dep in rows), params={
        "experiment": experiment, "scale_name": scale_name, "rows": rows,
        "title": title, "extras": dict(extras or {}),
    }, description="render evaluation rows into a table artifact")


def fig2_stage(name: str, scale, sim_dep: str) -> Stage:
    """The Figure 2 render stage (simulation snapshot + turbulence stats)."""
    return Stage(name=name, fn=_run_fig2, deps=(sim_dep,), params={
        "scale": _scale_params(scale), "sim_input": sim_dep,
    }, description="render the simulation snapshot figure")


def fig6_stage(name: str, scale, train_dep: str, sim_dep: str, gamma: float) -> Stage:
    """The Figure 6 render stage (qualitative super-resolution rows)."""
    return Stage(name=name, fn=_run_fig6, deps=(sim_dep, train_dep), params={
        "scale": _scale_params(scale), "sim_input": sim_dep, "train_input": train_dep,
        "gamma": float(gamma),
    }, description="render the qualitative super-resolution figure")


def fig7_stage(name: str, scale_name: str, world_sizes: Sequence[int],
               curve_inputs: Sequence[tuple[int, str]]) -> Stage:
    """The Figure 7 render stage (scaling study)."""
    curve_inputs = [(int(ws), str(dep)) for ws, dep in curve_inputs]
    return Stage(name=name, fn=_run_fig7,
                 deps=tuple(dep for _, dep in curve_inputs), params={
        "scale_name": scale_name, "world_sizes": [int(w) for w in world_sizes],
        "curve_inputs": curve_inputs,
    }, description="render the scaling-study figure")


def allreduce_stage(name: str, world_sizes: Sequence[int],
                    overlap_fractions: Sequence[float]) -> Stage:
    """The all-reduce ablation stage (pure performance-model sweep)."""
    return Stage(name=name, fn=_run_allreduce_ablation, params={
        "world_sizes": [int(w) for w in world_sizes],
        "overlap_fractions": [float(f) for f in overlap_fractions],
    }, description="all-reduce overlap ablation (performance model)")


def validate_stage(name: str, table_dep: str, pins: Mapping,
                   nmae_rtol: float, r2_atol: float) -> Stage:
    """A validation stage diffing a table artifact against pinned numbers."""
    return Stage(name=name, fn=_run_validate, deps=(table_dep,), params={
        "table_input": table_dep, "pins": dict(pins),
        "nmae_rtol": float(nmae_rtol), "r2_atol": float(r2_atol),
    }, description="diff regenerated numbers against pins")


# --------------------------------------------------------------------------
# the standard pipeline
# --------------------------------------------------------------------------

def _gamma_tag(gamma: float) -> str:
    return f"g{gamma:g}"


def build_standard_pipeline(cfg: PipelineConfig) -> Pipeline:
    """Wire a :class:`PipelineConfig` into the full experiment DAG.

    Simulation and training stages are shared across every table/figure that
    needs the identical computation, so enabling more experiments only adds
    the genuinely new work.
    """
    scale = cfg.resolved_scale()
    pipe = Pipeline(name=cfg.name)
    policy, patterns = cfg.retry_policy(), cfg.retry_stage_patterns()

    def add(stage: Stage) -> None:
        """Register ``stage``, under the ``[pipeline.retry]`` policy if it matches.

        ``Stage.retry`` never enters the fingerprint, so this is cache-neutral.
        """
        if policy is not None and any(fnmatch.fnmatchcase(stage.name, p) for p in patterns):
            stage = replace(stage, retry=policy)
        pipe.add(stage)

    train_kw = dict(cfg.train_overrides)
    distributed = bool(train_kw.pop("distributed", False))

    sims: dict[tuple, str] = {}

    def ensure_sim(seed: int, rayleigh: Optional[float] = None) -> str:
        """Register (once) and name the sim stage for ``(seed, rayleigh)``."""
        key = (int(seed), rayleigh)
        if key not in sims:
            name = f"sim.s{seed}" if rayleigh is None else f"sim.ra{rayleigh:g}.s{seed}"
            add(sim_stage(name, scale, seed=seed, rayleigh=rayleigh))
            sims[key] = name
        return sims[key]

    trains: dict[str, str] = {}

    def ensure_train(tag: str, trainer_overrides: Mapping = train_kw, **kwargs) -> str:
        """Register (once) and name the train stage for ``tag``."""
        if tag not in trains:
            name = f"train.{tag}"
            add(train_stage(name, scale, distributed=distributed,
                            trainer_overrides=trainer_overrides, **kwargs))
            trains[tag] = name
        return trains[tag]

    tables = cfg.enabled_tables()
    figures = cfg.enabled_figures()
    ablations = cfg.enabled_ablations()

    base_sim = ensure_sim(scale.seed)
    val_sim = ensure_sim(scale.seed + 1)

    def mfn_eval(gamma: float) -> str:
        """Train + evaluate the standard model at ``gamma`` on the val sim."""
        tag = f"mfn.{_gamma_tag(gamma)}"
        train = ensure_train(tag, gamma=gamma, sim_deps=[base_sim])
        name = f"eval.{tag}"
        if name not in pipe:
            add(eval_stage(name, scale, label=f"gamma={gamma:g}",
                           sim_dep=val_sim, train_dep=train))
        return name

    # ---------------------------------------------------------------- tables
    if "table1" in tables:
        rows = [(f"gamma={g:g}", mfn_eval(g)) for g in cfg.table1_gammas]
        add(table_stage("table.table1", "table1_gamma_sweep", scale.name, rows,
                        title="Table 1 — equation-loss weight sweep",
                        extras={"gammas": list(cfg.table1_gammas)}))
        if cfg.validate_table1:
            pins = load_pins(cfg.pins if cfg.pins is not None else f"table1_{scale.name}")
            add(validate_stage("validate.table1", "table.table1", pins,
                               nmae_rtol=cfg.nmae_rtol, r2_atol=cfg.r2_atol))

    if "table2" in tables:
        add(eval_stage("eval.baseline1", scale, label="baseline_I_trilinear",
                       sim_dep=val_sim, model_kind="trilinear"))
        b2 = ensure_train("unet.g0", gamma=0.0, sim_deps=[base_sim],
                          model_kind="unet_baseline")
        add(eval_stage("eval.baseline2", scale, label="baseline_II_unet",
                       sim_dep=val_sim, train_dep=b2, model_kind="unet_baseline"))
        rows = [("baseline_I_trilinear", "eval.baseline1"),
                ("baseline_II_unet", "eval.baseline2"),
                ("mfn_gamma=0", mfn_eval(0.0)),
                ("mfn_gamma=gamma*", mfn_eval(cfg.gamma_star))]
        add(table_stage("table.table2", "table2_baselines", scale.name, rows,
                        title="Table 2 — MeshfreeFlowNet vs baselines",
                        extras={"gamma_star": cfg.gamma_star}))

    if "table3" in tables:
        counts = cfg.table3_dataset_counts
        train_sims = [ensure_sim(scale.seed + i) for i in range(max(counts))]
        unseen = ensure_sim(scale.seed + 1000)
        rows = []
        for count in counts:
            tag = f"mfn.{_gamma_tag(cfg.gamma_star)}.n{count}"
            train = ensure_train(tag, gamma=cfg.gamma_star, sim_deps=train_sims[:count])
            label = f"{count}_dataset" + ("s" if count > 1 else "")
            name = f"eval.table3.n{count}"
            add(eval_stage(name, scale, label=label, sim_dep=unseen,
                           train_dep=train))
            rows.append((label, name))
        add(table_stage("table.table3", "table3_unseen_ic", scale.name, rows,
                        title="Table 3 — unseen initial conditions",
                        extras={"dataset_counts": list(counts),
                                "gamma": cfg.gamma_star}))

    if "table4" in tables:
        train_ra = cfg.table4_train_rayleigh
        ra_sims = [ensure_sim(scale.seed + i, rayleigh=ra)
                   for i, ra in enumerate(train_ra)]
        train = ensure_train(f"mfn.{_gamma_tag(cfg.gamma_star)}.ra", gamma=cfg.gamma_star,
                             sim_deps=ra_sims,
                             pde_rayleigh=float(np.median(train_ra)))
        rows = []
        for i, ra in enumerate(cfg.table4_test_rayleigh):
            test_sim = ensure_sim(scale.seed + 500 + i, rayleigh=ra)
            label = f"Ra={ra:.0e}"
            name = f"eval.table4.ra{ra:g}"
            add(eval_stage(name, scale, label=label, sim_dep=test_sim,
                           train_dep=train))
            rows.append((label, name))
        add(table_stage("table.table4", "table4_rayleigh_transfer", scale.name,
                        rows, title="Table 4 — Rayleigh-number transfer",
                        extras={"train_rayleigh": list(train_ra),
                                "test_rayleigh": list(cfg.table4_test_rayleigh),
                                "gamma": cfg.gamma_star}))

    # --------------------------------------------------------------- figures
    if "fig2" in figures:
        add(fig2_stage("fig.fig2", scale, sim_dep=base_sim))

    if "fig6" in figures:
        tag = f"mfn.{_gamma_tag(cfg.gamma_star)}"
        train = ensure_train(tag, gamma=cfg.gamma_star, sim_deps=[base_sim])
        add(fig6_stage("fig.fig6", scale, train_dep=train, sim_dep=base_sim,
                       gamma=cfg.gamma_star))

    if "fig7" in figures:
        curve_inputs = [
            (ws, ensure_train(f"mfn.g0.ws{ws}", gamma=0.0, sim_deps=[base_sim],
                              trainer_overrides={**train_kw, "world_size": ws}))
            for ws in cfg.fig7_curve_world_sizes]
        add(fig7_stage("fig.fig7", scale.name, cfg.fig7_world_sizes, curve_inputs))

    # ------------------------------------------------------------- ablations
    def ablation_grid(key: str, title: str, gamma: float,
                      variants: Sequence[tuple[str, str, dict]]) -> None:
        """A one-knob ablation: train + evaluate each ``(tag, label, model
        overrides)`` variant on the shared simulations, one table of rows."""
        rows = []
        for tag, label, overrides in variants:
            train = ensure_train(f"mfn.{_gamma_tag(gamma)}.{tag}", gamma=gamma,
                                 sim_deps=[base_sim], model_overrides=overrides)
            name = f"eval.abl.{tag}"
            add(eval_stage(name, scale, label=label, sim_dep=val_sim,
                           train_dep=train, model_overrides=overrides))
            rows.append((label, name))
        add(table_stage(f"ablation.{key}", f"ablation_{key}", scale.name, rows,
                        title=title))

    if "activation" in ablations:
        ablation_grid("activation", "Ablation — decoder activation", cfg.gamma_star,
                      [(f"act-{act}", f"activation={act}", {"imnet_activation": act})
                       for act in cfg.ablation_activations])

    if "interpolation" in ablations:
        ablation_grid("interpolation", "Ablation — latent interpolation", 0.0,
                      [(f"interp-{mode}", f"interpolation={mode}", {"interpolation": mode})
                       for mode in ("trilinear", "nearest")])

    if "capacity" in ablations:
        ablation_grid("capacity", "Ablation — latent capacity", 0.0,
                      [(f"latent{c}", f"latent={c}", {"latent_channels": c})
                       for c in cfg.ablation_latent_channels])

    if "allreduce" in ablations:
        add(allreduce_stage("ablation.allreduce", world_sizes=(1, 2, 8, 32, 128),
                            overlap_fractions=(0.0, 0.5, 0.9)))

    return pipe
