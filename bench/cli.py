"""Command line of the benchmark.

``python -m bench``                      all five workloads, one process each
``python -m bench --trace``              the same plus traced rounds, layer probes, budget tables
``python -m bench --workload W ...``     one workload in this process (the form ``BENCHMARK.json`` names)
``python -m bench compare A.json --new B.json``
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from . import compare, harness
from .env import ROOT

#: Set-ups per run; ``setup_s`` is import time plus their median.
SETUP_REPEATS = 3
SMOKE_WINDOW = 0.3


def load_contract() -> dict:
    """``BENCHMARK.json``: the single source of metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload, split into 5 rounds "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run a traced round and the per-layer probes")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round of 0.3 s windows on reduced inputs; asserts nothing about time")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                        help="directory for result and trace files")
    parser.add_argument("--part", choices=("all", "workload", "layers"), default="all",
                        help="with --trace: which half of the traced run this process does")
    return parser


def main(process_start: float, argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:], load_contract())
    args = _parser().parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is None and args.part != "layers":
        return run_all(args, contract)
    return run_one(args, contract, process_start)


# ------------------------------------------------------------------ one process
def run_one(args, contract: dict, process_start: float) -> int:
    """One workload (and, traced, the layer probes) in this process."""
    from . import layers, workloads  # imports NumPy and the program: part of set-up time

    import_s = time.perf_counter() - process_start
    names = [w["name"] for w in contract["workloads"]]
    if args.part != "layers" and args.workload not in names:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {names}")
    window = SMOKE_WINDOW if args.smoke else args.seconds / harness.ROUNDS
    if args.smoke:
        n_rounds, setup_repeats = 1, 1
    elif args.trace and args.part == "all":
        # A traced run reports per-layer metrics only and spends its time on the
        # probes; two untraced rounds are enough to size the tracing overhead.
        n_rounds, setup_repeats = 2, 1
    else:
        n_rounds, setup_repeats = harness.ROUNDS, SETUP_REPEATS
    args.out.mkdir(parents=True, exist_ok=True)
    spans = harness.SpanRecorder(enabled=bool(args.trace))
    calibration = harness.Calibration()
    result = {"fingerprint": harness.fingerprint(args.seed, window, n_rounds, args.smoke),
              "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0, "failures": []}

    if args.part != "layers":
        result["workload"] = args.workload
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        try:
            _measure_workload(workload, args.trace, window, n_rounds, setup_repeats, import_s,
                              spans, calibration, result)
        finally:
            workload.teardown()
        # A live compiled plan slows every eager probe that follows (see layers.py).
        del workload
        gc.collect()
    if args.trace and args.part != "workload":
        budget = 0.05 if args.smoke else args.seconds / 40.0
        calibration.burst()
        values, tables, failures = layers.run(args.seed, budget, spans, args.out)
        calibration.burst()
        result["per_layer"].update(values)
        result["failures"] += failures
        result["attempted"] += len(values)
        result["failed"] += len(failures)
        print(tables)
    if args.trace:
        # The machine's weather during this run, for reading the raw layer numbers.
        result["per_layer"]["bench.calibration_ms"] = {
            "value": 1e3 * statistics.median(calibration.samples)}
        label = args.workload if args.part != "layers" else "layers"
        spans.write_chrome(args.out / f"trace-{label}.json")

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for group in ("end_to_end", "per_layer"):
        for name, metric in result[group].items():
            metric["unit"] = units[name]
        if result[group]:
            print(harness.format_metrics(f"{result.get('workload', 'layers')}: {group}",
                                         result[group]))
    for failure in result["failures"]:
        print(f"FAILED CHECK: {failure}")
    result["correct"] = not result["failures"]
    label = result.get("workload", "layers")
    with open(args.out / f"result-{label}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    group = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in contract[group]}
    if args.part == "all" and set(result[group]) != expected:
        sys.exit(f"bench: emitted {group} metrics differ from BENCHMARK.json: "
                 f"{sorted(set(result[group]) ^ expected)}")
    print(json.dumps({
        "correct": result["correct"], "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result[group].items()},
    }))
    return 0 if result["correct"] else 1


def _measure_workload(workload, trace: int, window: float, n_rounds: int, setup_repeats: int,
                      import_s: float, spans: harness.SpanRecorder,
                      calibration: harness.Calibration, result: dict) -> None:
    """Set-ups, untraced rounds, a traced round if asked, then the correctness checks."""
    setups, bursts = [], [calibration.burst()]
    for _ in range(setup_repeats):
        workload.teardown()
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        bursts.append(calibration.burst())
    setup_speed = calibration.speed(*bursts)

    def measured_round(recorder: harness.SpanRecorder) -> harness.Round:
        measured = workload.run_round(window, recorder)
        bursts.append(calibration.burst())
        measured.speed = calibration.speed(*bursts[-2:])
        return measured

    untraced = harness.SpanRecorder(enabled=False)
    rounds = [measured_round(untraced) for _ in range(n_rounds)]
    result["end_to_end"], p95 = harness.end_to_end(
        rounds, import_s + statistics.median(setups), setup_speed)
    result["per_layer"] = {"latency_p95_ms": p95}
    result["setup"] = {"import_s": import_s, "setups_s": setups, "speed": setup_speed}
    if trace:
        traced = measured_round(spans)
        op_s = statistics.median(r.busy_s / max(r.completed, 1) / r.speed for r in rounds)
        result["per_layer"].update({
            "proc.cpu_ms_per_op": {"value": 1e3 * statistics.median(
                r.cpu_s / max(r.attempted, 1) for r in rounds)},
            "bench.trace_overhead_frac": {
                "value": traced.busy_s / max(traced.completed, 1) / traced.speed / op_s - 1.0},
        })
        rounds.append(traced)
    failures = workload.check()
    result["attempted"] = sum(r.attempted for r in rounds) + workload.checked
    result["failed"] = sum(r.failed for r in rounds) + len(failures)
    result["failures"] = failures
    result["fail_frac"] = result["failed"] / max(result["attempted"], 1)


# ---------------------------------------------------------------- all workloads
def run_all(args, contract: dict) -> int:
    """Spawn one fresh interpreter per workload (plus one for the layer probes)."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = args.out / f"run-{stamp}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out),
              "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    jobs = [["--workload", w["name"], "--part", "workload"] for w in contract["workloads"]]
    if args.trace:
        jobs.append(["--part", "layers"])
    status = 0
    for job in jobs:
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "bench"] + job + common, cwd=ROOT).returncode
        print(f"bench: {' '.join(job)} exited {code} after {time.perf_counter() - t0:.1f} s",
              flush=True)
        status = status or code
    merged = {"workloads": {}, "per_layer": {}}
    for path in sorted(out.glob("result-*.json")):
        with open(path) as fh:
            part = json.load(fh)
        merged.setdefault("fingerprint", part["fingerprint"])
        if "workload" in part:
            merged["workloads"][part["workload"]] = part
        else:
            merged["per_layer"] = part["per_layer"]
    with open(out / "bench.json", "w") as fh:
        json.dump(merged, fh, indent=1)
    print(f"bench: results in {out / 'bench.json'}" + ("" if status == 0 else "  (FAILED)"))
    return status
