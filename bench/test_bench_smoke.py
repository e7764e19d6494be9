"""Tier-1 smoke test of the benchmark package.

Runs all five workloads and the traced layer probes in ``--smoke`` mode into
``tmp_path`` and checks that every name in ``BENCHMARK.json`` comes out with a
finite value and its unit.  It asserts nothing about time.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Per-layer metrics each workload's own rounds produce; the rest come from the
#: layer probes, which a full run executes once.  Both kinds of process report
#: the calibration kernel's time.
PER_WORKLOAD = {"latency_p95_ms", "proc.cpu_ms_per_op", "bench.trace_overhead_frac"}
CALIBRATION = "bench.calibration_ms"


def _bench(*args):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


def _assert_metric(metric, unit):
    assert metric["unit"] == unit
    assert math.isfinite(metric["value"])


def test_smoke_run_emits_every_metric(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--smoke", "--trace", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "serving budget" in proc.stdout and "train-ddp budget" in proc.stdout
    (run_dir,) = tmp_path.glob("run-*")
    merged = json.loads((run_dir / "bench.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name in [m["name"] for m in contract["end_to_end"]] + list(layer_units):
        assert NAME.fullmatch(name), name

    for workload in contract["workloads"]:
        result = merged["workloads"][workload["name"]]
        assert result["correct"] and result["fail_frac"] == 0, result["failures"]
        assert result["fingerprint"]["seed"] == 0 and result["fingerprint"]["smoke"]
        for metric in contract["end_to_end"]:
            _assert_metric(result["end_to_end"][metric["name"]], metric["unit"])
        for name in PER_WORKLOAD | {CALIBRATION}:
            _assert_metric(result["per_layer"][name], layer_units[name])
        assert (run_dir / f"trace-{workload['name']}.json").is_file()
    assert set(merged["per_layer"]) == set(layer_units) - PER_WORKLOAD
    for name, metric in merged["per_layer"].items():
        _assert_metric(metric, layer_units[name])

    same = _bench("compare", str(run_dir / "bench.json"), str(run_dir / "bench.json"))
    assert same.returncode == 0 and "worse" not in same.stdout, same.stdout + same.stderr
