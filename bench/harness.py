"""Measurement plumbing shared by the workloads and the layer probes.

Statistics (median / quartiles / spread), the benchmark-side span recorder,
the environment fingerprint and the round loop that turns a workload into
its end-to-end metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .env import ROOT, THREAD_VARS

#: Rounds per run.  A metric's value is the median over rounds of the
#: per-round value; the window shrinks with ``--seconds``, the count never.
ROUNDS = 5


# ------------------------------------------------------------------ statistics
def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles (as :func:`statistics.quantiles` defines them), spread
    (IQR / median) and sample count of ``values``."""
    values = [float(v) for v in values]
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": q2, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / abs(q2) if q2 else 0.0,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- calibration
class Calibration:
    """A fixed pure-NumPy kernel timed around every set-up and round.

    The box is a shared two-core VM whose speed wanders by 10-30% over
    minutes: identical runs of compute-bound workloads land that far apart,
    and so do this kernel's timings, in step with them.  Dividing each round
    by the kernel time measured right around it removes two thirds of that
    run-to-run spread (README, "Noise floor").  The kernel touches nothing of
    the program and allocates nothing, so it cannot shift the allocator state
    the program runs in.  ``NOMINAL_S`` is the kernel's time on the defining
    machine in a quiet phase: it only fixes the unit, so that normalised and
    raw numbers agree on a quiet box.
    """

    NOMINAL_S = 0.021
    ITERATIONS = 20

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((256, 256))
        self._out = np.empty_like(self._a)
        self._v = rng.random(1 << 18)
        self._v_out = np.empty_like(self._v)
        self.samples: "list[float]" = []

    def burst(self, reps: int = 8) -> "list[float]":
        """Time the kernel ``reps`` times; returns (and remembers) the samples."""
        taken = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(self.ITERATIONS):
                np.matmul(self._a, self._a, out=self._out)
                np.exp(self._a, out=self._out)
                np.multiply(self._v, 2.0, out=self._v_out)
            taken.append(time.perf_counter() - t0)
        self.samples += taken
        return taken

    @classmethod
    def speed(cls, *bursts: "list[float]") -> float:
        """Machine slowness over ``bursts``: kernel time / nominal (1.0 = nominal box)."""
        return statistics.median(s for burst in bursts for s in burst) / cls.NOMINAL_S


# ----------------------------------------------------------------------- spans
class SpanRecorder:
    """In-memory span log, written out as a Chrome ``trace_event`` file.

    Disabled recorders make every call a no-op, so the untraced rounds pay
    one attribute check per op.  Spans of one op share ``op``; ``parent``
    names the span that caused this one.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._events: "list[tuple]" = []
        self._lock = threading.Lock()

    def add(self, name: str, t0: float, t1: float, parent: Optional[str] = None,
            op: Optional[int] = None) -> None:
        """Record a finished span (times are :func:`time.perf_counter` seconds)."""
        if self.enabled:
            with self._lock:
                self._events.append((name, t0, t1, parent, op, threading.get_ident()))

    def __len__(self) -> int:
        return len(self._events)

    def write_chrome(self, path) -> None:
        """Write the spans as complete (``ph: X``) Chrome trace events."""
        events = [
            {"name": name, "ph": "X", "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
             "pid": os.getpid(), "tid": tid, "args": {"parent": parent, "op": op}}
            for name, t0, t1, parent, op, tid in self._events
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ----------------------------------------------------------------- fingerprint
def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def fingerprint(seed: int, window: float, rounds: int, smoke: bool) -> dict:
    """Everything two outputs must share, commit aside, to be comparable."""
    from repro.backend import default_dtype

    return {
        "commit": _git_commit(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "dtype": default_dtype().name,
        "seed": seed,
        "rounds": rounds,
        "window_s": window,
        "smoke": smoke,
    }


# ---------------------------------------------------------------------- rounds
@dataclass
class Round:
    """What one timed window of a workload produced.

    ``completed / busy_s`` is the round's throughput: for the concurrent
    serving workloads ``busy_s`` is the wall window and ``completed`` the
    ops that finished inside it; for the single-caller workloads it is the
    summed op time, so input generation between ops is not charged.
    """

    attempted: int
    failed: int
    completed: int
    busy_s: float
    latencies: "list[float]"
    cpu_s: float = 0.0
    #: :meth:`Calibration.speed` of the bursts before and after this round.
    speed: float = 1.0


def end_to_end(rounds: "list[Round]", setup_s: float, setup_speed: float) -> "tuple[dict, dict]":
    """Fold rounds into ``(end-to-end metrics, latency_p95_ms)``.

    Every timing is the median over rounds of the per-round value, each round
    normalised by its :attr:`Round.speed`; the unnormalised median is kept as
    ``raw``.  The p95 is computed per round for the same reason the others
    are: a pooled percentile is set by the single worst round.
    """
    per_round = {
        "throughput_ops_per_s": [(r.completed / r.busy_s, r.speed) for r in rounds],
        "latency_p50_ms": [(statistics.median(r.latencies) * 1e3, 1.0 / r.speed) for r in rounds],
        "latency_p95_ms": [(float(np.percentile(r.latencies, 95)) * 1e3, 1.0 / r.speed)
                           for r in rounds],
    }
    metrics = {"setup_s": {"value": setup_s / setup_speed, "raw": setup_s}}
    for name, pairs in per_round.items():
        values = [raw * scale for raw, scale in pairs]
        stats = summarize(values)
        metrics[name] = {"value": stats["median"], "spread": stats["spread"], "n": len(values),
                         "rounds": values, "raw": statistics.median(raw for raw, _ in pairs)}
    pooled = [lat for r in rounds for lat in r.latencies]
    p95 = metrics.pop("latency_p95_ms")
    p95["pooled_raw_ms"] = {f"p{p}": float(np.percentile(pooled, p)) * 1e3 for p in (25, 50, 75, 95)}
    p95["pooled_n"] = len(pooled)
    metrics["peak_rss_mb"] = {"value": peak_rss_mb()}
    return metrics, p95


def format_metrics(title: str, metrics: dict) -> str:
    """Aligned ``name value unit spread n`` table for humans."""
    lines = [title]
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        spread = f"  spread {m['spread']:.3f}" if "spread" in m else ""
        count = f"  n={m['n']}" if "n" in m else ""
        lines.append(f"  {name.ljust(width)}  {m['value']:>14.6g} {m['unit']}{spread}{count}")
    return "\n".join(lines)
