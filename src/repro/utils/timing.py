"""Wall-clock timing helpers: stopwatch, percentiles, rolling latency windows."""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Timer", "percentile", "percentiles", "LatencyWindow"]


class Timer:
    """Context manager / stopwatch measuring elapsed wall time in seconds.

    Re-entering accumulates by default: ``with timer:`` after a prior run
    *resumes* the stopwatch, summing intervals into :attr:`elapsed` (handy
    for timing a hot section across loop iterations).  Construct with
    ``reset_on_enter=True`` to make every ``with`` block measure from zero
    instead.
    """

    def __init__(self, reset_on_enter: bool = False):
        self.elapsed = 0.0
        self.reset_on_enter = bool(reset_on_enter)
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        if self.reset_on_enter:
            self.reset()
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        """Start (or resume) the stopwatch."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the stopwatch and return the accumulated elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulated time and clear any running interval."""
        self.elapsed = 0.0
        self._start = None


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` (linear interpolation).

    ``p`` is given in ``[0, 100]``; raises :class:`ValueError` on an empty
    sequence so callers cannot silently report a latency of zero.
    """
    data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                      dtype=np.float64)
    if data.size == 0:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]; got {p}")
    return float(np.percentile(data, p))


def percentiles(values: Iterable[float],
                ps: Sequence[float] = (50, 95, 99)) -> "dict[float, float]":
    """Several percentiles of ``values`` at once, as ``{p: value}``.

    The default probes are the p50/p95/p99 latencies conventionally quoted
    for serving systems.
    """
    data = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                      dtype=np.float64)
    return {float(p): percentile(data, p) for p in ps}


class LatencyWindow:
    """Thread-safe rolling window of latency samples with percentile summaries.

    Keeps the most recent ``maxlen`` samples (seconds) plus a lifetime count
    and total; percentiles are computed over the retained window, which is
    the standard "rolling p99" a serving dashboard quotes, while the total
    gives a time budget over every sample ever recorded.
    """

    def __init__(self, maxlen: int = 2048):
        if maxlen < 1:
            raise ValueError("LatencyWindow maxlen must be positive")
        self._samples: "deque[float]" = deque(maxlen=maxlen)
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds) to the window."""
        with self._lock:
            self._samples.append(float(seconds))
            self._count += 1
            self._total += float(seconds)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def count(self) -> int:
        """Lifetime number of recorded samples (not just those retained)."""
        with self._lock:
            return self._count

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile over the retained window."""
        with self._lock:
            data = list(self._samples)
        return percentile(data, p)

    def summary(self, ps: Sequence[float] = (50, 95, 99)) -> "Mapping[str, float]":
        """Rolling summary: lifetime count and total, windowed mean, max and the requested percentiles.

        An empty window reports ``count`` 0, ``total`` 0.0 and **NaN** for
        every windowed statistic (rather than raising like
        :func:`percentile` does): a dashboard that has served nothing yet
        must show "no data", never a fake latency of zero.  Check ``count``
        (or ``math.isnan``) before comparing values.
        """
        with self._lock:
            data = list(self._samples)
            count, total = self._count, self._total
        if not data:
            out = {"count": 0, "total": 0.0, "mean": float("nan"), "max": float("nan")}
            out.update({f"p{p:g}": float("nan") for p in ps})
            return out
        out = {"count": count, "total": total, "mean": float(np.mean(data)), "max": float(np.max(data))}
        out.update({f"p{p:g}": percentile(data, p) for p in ps})
        return out
