"""Process-wide metrics plane: counters, gauges, histograms, registry.

Every subsystem publishes into a :class:`MetricsRegistry` — serving
telemetry, engine tile-cache stats, compiled-plan cache stats, trainer
epoch metrics, and the per-op / per-kernel profilers.  Series are keyed by
``(name, labels)`` so e.g. ``tape.op_seconds{op="MatMul"}`` and
``tape.op_seconds{op="Add"}`` are distinct histograms under one family.

Instruments are cheap and individually locked; :meth:`MetricsRegistry.snapshot`
is thread-safe and can run concurrently with recording threads (counters
are monotone under concurrent increments — pinned by the concurrency
tests).  *Collectors* are pull-based: a subsystem that already maintains
its own counters (tile cache, plan cache) registers a zero-steady-state
callback, held by weakref to its owner so registries never keep engines
or compiled functions alive.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from ..utils.timing import LatencyWindow

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY", "get_registry"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical hashable form of a label mapping (sorted string pairs)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing counter (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError("Counter.inc requires a non-negative increment")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        """Current counter value."""
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value that can go up and down (thread-safe)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` to the gauge."""
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        """Subtract ``n`` from the gauge."""
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        """Current gauge value."""
        with self._lock:
            return self._value


class Histogram:
    """Rolling-window distribution built on :class:`~repro.utils.timing.LatencyWindow`.

    Observations (typically seconds) land in a bounded window; summaries
    quote the rolling p50/p95/p99 plus lifetime count and total.  An empty histogram
    summarises to ``NaN`` quantiles (see :meth:`LatencyWindow.summary`).
    """

    __slots__ = ("name", "labels", "window")

    def __init__(self, name: str, labels: LabelKey = (), maxlen: int = 2048):
        self.name = name
        self.labels = labels
        self.window = LatencyWindow(maxlen)

    def observe(self, value: float) -> None:
        """Record one observation into the rolling window."""
        self.window.record(value)

    @property
    def count(self) -> int:
        """Lifetime number of observations."""
        return self.window.count

    def summary(self, ps=(50, 95, 99)) -> Mapping[str, float]:
        """Lifetime count/total, rolling mean/max + percentiles (NaNs when empty)."""
        return self.window.summary(ps)


class MetricsRegistry:
    """Get-or-create registry of labeled metric series with a thread-safe snapshot.

    ``counter()`` / ``gauge()`` / ``histogram()`` return the existing series
    for ``(name, labels)`` or create it — so call sites never need set-up
    code, and two threads racing on first use converge on one instrument.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._collectors: "list[tuple[Optional[weakref.ref], Callable[[], Mapping[str, float]]]]" = []

    # ------------------------------------------------------------ instruments
    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(self, name: str, maxlen: int = 2048, **labels) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = self._histograms[key] = Histogram(name, key[1], maxlen=maxlen)
        return inst

    # ------------------------------------------------------------- collectors
    def add_collector(self, fn: Callable[[], Mapping[str, float]],
                      owner: Optional[object] = None) -> None:
        """Register a pull-based collector polled at snapshot time.

        ``fn`` returns ``{metric_name: value}`` (flat gauges).  When ``owner``
        is given it is held by weakref and the collector is dropped once the
        owner is garbage-collected — subsystems with their own counters
        (tile cache, plan cache) publish at zero steady-state cost.
        """
        ref = weakref.ref(owner) if owner is not None else None
        with self._lock:
            self._collectors.append((ref, fn))

    # --------------------------------------------------------------- snapshot
    def snapshot(self) -> "dict":
        """Point-in-time view: ``{"counters": ..., "gauges": ..., "histograms": ...}``.

        Keys are rendered as ``name{k=v,...}`` for labeled series and plain
        ``name`` otherwise.  Histogram values are their rolling summaries.
        Safe to call while other threads record.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            collectors = list(self._collectors)
        out = {
            "counters": {_series_key(c.name, c.labels): c.value for c in counters},
            "gauges": {_series_key(g.name, g.labels): g.value for g in gauges},
            "histograms": {_series_key(h.name, h.labels): dict(h.summary())
                           for h in histograms},
        }
        dead = []
        for ref, fn in collectors:
            if ref is not None and ref() is None:
                dead.append((ref, fn))
                continue
            for name, value in fn().items():
                out["gauges"][name] = float(value)
        if dead:
            with self._lock:
                self._collectors = [c for c in self._collectors if c not in dead]
        return out

    def series(self) -> "tuple[list[Counter], list[Gauge], list[Histogram]]":
        """Live instrument lists (for exporters that need names/labels)."""
        with self._lock:
            return (list(self._counters.values()), list(self._gauges.values()),
                    list(self._histograms.values()))

    def collect(self) -> "dict[str, float]":
        """Flat ``{name: value}`` from all registered collectors (gauges only)."""
        with self._lock:
            collectors = list(self._collectors)
        flat: "dict[str, float]" = {}
        for ref, fn in collectors:
            if ref is not None and ref() is None:
                continue
            flat.update({k: float(v) for k, v in fn().items()})
        return flat

    def reset(self) -> None:
        """Drop every series and collector (test isolation helper)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._collectors.clear()


def _series_key(name: str, labels: LabelKey) -> str:
    """Render ``name{k=v,...}`` (or bare ``name`` for unlabeled series)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def finite(values: Iterable[float]) -> "list[float]":
    """Filter out NaN/inf entries (snapshot post-processing helper)."""
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


#: The process-wide default registry used by all built-in instrumentation.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return REGISTRY
