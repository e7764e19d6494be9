"""Exporters: Chrome ``trace_event`` JSON, metrics JSONL, Prometheus text.

Three consumers, three formats:

- :func:`chrome_trace` / :func:`write_chrome_trace` — the span buffer as a
  Chrome/Perfetto-loadable ``{"traceEvents": [...]}`` object.
- :func:`metrics_jsonl_line` / :func:`append_metrics_jsonl` — one registry
  snapshot per line, for offline dashboards and CI artifacts.
- :func:`prometheus_text` — the text exposition served by the gateway's
  ``GET /metrics`` endpoint (counters, gauges, histogram quantiles with
  their ``_sum`` / ``_count``).
"""

from __future__ import annotations

import json
import math
import time
from typing import Mapping, Optional

from .metrics import REGISTRY, MetricsRegistry
from .trace import events

__all__ = ["chrome_trace", "write_chrome_trace", "metrics_jsonl_line",
           "append_metrics_jsonl", "prometheus_text"]


def chrome_trace(trace_events: "Optional[list[dict]]" = None) -> "dict":
    """The buffered spans as a Chrome ``trace_event`` JSON object.

    Load the written file in ``chrome://tracing`` or https://ui.perfetto.dev.
    Pass an explicit event list to export a filtered subset.
    """
    return {
        "traceEvents": events() if trace_events is None else trace_events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path: str,
                       trace_events: "Optional[list[dict]]" = None) -> str:
    """Write :func:`chrome_trace` to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(trace_events), fh)
    return path


def metrics_jsonl_line(registry: "Optional[MetricsRegistry]" = None,
                       ts: "Optional[float]" = None) -> str:
    """One JSONL line: ``{"ts": <unix seconds>, "metrics": <snapshot>}``."""
    reg = REGISTRY if registry is None else registry
    record = {"ts": time.time() if ts is None else ts, "metrics": reg.snapshot()}
    return json.dumps(record)


def append_metrics_jsonl(path: str,
                         registry: "Optional[MetricsRegistry]" = None) -> str:
    """Append one snapshot line to the JSONL file at ``path``; returns it."""
    with open(path, "a") as fh:
        fh.write(metrics_jsonl_line(registry) + "\n")
    return path


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name for Prometheus (dots → underscores).

    Collector keys may carry a pre-rendered ``{label="v"}`` suffix — only
    the metric name ahead of it is rewritten.
    """
    head, sep, rest = name.partition("{")
    return head.replace(".", "_").replace("-", "_") + sep + rest


def _prom_labels(labels, extra: "Optional[Mapping[str, str]]" = None) -> str:
    """Render a label tuple (+ extras) as ``{k="v",...}`` or an empty string."""
    pairs = list(labels) + (list(extra.items()) if extra else [])
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    """Render a float for exposition (Prometheus spells NaN as ``NaN``)."""
    if math.isnan(value):
        return "NaN"
    return repr(float(value))


def prometheus_text(*registries: MetricsRegistry) -> str:
    """Prometheus text exposition of one or more registries.

    Counters and gauges expose their value; histograms expose rolling
    quantiles as ``<name>{quantile="0.5"}`` series plus the lifetime
    ``<name>_sum`` and ``<name>_count``, like any Prometheus summary.
    With no arguments, exposes the global registry.
    """
    regs = registries or (REGISTRY,)
    lines: "list[str]" = []
    typed: "set[str]" = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for reg in regs:
        counters, gauges, histograms = reg.series()
        for c in counters:
            name = _prom_name(c.name)
            declare(name, "counter")
            lines.append(f"{name}{_prom_labels(c.labels)} {_prom_value(c.value)}")
        for g in gauges:
            name = _prom_name(g.name)
            declare(name, "gauge")
            lines.append(f"{name}{_prom_labels(g.labels)} {_prom_value(g.value)}")
        for name, value in sorted(reg.collect().items()):
            pname = _prom_name(name)
            declare(pname.partition("{")[0], "gauge")
            lines.append(f"{pname} {_prom_value(value)}")
        for h in histograms:
            name = _prom_name(h.name)
            declare(name, "summary")
            summ = h.summary()
            for key, val in summ.items():
                if key.startswith("p"):
                    q = float(key[1:]) / 100.0
                    lines.append(
                        f"{name}{_prom_labels(h.labels, {'quantile': repr(q)})} "
                        f"{_prom_value(val)}")
            lines.append(f"{name}_sum{_prom_labels(h.labels)} {_prom_value(summ['total'])}")
            lines.append(f"{name}_count{_prom_labels(h.labels)} {summ['count']}")
    return "\n".join(lines) + "\n"
