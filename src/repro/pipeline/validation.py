"""Validation trackers: diff regenerated tables against pinned numbers.

A **pin set** is a JSON document freezing the expected per-metric numbers of
one table at one scale::

    {"pins": "table1_tiny",
     "rows": {"gamma=0": {"nmae": {"Etot": ...}, "r2": {...}, "average_r2": ...}}}

Shipped pin sets live in ``repro/pipeline/pins/`` (the tiny-scale numbers are
exact regenerations — the stage bodies are deterministic — with tolerances
absorbing BLAS/platform round-off drift).  :func:`validate_reports` compares
a table's :class:`~repro.metrics.report.MetricReport` rows against a pin set
and returns a machine-readable verdict; :func:`pins_from_reports` regenerates
a pin set from freshly computed rows (how the shipped files were produced).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from ..metrics.report import MetricReport

__all__ = ["available_pins", "load_pins", "pins_from_reports", "validate_reports"]

#: Directory of the pin sets shipped with the package.
PINS_DIR = Path(__file__).parent / "pins"


def available_pins() -> list[str]:
    """Names of the shipped pin sets."""
    if not PINS_DIR.exists():
        return []
    return sorted(p.stem for p in PINS_DIR.glob("*.json"))


def load_pins(name_or_path) -> dict:
    """Load a pin set by shipped name (``"table1_tiny"``) or by file path."""
    path = Path(str(name_or_path))
    if not path.suffix == ".json" or not path.exists():
        path = PINS_DIR / f"{name_or_path}.json"
    if not path.exists():
        raise FileNotFoundError(
            f"no pin set '{name_or_path}'; shipped pin sets: {available_pins()} "
            f"(or pass a path to a pins JSON file)"
        )
    return json.loads(path.read_text())


def pins_from_reports(reports: Mapping[str, MetricReport], name: str = "",
                      description: str = "") -> dict:
    """Freeze freshly computed table rows into a pin-set document."""
    return {
        "pins": name,
        "description": description,
        "rows": {
            label: {
                "nmae": {k: float(v) for k, v in report.nmae.items()},
                "r2": {k: float(v) for k, v in report.r2.items()},
                "average_r2": float(report.average_r2),
            }
            for label, report in reports.items()
        },
    }


def _close(actual: float, expected: float, rtol: float, atol: float) -> bool:
    """Tolerance check that treats matching non-finite values as equal."""
    if math.isnan(expected):
        return math.isnan(actual)
    if math.isinf(expected):
        return actual == expected
    return abs(actual - expected) <= rtol * abs(expected) + atol


def validate_reports(reports: Mapping[str, MetricReport], pins: Mapping,
                     nmae_rtol: float = 0.05, r2_atol: float = 0.05,
                     nmae_atol: float = 0.02, experiment: str = "") -> dict:
    """Diff regenerated ``reports`` against a pin set; return a verdict.

    Per metric, the NMAE check is ``|Δ| ≤ nmae_rtol·|pinned| + nmae_atol``
    and the R² check is ``|Δ| ≤ r2_atol`` (R² is already scale-free).  The
    verdict is machine-readable: a global ``ok``, per-row / per-metric
    breakdowns with both sides of every comparison, and the rows missing
    from either side.  Missing pinned rows fail validation; extra (unpinned)
    rows are reported but do not.
    """
    pinned_rows = pins.get("rows", {})
    rows_out: dict[str, dict] = {}
    ok = True
    for label, pinned in pinned_rows.items():
        if label not in reports:
            ok = False
            continue
        report = reports[label]
        metrics: dict[str, dict] = {}
        row_ok = True
        for metric, expected in pinned.get("nmae", {}).items():
            actual = float(report.nmae[metric])
            entry = metrics.setdefault(metric, {})
            entry["nmae"] = {"expected": float(expected), "actual": actual,
                             "ok": _close(actual, float(expected), nmae_rtol, nmae_atol)}
            row_ok &= entry["nmae"]["ok"]
        for metric, expected in pinned.get("r2", {}).items():
            actual = float(report.r2[metric])
            entry = metrics.setdefault(metric, {})
            entry["r2"] = {"expected": float(expected), "actual": actual,
                           "ok": _close(actual, float(expected), 0.0, r2_atol)}
            row_ok &= entry["r2"]["ok"]
        avg = pinned.get("average_r2")
        avg_entry = None
        if avg is not None:
            avg_entry = {"expected": float(avg), "actual": float(report.average_r2),
                         "ok": _close(float(report.average_r2), float(avg), 0.0, r2_atol)}
            row_ok &= avg_entry["ok"]
        rows_out[label] = {"ok": bool(row_ok), "metrics": metrics}
        if avg_entry is not None:
            rows_out[label]["average_r2"] = avg_entry
        ok &= row_ok
    missing = sorted(set(pinned_rows) - set(reports))
    unpinned = sorted(set(reports) - set(pinned_rows))
    return {
        "experiment": experiment or pins.get("pins", ""),
        "ok": bool(ok and not missing),
        "tolerances": {"nmae_rtol": float(nmae_rtol), "nmae_atol": float(nmae_atol),
                       "r2_atol": float(r2_atol)},
        "rows": rows_out,
        "missing_rows": missing,
        "unpinned_rows": unpinned,
    }
