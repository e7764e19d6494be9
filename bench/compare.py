"""``python -m bench compare``: judge two sets of runs against the benchmark's bounds.

A *run* is one result file (``bench.json`` of a full run, or one workload's
``result-*.json``).  With one run per side the samples are the run's rounds;
with several, each run contributes its median.  Verdicts per (workload,
end-to-end metric): ``worse`` / ``better`` when the medians differ by more than
the metric's bound, ``same`` otherwise, and ``unresolved`` when either side's
spread is wider than the bound and the two sample ranges overlap.
"""

from __future__ import annotations

import argparse
import json
import statistics

from .harness import summarize


def load_run(path) -> "tuple[dict, dict]":
    """``(fingerprint, {workload: result})`` of one result file."""
    with open(path) as fh:
        doc = json.load(fh)
    workloads = doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}
    return doc["fingerprint"], workloads


def fingerprint_difference(a: dict, b: dict) -> "list[str]":
    """Keys, commit aside, on which two fingerprints disagree."""
    return sorted(k for k in set(a) | set(b) if k != "commit" and a.get(k) != b.get(k))


def _samples(runs: "list[dict]", workload: str, metric: str) -> "list[float]":
    found = [run[workload]["end_to_end"][metric] for run in runs if workload in run]
    if len(found) == 1:
        return list(found[0].get("rounds") or [found[0]["value"]])
    return [m["value"] for m in found]


def verdict(base: "list[float]", new: "list[float]", better: str, bound: float) -> "tuple[str, dict]":
    """Classify ``new`` against ``base``; also returns the numbers the verdict used."""
    b, n = summarize(base), summarize(new)
    ratio = n["median"] / b["median"] if b["median"] else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    overlap = min(new) <= max(base) and min(base) <= max(new)
    if max(b["spread"], n["spread"]) > bound and overlap:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif worse_by < -bound:
        label = "better"
    else:
        label = "same"
    return label, {"base": b, "new": n, "ratio": ratio}


def main(argv: "list[str]", contract: dict) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", help="base run(s); with exactly two files and "
                                                 "no --new, the second is the new run")
    parser.add_argument("--new", nargs="+", default=None, help="run(s) judged against the base")
    args = parser.parse_args(argv)
    if args.new is None:
        if len(args.files) != 2:
            parser.error("give exactly two files, or the new runs after --new")
        args.files, args.new = args.files[:1], args.files[1:]
    loaded = [load_run(path) for path in args.files + args.new]
    reference = loaded[0][0]
    for path, (fingerprint, _) in zip(args.files + args.new, loaded):
        differing = fingerprint_difference(reference, fingerprint)
        if differing:
            print(f"bench compare: refusing to compare {args.files[0]} with {path}: "
                  f"fingerprints differ in {differing}")
            return 2
    base = [runs for _, runs in loaded[:len(args.files)]]
    new = [runs for _, runs in loaded[len(args.files):]]

    print(f"{'workload':<16} {'metric':<22} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    any_worse = False
    for workload in (w["name"] for w in contract["workloads"]):
        if not any(workload in run for run in base) or not any(workload in run for run in new):
            continue
        for metric in contract["end_to_end"]:
            label, numbers = verdict(_samples(base, workload, metric["name"]),
                                     _samples(new, workload, metric["name"]),
                                     metric["better"], metric["bound"])
            cells = ["{median:.5g} [{q1:.5g}, {q3:.5g}]".format(**numbers[side])
                     for side in ("base", "new")]
            print(f"{workload:<16} {metric['name']:<22} {cells[0]:>34} {cells[1]:>34} "
                  f"{numbers['ratio']:>9.4f} {metric['bound']:>6.2f}  {label}")
            any_worse |= label == "worse"
        # Failures have an absolute bound of zero: any increase is a regression.
        fails = [statistics.median(run[workload]["fail_frac"] for run in side if workload in run)
                 for side in (base, new)]
        label = "worse" if fails[1] > fails[0] else "same"
        print(f"{workload:<16} {'fail_frac':<22} {fails[0]:>34.5g} {fails[1]:>34.5g} "
              f"{'':>9} {0:>6.2f}  {label}")
        any_worse |= label == "worse"
    return 1 if any_worse else 0
