"""Compare two sets of benchmark runs: parent (A) against change (B).

    python -m benchmarks.e2e compare A.jsonl B.jsonl

Each file holds the lines ``--out`` appended, one per invocation; the
samples of every untraced line are pooled per workload.  Every end-to-end metric
of ``BENCHMARK.json`` gets one verdict per workload row:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``improved`` — over at least ten pairs, B wins at least 9 of 10 (ties
  count for neither) and the medians are further apart than A's
  interquartile range;
* ``unresolved`` — A's own spread is wider than the bound (unless every
  B run is better, or every B run is worse, than every A run), or B is
  better but not by that rule;
* ``unchanged`` — otherwise.

The bound is the metric's share of A's median from ``BENCHMARK.json``,
but never less than its entry in :data:`FLOORS`.

The rows digest, ``experiments.failed_share`` and every ``model.*`` count
must be exactly equal at each seed both sides ran, traced or not.  Exit
status 1 on any regression or changed exact value.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e.harness import load_spec

__all__ = ["verdict", "compare", "load_reports", "trajectory_line", "main"]

#: Share of pairs B must win, and the fewest pairs, before a gain counts.
WIN_SHARE = 0.9
MIN_PAIRS = 10
#: Absolute bounds, in the metric's unit, below which a share-of-median
#: bound never goes.  Set-up takes about 0.3 s, so 25 % of it is within
#: one scheduling hiccup of the host.
FLOORS = {"setup_s": 0.1}


def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float, floor: float = 0.0
) -> str:
    """The choosing-metrics rule for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    gain = sign * (ma - mb)  # > 0: B is better
    iqr_a = _iqr(a)
    allowed = max(bound * abs(ma), floor)
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    all_worse = min(b) > max(a) if better == "lower" else max(b) < min(a)
    if iqr_a > allowed and not (all_better or all_worse):
        return "unresolved"
    if -gain > allowed:
        return "regression"
    if gain > 0 and gain > iqr_a:
        pairs = list(zip(a, b))
        wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
        won = len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
        return "improved" if won else "unresolved"
    return "unchanged"


def load_reports(path: str) -> List[dict]:
    with open(path) as fh:
        return [report for line in fh if line.strip() for report in json.loads(line)["reports"]]


def _pool(reports: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> every sample of every untraced report."""
    pooled: Dict[str, Dict[str, List[float]]] = {}
    for report in reports:
        if report["traced"]:
            continue
        per = pooled.setdefault(report["workload"], defaultdict(list))
        for metric, values in report["samples"].items():
            per[metric].extend(values)
    return pooled


def _exact_values(reports: List[dict]) -> Dict[Tuple[str, str, int], set]:
    """(workload, metric, seed) -> every value seen, for the exact metrics.

    The rows digest is among them, so traced and untraced runs at one seed
    must have produced the same experiment rows.
    """
    seen: Dict[Tuple[str, str, int], set] = defaultdict(set)
    for report in reports:
        workload, seed = report["workload"], report["seed"]
        seen[(workload, "rows_digest", seed)].add(report["rows_digest"])
        for value in report["samples"]["experiments.failed_share"]:
            seen[(workload, "experiments.failed_share", seed)].add(value)
        for metric, value in report["values"].items():
            if metric.startswith("model."):
                seen[(workload, metric, seed)].add(value)
    return seen


def _show(value: object) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


def compare(a_reports: List[dict], b_reports: List[dict]) -> Tuple[List[List[str]], bool]:
    """Table rows and whether B passes against A."""
    spec = load_spec()["end_to_end"]
    pooled_a, pooled_b = _pool(a_reports), _pool(b_reports)
    rows = [["workload", "metric", "n A/B", "median A", "median B", "change", "verdict"]]
    ok = True
    for workload in sorted(set(pooled_a) & set(pooled_b)):
        for metric, entry in spec.items():
            a, b = pooled_a[workload][metric], pooled_b[workload][metric]
            ma, mb = statistics.median(a), statistics.median(b)
            result = verdict(a, b, entry["better"], entry["bound"], FLOORS.get(metric, 0.0))
            ok &= result != "regression"
            change = f"{100.0 * (mb - ma) / ma:+.1f}%" if ma else "n/a"
            rows.append(
                [workload, metric, f"{len(a)}/{len(b)}", f"{ma:.4g}", f"{mb:.4g}", change, result]
            )
    exact_a, exact_b = _exact_values(a_reports), _exact_values(b_reports)
    for key in sorted(set(exact_a) & set(exact_b)):
        workload, metric, seed = key
        same = exact_a[key] == exact_b[key] and len(exact_a[key]) == 1
        ok &= same
        rows.append(
            [
                workload,
                f"{metric}@{seed}",
                f"{len(exact_a[key])}/{len(exact_b[key])}",
                " ".join(map(_show, sorted(exact_a[key]))),
                " ".join(map(_show, sorted(exact_b[key]))),
                "",
                "equal" if same else "CHANGED",
            ]
        )
    return rows, ok


def trajectory_line(reports: List[dict], label: str) -> dict:
    """One ``trajectory.jsonl`` line: median end-to-end metrics per workload."""
    pooled = _pool(reports)
    metrics = list(load_spec()["end_to_end"]) + ["experiments.failed_share"]
    return {
        "label": label,
        "code_fingerprint": sorted({r["code_fingerprint"] for r in reports}),
        "seeds": sorted({r["seed"] for r in reports}),
        "workloads": {
            workload: {
                "n": len(samples["wall_s"]),
                **{metric: statistics.median(samples[metric]) for metric in metrics},
            }
            for workload, samples in sorted(pooled.items())
        },
    }


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("parent", help="runs of the parent commit (--out lines)")
    parser.add_argument("change", help="runs of the change (--out lines)")
    args = parser.parse_args(argv)
    rows, ok = compare(load_reports(args.parent), load_reports(args.change))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0 if ok else 1
