"""Command line: run the benchmark, compare two run sets, or summarise one.

    python -m benchmarks.e2e [--workload W ...] [--seed N] [--repeats N]
                             [--trace [0|1]] [--out FILE] [--seconds S]
    python -m benchmarks.e2e compare PARENT.jsonl CHANGE.jsonl
    python -m benchmarks.e2e trajectory RUNS.jsonl --label TEXT

Run from the repository root; the simulator is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from benchmarks.e2e import compare, harness
from benchmarks.e2e.workloads import WORKLOADS


def _run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1234, help="seed the experiments receive")
    # BENCHMARK.json's command is run with --seconds <run_seconds>.  A pass
    # cannot be cut short, so --repeats alone sets how many run; run_seconds
    # is kept below the shortest pass, so one pass measures at least that long.
    parser.add_argument("--seconds", type=float, help="accepted; every pass runs to its end")
    parser.add_argument("--repeats", type=int, default=1, help="passes per workload")
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: trace every pass and print the per-layer metrics",
    )
    parser.add_argument("--out", help="append the full report as one JSON line to this file")
    args = parser.parse_args(argv)
    return harness.main(
        args.workload or list(WORKLOADS),
        seed=args.seed,
        repeats=max(1, args.repeats),
        trace=bool(args.trace),
        out=args.out,
    )


def _trajectory(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e trajectory")
    parser.add_argument("runs", help="a file of --out lines")
    parser.add_argument("--label", required=True, help="what these runs measured")
    args = parser.parse_args(argv)
    print(json.dumps(compare.trajectory_line(compare.load_reports(args.runs), args.label)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    if argv[:1] == ["trajectory"]:
        return _trajectory(argv[1:])
    return _run(argv)


if __name__ == "__main__":
    sys.exit(main())
