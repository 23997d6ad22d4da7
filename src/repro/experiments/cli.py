"""``prestores-experiments``: run paper experiments from the command line.

Examples::

    prestores-experiments --list
    prestores-experiments fig3 fig5
    prestores-experiments --all --full --markdown experiments.md
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments import all_ids, get
from repro.experiments.registry import ExperimentResult


def _markdown(results: List[ExperimentResult]) -> str:
    lines = ["# Experiment results", ""]
    for result in results:
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append("")
        lines.append(f"*Paper claim:* {result.paper_claim}")
        lines.append("")
        lines.append("```")
        lines.append(result.table())
        lines.append("```")
        for note in result.notes:
            lines.append(f"- {note}")
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="prestores-experiments",
        description="Reproduce the tables and figures of the Pre-Stores paper.",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. fig3 table2)")
    parser.add_argument("--list", action="store_true", help="list known experiment ids")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--full", action="store_true", help="full-size sweeps (slower; default is fast mode)"
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--markdown", metavar="PATH", help="also write results as markdown")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard sweep cells across N worker processes (repro.runner)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed result cache; repeat runs skip simulation",
    )
    args = parser.parse_args(argv)

    if args.list:
        for eid in all_ids():
            exp = get(eid)
            print(f"{eid:10s} {exp.title}")
        return 0

    ids = all_ids() if args.all else args.experiments
    if not ids:
        parser.error("give experiment ids, --all, or --list")

    from repro.runner import runner_session

    results: List[ExperimentResult] = []
    failed = False
    total = 0.0
    with runner_session(workers=args.workers, cache_dir=args.cache_dir):
        for eid in ids:
            started = time.perf_counter()
            result = get(eid).run_checked(fast=not args.full, seed=args.seed)
            elapsed = time.perf_counter() - started
            total += elapsed
            results.append(result)
            print(result.render())
            # Wall seconds go to stdout only: the markdown stays deterministic.
            print(f"{eid}: {elapsed:.2f} s")
            print()
            if any(n.startswith("SHAPE CHECK FAILED") for n in result.notes):
                failed = True
    print(f"total: {total:.2f} s")

    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(_markdown(results))
        print(f"wrote {args.markdown}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
