"""``prestores-experiments``: run paper experiments from the command line.

Examples::

    prestores-experiments --list
    prestores-experiments fig3 fig5
    prestores-experiments --all --full --markdown experiments.md
    prestores-experiments --all --workers 2 --cache-dir build/cache

Exit status: 0 when every shape check passed, 3 when at least one
experiment printed ``SHAPE CHECK FAILED`` (the run itself completed and
its markdown was written), and 1 on a crash, so a caller can tell a
failed claim from a broken run.

``--cache-dir`` is also how a killed sweep resumes: every finished cell
is stored as it completes, so re-running the same command simulates
only the cells the kill lost and prints the same results.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from typing import Iterable, List, Optional

from repro.experiments import all_ids, get, run_all
from repro.experiments.registry import ExperimentResult
from repro.workloads.registry import add_run_options

#: Exit status when the run completed but a shape check failed.
EXIT_SHAPE_FAILED = 3


def _peak_rss_mib() -> float:
    """This process's peak resident set size in MiB.

    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.  Pool
    workers are other processes and are not counted.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _markdown(results: Iterable[ExperimentResult]) -> str:
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
        epilog=(
            f"exit status: 0 all shape checks passed, {EXIT_SHAPE_FAILED} a shape check "
            "failed, 1 the run crashed"
        ),
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (e.g. fig3 table2)")
    parser.add_argument("--list", action="store_true", help="list known experiment ids")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--full", action="store_true", help="full-size sweeps (slower; default is fast mode)"
    )
    add_run_options(parser)
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
        help="content-addressed result cache; repeat runs skip simulation, "
        "and re-running a killed sweep resumes it",
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

    started = time.perf_counter()
    results = run_all(
        ids, fast=not args.full, seed=args.seed, workers=args.workers, cache_dir=args.cache_dir
    )
    total = time.perf_counter() - started
    for eid, result in results.items():
        print(result.render())
        # Wall seconds and path counts go to stdout only: the markdown
        # stays deterministic.
        paths = " ".join(f"{path}={count}" for path, count in result.path_counts.items())
        print(f"{eid}: {result.wall_s:.2f} s  accesses {paths}")
        print()
    print(f"total: {total:.2f} s  peak RSS {_peak_rss_mib():.1f} MiB")

    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(_markdown(results.values()))
        print(f"wrote {args.markdown}")
    notes = (note for result in results.values() for note in result.notes)
    failed = any(note.startswith("SHAPE CHECK FAILED") for note in notes)
    return EXIT_SHAPE_FAILED if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
