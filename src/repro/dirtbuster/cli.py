"""``dirtbuster``: run the analysis tool on a named workload.

Examples (also ``python -m repro.dirtbuster ...``)::

    dirtbuster clht --machine a
    dirtbuster nas-mg --machine a --sampling-period 101
    dirtbuster x9 --machine b-fast
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.dirtbuster.runner import DirtBuster, DirtBusterConfig
from repro.workloads.registry import WORKLOAD_FACTORIES, add_run_options, build_run


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirtbuster",
        description="Find code locations that would benefit from pre-stores.",
    )
    parser.add_argument("--list", action="store_true", help="list known workloads")
    parser.add_argument("--sampling-period", type=_positive_int, default=229)
    add_run_options(parser, "workload", "--machine")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(sorted(WORKLOAD_FACTORIES)))
        return 0
    if not args.workload:
        parser.error("give a workload name or --list")

    workload, spec, _, seed = build_run(parser, args)
    config = DirtBusterConfig(sampling_period=args.sampling_period)
    report = DirtBuster(config).analyze(workload, spec, seed=seed)
    print(report.render())
    print()
    print("Table 2 row:")
    print(f"{'':20s} {'write':>6s} {'seq':>6s} {'fence':>6s}")
    print(report.classification.row())
    return 0
