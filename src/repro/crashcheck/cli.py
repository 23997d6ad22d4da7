"""``python -m repro.crashcheck``: static crash-consistency verification.

Examples::

    # Statically verify the unsafe baseline on machine A:
    python -m repro.crashcheck report --workload kvpersist --mode none

    # One static<->dynamic differential as JSON:
    python -m repro.crashcheck crossval --workload logappend --mode clean \\
        --machine b-slow --no-adr

    # The CI self-check: static expectations plus the full differential
    # matrix on machine presets A and B-slow, ADR and media-only, with
    # pre-store protocols off and on:
    python -m repro.crashcheck self
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.core.prestore import PrestoreMode
from repro.crashcheck.crossval import cross_validate
from repro.crashcheck.verify import GUARANTEED, POSSIBLY_LOST, check_workload
from repro.faults.workloads import KVPersistWorkload, LogAppendWorkload
from repro.sanitize.report import render_report
from repro.sim.machine import PRESETS
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOAD_FACTORIES, add_run_options, build_run

__all__ = ["main", "run_self_check"]

#: Shrunk instances for the self-check matrix: enough operations to
#: exercise rewrites and combiner churn, small enough to stay fast.
_SMALL_WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "kvpersist": lambda: KVPersistWorkload(keys=16, value_size=256, operations=24),
    "logappend": lambda: LogAppendWorkload(record_size=256, records=24),
}


def _cmd_report(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    workload, spec, patches, seed = build_run(parser, args, logged=True)
    report = check_workload(workload, spec, patches=patches, adr=not args.no_adr, seed=seed)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 1 if report.has_errors() else 0
    counts = report.counts()
    domain = "ADR" if report.adr else "media-only"
    print(
        f"{report.workload} on {report.machine} ({report.patch_summary}, {domain}): "
        f"{len(report.acks)} acks over {report.instr_total} instructions"
    )
    print(
        f"  guaranteed-durable: {counts[GUARANTEED]}   "
        f"possibly-lost: {counts[POSSIBLY_LOST]}   "
        f"ordering-violated: {counts['ordering-violated']}"
    )
    vulnerable = report.vulnerable()
    if vulnerable:
        first = vulnerable[0]
        end = "end" if first.window is None or first.window[1] is None else first.window[1]
        print(
            f"  first vulnerable window: ack #{first.index} ({first.key}) "
            f"[{first.boundary}, {end})"
        )
    print()
    print(render_report(report.diagnostics))
    return 1 if report.has_errors() else 0


def _cmd_crossval(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _, spec, _, seed = build_run(parser, args, logged=True)
    result = cross_validate(
        WORKLOAD_FACTORIES[args.workload],
        spec,
        mode=PrestoreMode(args.mode),
        adr=not args.no_adr,
        seed=seed,
        max_probes=args.max_probes,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["ok"] else 1


#: Static expectations per mode in the ADR domain: which status every
#: ack of the small matrix workloads must get.
_EXPECTED_STATUS = {
    PrestoreMode.NONE: POSSIBLY_LOST,
    PrestoreMode.CLEAN: GUARANTEED,
    PrestoreMode.DEMOTE: POSSIBLY_LOST,
    PrestoreMode.SKIP: GUARANTEED,
}

_EXPECTED_ERROR_RULE = {
    PrestoreMode.NONE: "crashcheck.acked-before-persist",
    PrestoreMode.DEMOTE: "crashcheck.missing-clwb",
}


def run_self_check(fast: bool = False, seed: int = 1234) -> int:
    """Static expectations + the static<->dynamic differential matrix.

    ``fast`` runs a single-machine subset (used by ``python -m
    repro.sanitize --self``); the full matrix covers machines A and
    B-slow, both workloads, both persistence domains, and pre-store
    modes off and on.  Returns a process exit code.
    """
    failures: List[str] = []
    checks = 0

    def check(label: str, ok: bool) -> None:
        nonlocal checks
        checks += 1
        status = "ok" if ok else "FAIL"
        print(f"  [{status}] {label}")
        if not ok:
            failures.append(label)

    if fast:
        configs = [
            ("a", "kvpersist", mode, True)
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN, PrestoreMode.DEMOTE)
        ]
        max_probes: Optional[int] = 3
        fractions = (0.5,)
    else:
        configs = [
            (machine_key, workload_name, mode, adr)
            for machine_key in ("a", "b-slow")
            for workload_name in sorted(_SMALL_WORKLOADS)
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
            for adr in (True, False)
        ]
        configs += [
            ("a", workload_name, mode, True)
            for workload_name in sorted(_SMALL_WORKLOADS)
            for mode in (PrestoreMode.DEMOTE, PrestoreMode.SKIP)
        ]
        max_probes = 4
        fractions = (0.3, 0.7)

    for machine_key, workload_name, mode, adr in configs:
        factory = _SMALL_WORKLOADS[workload_name]
        spec = PRESETS[machine_key]()
        domain = "adr" if adr else "media-only"
        print(f"{workload_name} on {machine_key} (mode={mode.value}, {domain}):")

        # Static expectations: the protocol's known classification.
        static = check_workload(factory(), spec, mode=mode, adr=adr, seed=seed)
        counts = static.counts()
        expected = _EXPECTED_STATUS[mode] if adr else POSSIBLY_LOST
        check(
            f"static: all {len(static.acks)} acks {expected}",
            len(static.acks) > 0 and counts[expected] == len(static.acks),
        )
        if adr and mode in _EXPECTED_ERROR_RULE:
            rule = _EXPECTED_ERROR_RULE[mode]
            check(
                f"static: {rule} reported",
                any(d.rule == rule and d.severity == "error" for d in static.diagnostics),
            )
        if adr and mode in (PrestoreMode.CLEAN, PrestoreMode.SKIP):
            check(
                "static: protocol raises no errors",
                not static.has_errors(),
            )

        # The differential: both directions, alignment riding along.
        result = cross_validate(
            factory,
            spec,
            mode=mode,
            adr=adr,
            seed=seed,
            max_probes=max_probes,
            fractions=fractions,
        )
        check(
            f"differential ok ({result['probes']} probes, "
            f"{result['dynamic_runs']} dynamic runs)",
            bool(result["ok"]),
        )
        for mismatch in result["mismatches"]:
            print(f"    mismatch: {mismatch}")

    print(f"{checks} checks, {len(failures)} failures")
    if failures:
        for name in failures:
            print(f"FAILED: {name}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.crashcheck",
        description="Static crash-consistency verifier over the event IR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="static verification report for one config")
    add_run_options(report, "--workload", "--machine", "--mode", workload="kvpersist")
    report.add_argument("--no-adr", action="store_true", help="media-only persistence domain")
    report.add_argument("--json", action="store_true", help="emit the full report as JSON")

    crossval = sub.add_parser("crossval", help="one static<->dynamic differential, JSON out")
    add_run_options(crossval, "--workload", "--machine", "--mode", workload="kvpersist")
    crossval.add_argument("--no-adr", action="store_true")
    crossval.add_argument("--max-probes", type=int, default=6)

    selfcheck = sub.add_parser("self", help="static + differential self-check (the CI job)")
    add_run_options(selfcheck)
    selfcheck.add_argument("--fast", action="store_true", help="single-machine subset")

    args = parser.parse_args(argv)
    if args.command == "report":
        return _cmd_report(report, args)
    if args.command == "crossval":
        return _cmd_crossval(crossval, args)
    return run_self_check(fast=args.fast, seed=args.seed)
