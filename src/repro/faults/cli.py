"""``python -m repro.faults``: faulted runs and the crash-consistency matrix.

Examples::

    # Crash a persistent KV store mid-run, protocol on, and check recovery:
    python -m repro.faults run --workload kvpersist --mode clean \\
        --machine a --crash-frac 0.5

    # Unsafe baseline on Machine B-slow: see what a crash loses:
    python -m repro.faults run --workload logappend --mode none \\
        --machine b-slow --crash-frac 0.5 --no-adr

    # Any registered workload; without a durability log recovery is null:
    python -m repro.faults run --workload clht --crash-at-instr 5000

    # The CI self-check: small matrix on machine A and B-slow, asserting
    # protocol durability, baseline vulnerability, determinism, and the
    # empty-plan identity:
    python -m repro.faults matrix
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.faults.harness import run_with_faults
from repro.faults.plan import CrashPoint, FaultPlan
from repro.obs.collector import ObsCollector
from repro.obs.log import basic_config
from repro.sim.machine import PRESETS, MachineSpec
from repro.workloads.base import Workload
from repro.workloads.registry import (
    WORKLOAD_FACTORIES,
    add_run_options,
    build_run,
    logged_workloads,
)


def _crash_instruction(
    workload: Workload,
    fraction: float,
    line_size: int = 64,
    mode: PrestoreMode = PrestoreMode.NONE,
) -> int:
    """Place the crash a fraction of the way through a logged workload's ops.

    Defaults to the ``none``-mode event count — the smallest of any mode —
    so the same boundary lands inside the run whatever protocol is on.
    """
    total = workload.operations * workload.events_per_op(line_size, mode)
    return max(1, int(total * fraction))


def _faulted(
    make: Callable[[], Workload], spec: MachineSpec, mode: PrestoreMode, crash: Optional[int], seed
):
    """One ADR-domain run of a fresh ``make()`` with ``mode`` at every site."""
    workload = make()
    plan = FaultPlan(crash=None if crash is None else CrashPoint(at_instruction=crash))
    patches = PatchConfig.uniform(mode, workload.patch_sites())
    return run_with_faults(workload, spec, plan, patches=patches, seed=seed)


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    workload, spec, patches, seed = build_run(parser, args, logged=args.crash_frac is not None)
    crash_at = args.crash_at_instr
    if crash_at is None and args.crash_frac is not None:
        mode = PrestoreMode(args.mode)
        crash_at = _crash_instruction(workload, args.crash_frac, spec.line_size, mode)
    crash = None if crash_at is None else CrashPoint(at_instruction=crash_at)
    plan = FaultPlan(crash=crash, combiner_persistent=not args.no_adr)
    collector = ObsCollector() if args.trace else None
    report = run_with_faults(workload, spec, plan, patches=patches, seed=seed, tracer=collector)
    doc = report.to_dict(include_image=args.full_image)
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}", file=sys.stderr)
    if collector is not None:
        collector.write_trace(args.trace)
        print(f"wrote {args.trace}", file=sys.stderr)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    """The self-check: protocol durability + determinism + identity."""
    machines = ["a", "b-slow"]
    failures: List[str] = []
    checks = 0

    def check(label: str, ok: bool) -> None:
        nonlocal checks
        checks += 1
        status = "ok" if ok else "FAIL"
        print(f"  [{status}] {label}")
        if not ok:
            failures.append(label)

    for machine_key in machines:
        spec = PRESETS[machine_key]()
        for workload_name in logged_workloads():
            make = WORKLOAD_FACTORIES[workload_name]
            crash_at = _crash_instruction(make(), 0.5, spec.line_size)
            print(f"{workload_name} on {machine_key} (crash at instr {crash_at}):")

            # 1. Protocol on (clean + fence before ack): nothing acked is lost.
            report = _faulted(make, spec, PrestoreMode.CLEAN, crash_at, args.seed)
            recovery = report.recovery or {}
            check("crashed at the plan's boundary", report.crashed)
            check("clean+fence protocol: recovery ok", bool(recovery.get("ok")))

            # 2. Baseline (ack without persist): the crash must cost something —
            #    that lost data *is* the vulnerable window pre-stores shrink.
            baseline = _faulted(make, spec, PrestoreMode.NONE, crash_at, args.seed)
            base_recovery = baseline.recovery or {}
            check(
                "unsafe baseline: crash loses acked data",
                int(base_recovery.get("lost_count", 0)) > 0,
            )

            # 3. Determinism: same plan + seed => bit-identical report JSON.
            again = _faulted(make, spec, PrestoreMode.CLEAN, crash_at, args.seed)
            check("deterministic report JSON", again.to_json() == report.to_json())

            # 4. Empty plan is the identity: harness result == plain run.
            plain_workload = make()
            plain = plain_workload.run(
                spec,
                PatchConfig.uniform(PrestoreMode.CLEAN, plain_workload.patch_sites()),
                seed=args.seed,
            ).run
            empty = _faulted(make, spec, PrestoreMode.CLEAN, None, args.seed)
            check("empty plan: RunResult JSON identical", empty.result.to_json() == plain.to_json())

    print(f"{checks} checks, {len(failures)} failures")
    if failures:
        for name in failures:
            print(f"FAILED: {name}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault injection and crash-consistency checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one faulted run, report as JSON")
    add_run_options(run, "--workload", "--machine", "--mode", workload="kvpersist", mode="clean")
    run.add_argument("--crash-at-instr", type=int, default=None)
    run.add_argument(
        "--crash-frac",
        type=float,
        default=None,
        help="crash this fraction of the way through the op stream (logged workloads)",
    )
    run.add_argument(
        "--no-adr",
        action="store_true",
        help="media-only persistence domain (open combiner entries are lost)",
    )
    run.add_argument("--json", default=None, help="also write the full report here")
    run.add_argument("--full-image", action="store_true", help="print per-line version maps")
    run.add_argument(
        "--trace", default=None, help="write a Perfetto trace with fault instant markers"
    )
    run.add_argument("--verbose", action="store_true")

    matrix = sub.add_parser("matrix", help="crash-consistency self-check (the CI job)")
    add_run_options(matrix)
    matrix.add_argument("--verbose", action="store_true")

    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        basic_config()

    if args.command == "run":
        return _cmd_run(run, args)
    return _cmd_matrix(args)
