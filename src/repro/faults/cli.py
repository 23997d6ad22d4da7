"""``python -m repro.faults``: faulted runs and the crash-consistency matrix.

Examples::

    # Crash a persistent KV store mid-run, protocol on, and check recovery:
    python -m repro.faults run --workload kvpersist --mode clean \\
        --machine a --crash-frac 0.5

    # Unsafe baseline on Machine B-slow: see what a crash loses:
    python -m repro.faults run --workload logappend --mode none \\
        --machine b-slow --crash-frac 0.5 --no-adr

    # The CI self-check: small matrix on machine A and B-slow, asserting
    # protocol durability, baseline vulnerability, determinism, and the
    # empty-plan identity:
    python -m repro.faults matrix
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.faults.harness import run_with_faults
from repro.faults.plan import CrashPoint, FaultPlan
from repro.faults.workloads import (
    WORKLOADS,
    KVPersistWorkload,
    LogAppendWorkload,
    build_workload,
)
from repro.obs.collector import ObsCollector
from repro.obs.log import basic_config
from repro.sim.machine import PRESETS, Tracer
from repro.workloads.base import Workload


def _crash_instruction(
    workload: Workload,
    fraction: float,
    line_size: int = 64,
    mode: PrestoreMode = PrestoreMode.NONE,
) -> int:
    """Place the crash a fraction of the way through the op stream.

    Defaults to the ``none``-mode event count — the smallest of any mode —
    so the same boundary lands inside the run whatever protocol is on.
    """
    if isinstance(workload, KVPersistWorkload):
        total = workload.operations * workload.events_per_op(line_size, mode)
    elif isinstance(workload, LogAppendWorkload):
        total = workload.records * workload.events_per_op(line_size, mode)
    else:  # pragma: no cover - CLI only builds the two above
        total = 1000
    return max(1, int(total * fraction))


def _run_one(
    workload_name: str,
    machine_key: str,
    mode: PrestoreMode,
    crash_instruction: Optional[int],
    adr: bool,
    seed: int,
    tracer: Optional[Tracer] = None,
):
    workload = build_workload(workload_name)
    spec = PRESETS[machine_key]()
    crash = None if crash_instruction is None else CrashPoint(at_instruction=crash_instruction)
    plan = FaultPlan(crash=crash, combiner_persistent=adr)
    patches = PatchConfig.uniform(mode, workload.patch_sites())
    return run_with_faults(workload, spec, plan, patches=patches, seed=seed, tracer=tracer)


def _cmd_run(args: argparse.Namespace) -> int:
    mode = PrestoreMode(args.mode)
    workload = build_workload(args.workload)
    if args.crash_at_instr is not None:
        crash_instruction: Optional[int] = args.crash_at_instr
    elif args.crash_frac is not None:
        crash_instruction = _crash_instruction(
            workload, args.crash_frac, PRESETS[args.machine]().line_size, mode
        )
    else:
        crash_instruction = None
    collector = ObsCollector() if args.trace else None
    report = _run_one(
        args.workload,
        args.machine,
        mode,
        crash_instruction,
        adr=not args.no_adr,
        seed=args.seed,
        tracer=collector,
    )
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
        for workload_name in sorted(WORKLOADS):
            workload = build_workload(workload_name)
            crash_at = _crash_instruction(workload, 0.5, PRESETS[machine_key]().line_size)
            print(f"{workload_name} on {machine_key} (crash at instr {crash_at}):")

            # 1. Protocol on (clean + fence before ack): nothing acked is lost.
            report = _run_one(
                workload_name, machine_key, PrestoreMode.CLEAN, crash_at, True, args.seed
            )
            recovery = report.recovery or {}
            check("crashed at the plan's boundary", report.crashed)
            check("clean+fence protocol: recovery ok", bool(recovery.get("ok")))

            # 2. Baseline (ack without persist): the crash must cost something —
            #    that lost data *is* the vulnerable window pre-stores shrink.
            baseline = _run_one(
                workload_name, machine_key, PrestoreMode.NONE, crash_at, True, args.seed
            )
            base_recovery = baseline.recovery or {}
            check(
                "unsafe baseline: crash loses acked data",
                int(base_recovery.get("lost_count", 0)) > 0,
            )

            # 3. Determinism: same plan + seed => bit-identical report JSON.
            again = _run_one(
                workload_name, machine_key, PrestoreMode.CLEAN, crash_at, True, args.seed
            )
            check("deterministic report JSON", again.to_json() == report.to_json())

            # 4. Empty plan is the identity: harness result == plain run.
            plain_workload = build_workload(workload_name)
            plain = plain_workload.run(
                PRESETS[machine_key](),
                PatchConfig.uniform(PrestoreMode.CLEAN, plain_workload.patch_sites()),
                seed=args.seed,
            ).run
            empty = _run_one(workload_name, machine_key, PrestoreMode.CLEAN, None, True, args.seed)
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
    run.add_argument("--workload", default="kvpersist", help=f"one of {sorted(WORKLOADS)}")
    run.add_argument("--machine", default="a", choices=sorted(PRESETS))
    run.add_argument("--mode", default="clean", choices=[m.value for m in PrestoreMode])
    run.add_argument("--crash-at-instr", type=int, default=None)
    run.add_argument(
        "--crash-frac",
        type=float,
        default=None,
        help="crash this fraction of the way through the op stream",
    )
    run.add_argument(
        "--no-adr",
        action="store_true",
        help="media-only persistence domain (open combiner entries are lost)",
    )
    run.add_argument("--seed", type=int, default=1234)
    run.add_argument("--json", default=None, help="also write the full report here")
    run.add_argument("--full-image", action="store_true", help="print per-line version maps")
    run.add_argument(
        "--trace", default=None, help="write a Perfetto trace with fault instant markers"
    )
    run.add_argument("--verbose", action="store_true")

    matrix = sub.add_parser("matrix", help="crash-consistency self-check (the CI job)")
    matrix.add_argument("--seed", type=int, default=1234)
    matrix.add_argument("--verbose", action="store_true")

    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        basic_config()

    if args.command == "run":
        return _cmd_run(args)
    return _cmd_matrix(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
