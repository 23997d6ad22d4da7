"""``python -m repro.traffic`` — serving runs and the CI smoke check.

``run`` executes one open-loop serving scenario (store, mix, arrival
process, pre-store mode, optional crash / degraded-bandwidth fault
phase) and prints the latency/SLO/durability summary; ``--json`` writes
the full ``RunResult`` JSON.  ``smoke`` is the CI gate: a small run with
a crash phase that asserts the p999 and durability fields are present
and that the fast path and reference vocabulary agree byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import ReproError
from repro.faults.harness import run_with_faults
from repro.faults.plan import FaultPlan
from repro.traffic.arrivals import ArrivalSpec
from repro.traffic.serving import ServingWorkload
from repro.workloads.kv.ycsb import YCSBSpec
from repro.workloads.registry import add_run_options, build_run

__all__ = ["main"]


def _build(args: argparse.Namespace) -> ServingWorkload:
    spec = YCSBSpec(
        mix=args.mix,
        num_keys=args.keys,
        operations=args.ops,
        value_size=args.value_size,
    )
    arrival = ArrivalSpec(
        kind=args.kind,
        rate_per_kcycle=args.rate,
        burst_on_kcycles=args.burst_on,
        burst_off_kcycles=args.burst_off,
        burst_slowdown=args.burst_slowdown,
    )
    return ServingWorkload(
        spec=spec,
        clients=args.clients,
        arrival=arrival,
        slo_cycles=args.slo,
        store=args.store,
    )


def _plan(args: argparse.Namespace, workload: ServingWorkload) -> FaultPlan:
    horizon = workload.arrival.expected_horizon_cycles(workload.spec.operations)
    if args.crash_at is not None:
        return FaultPlan.crash_at_cycle(args.crash_at * horizon)
    if args.degraded is not None:
        start, length = args.degraded
        return FaultPlan.degraded_window(
            start * horizon, length * horizon, slowdown=args.degraded_slowdown
        )
    return FaultPlan()


def _run_one(
    parser: argparse.ArgumentParser, args: argparse.Namespace, streams: Optional[bool] = None
) -> dict:
    workload, spec, patches, seed = build_run(parser, args, workload=_build(args))
    report = run_with_faults(
        workload, spec, _plan(args, workload), patches=patches, seed=seed, streams=streams
    )
    return {
        "serving": report.result.extra["serving"],
        "crashed": report.crashed,
        "recovery": report.recovery,
        "degraded_accesses": report.degraded_accesses,
        "result_json": report.result.to_json(),
    }


def _print_summary(doc: dict) -> None:
    s = doc["serving"]

    def fmt(v: object) -> str:
        return f"{v:,.1f}" if isinstance(v, (int, float)) else "-"

    print(
        f"serving: {s['ops_completed']}/{s['ops_scheduled']} ops, "
        f"{s['clients']} clients, store={s['store']}, "
        f"arrival={s['arrival']['kind']}@{s['arrival']['rate_per_kcycle']}/kcycle"
    )
    print(
        f"latency cycles: p50={fmt(s['latency_p50'])} p99={fmt(s['latency_p99'])} "
        f"p999={fmt(s['latency_p999'])} max={fmt(s['latency_max'])}"
    )
    print(
        f"SLO {s['slo_cycles']:g}: {s['slo_violations']} violations "
        f"(rate {s['slo_violation_rate'] if s['slo_violation_rate'] is not None else '-'})"
    )
    print(f"durability: {s['acked_writes']} acked writes", end="")
    if doc["crashed"]:
        rec = doc["recovery"] or {}
        print(f"; CRASHED, lost {rec.get('lost_count', '?')} acked", end="")
    if doc["degraded_accesses"]:
        print(f"; {doc['degraded_accesses']} degraded media accesses", end="")
    print()


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    doc = _run_one(parser, args)
    _print_summary(doc)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(doc["result_json"] + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_smoke(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """CI smoke: crash phase under live traffic, field + identity checks."""
    args.crash_at = 0.6
    failures = []
    fast = _run_one(parser, args, streams=True)
    reference = _run_one(parser, args, streams=False)
    _print_summary(fast)
    if fast["result_json"] != reference["result_json"]:
        failures.append("fast-path RunResult JSON differs from reference")
    s = fast["serving"]
    for field in (
        "latency_p50",
        "latency_p99",
        "latency_p999",
        "slo_violations",
        "slo_violation_rate",
        "acked_writes",
    ):
        if s.get(field) is None:
            failures.append(f"serving field {field!r} missing or null")
    if not fast["crashed"]:
        failures.append("crash phase did not fire")
    rec = fast["recovery"] or {}
    for field in ("ok", "acked", "lost_count"):
        if field not in rec:
            failures.append(f"recovery field {field!r} missing")
    if failures:
        for message in failures:
            print(f"SMOKE FAIL: {message}", file=sys.stderr)
        return 1
    print("serve smoke OK: p999 + durability fields present, fast == reference")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", choices=("clht", "masstree"), default="clht")
    parser.add_argument("--mix", default="A", help="YCSB mix (A-D)")
    parser.add_argument("--keys", type=int, default=1024)
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--value-size", type=int, default=1024)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--kind", choices=("poisson", "constant"), default="poisson")
    parser.add_argument(
        "--rate", type=float, default=0.25, help="arrivals per kilocycle (all clients)"
    )
    parser.add_argument("--burst-on", type=float, default=0.0, metavar="KCYCLES")
    parser.add_argument("--burst-off", type=float, default=0.0, metavar="KCYCLES")
    parser.add_argument("--burst-slowdown", type=float, default=4.0)
    parser.add_argument("--slo", type=float, default=10_000.0, help="SLO in cycles")
    add_run_options(parser, "--machine", "--mode", mode="clean")
    parser.add_argument(
        "--crash-at",
        type=float,
        default=None,
        metavar="FRACTION",
        help="crash at this fraction of the expected arrival horizon",
    )
    parser.add_argument(
        "--degraded",
        type=float,
        nargs=2,
        default=None,
        metavar=("START", "LENGTH"),
        help="degraded-bandwidth window as fractions of the horizon",
    )
    parser.add_argument("--degraded-slowdown", type=float, default=4.0)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.traffic", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="one serving scenario")
    _add_common(run_p)
    run_p.add_argument("--json", default=None, help="write RunResult JSON here")
    run_p.set_defaults(func=_cmd_run)
    smoke_p = sub.add_parser("smoke", help="CI smoke: crash under traffic")
    _add_common(smoke_p)
    smoke_p.set_defaults(func=_cmd_smoke)
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
