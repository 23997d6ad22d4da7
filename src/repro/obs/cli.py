"""``python -m repro.obs``: run a workload with telemetry, render it, export it.

Examples::

    python -m repro.obs run --workload listing1 --trace out.trace.json
    python -m repro.obs run --workload x9 --machine b-fast --mode demote --profile
    python -m repro.obs run --workload kvpersist --mode clean
    python -m repro.obs run --workload listing1 --json result.json --width 100
    python -m repro.obs self-check

``run`` executes one seeded workload with an
:class:`~repro.obs.collector.ObsCollector` attached and prints a metrics
summary table plus ASCII timelines (device write bandwidth, store-buffer
occupancy, running write amplification); ``--trace`` writes a Chrome
trace-viewer / Perfetto ``.trace.json`` artifact and ``--json`` archives
the full :class:`~repro.sim.stats.RunResult` (timeline included).

``self-check`` validates the whole telemetry path on a small seeded run:
timestamps monotone, integrated per-interval device bytes equal to the
final ipmctl counters, the exported trace loads as well-formed JSON, the
RunResult JSON round-trip is lossless, and a run *without* obs attaches
no observer.  CI runs it on every push.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import List, Optional, Sequence

from repro.obs.collector import ObsCollector
from repro.obs.log import basic_config, get_logger, run_context
from repro.workloads.registry import add_run_options, build_run, make_workload

__all__ = ["main", "render_timeline", "self_check"]

_log = get_logger("cli")

#: Pure-ASCII intensity ramp for terminal timelines.
_RAMP = " .:-=+*#%@"


def _sparkline(values: Sequence[float], width: int) -> str:
    """Downsample ``values`` into ``width`` columns of the ASCII ramp."""
    if not values:
        return ""
    width = min(width, len(values))
    # Bucket means, then normalise to the ramp.
    buckets: List[float] = []
    per = len(values) / width
    for i in range(width):
        lo, hi = int(i * per), max(int((i + 1) * per), int(i * per) + 1)
        chunk = [v for v in values[lo:hi] if not math.isnan(v)]
        buckets.append(sum(chunk) / len(chunk) if chunk else 0.0)
    top = max(buckets)
    if top <= 0:
        return _RAMP[0] * width
    scale = len(_RAMP) - 1
    return "".join(_RAMP[round(scale * b / top)] for b in buckets)


def render_timeline(timeline, width: int = 72) -> str:
    """ASCII view of the sampled run: one labelled sparkline per signal."""
    samples = timeline.samples
    if not samples:
        return "(empty timeline)"
    t0, t1 = samples[0].t - samples[0].dt, samples[-1].t
    rows = [
        ("write bandwidth", [s.device_write_bandwidth for s in samples], "B/cyc"),
        ("read bytes", [float(s.device_bytes_read) for s in samples], "B/interval"),
        ("sb occupancy", [max(s.store_buffer_occupancy) for s in samples], "entries (max core)"),
        ("combiner open", [float(s.combiner_open_entries) for s in samples], "entries"),
        ("fence stalls", [s.fence_stall_cycles for s in samples], "cyc/interval"),
        ("backpressure", [s.backpressure_stall_cycles for s in samples], "cyc/interval"),
        ("running WA", [s.running_write_amplification for s in samples], "x"),
    ]
    lines = [
        f"timeline: {len(samples)} samples over cycles [{t0:,.0f}, {t1:,.0f}]"
        + (f" ({timeline.dropped} oldest dropped)" if timeline.dropped else "")
    ]
    for label, values, unit in rows:
        finite = [v for v in values if not math.isnan(v)]
        peak = max(finite) if finite else float("nan")
        lines.append(f"{label:>16s} |{_sparkline(values, width)}| peak {peak:.3g} {unit}")
    return "\n".join(lines)


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.analysis.ipmctl import read_media_counters

    workload, spec, patches, seed = build_run(parser, args)
    collector = ObsCollector(
        interval=args.interval, trace=args.trace is not None, profile=args.profile
    )
    run_id = f"{workload.name}/{spec.name}/{args.mode}/s{seed}"
    _log.info("running %s on %s", run_id, spec.name)
    with run_context(run_id=run_id):
        result = workload.run(spec, patches, tracer=collector, seed=seed).run

    print(result.summary())
    print()
    print(render_timeline(collector.timeline, width=args.width))
    print()
    print("metrics:")
    print(collector.registry.render())
    print()
    print(read_media_counters(result).render())
    if args.profile and collector.profiler is not None:
        print()
        print("python self-time (wall clock):")
        print(collector.profiler.report())
    if args.trace:
        collector.write_trace(args.trace)
        print(f"\nwrote {args.trace} (open in https://ui.perfetto.dev or chrome://tracing)")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json(indent=2))
        print(f"wrote {args.json}")
    return 0


# -- self-check ---------------------------------------------------------------


def self_check(verbose: bool = True) -> List[str]:
    """Validate the telemetry path end to end; returns failure messages."""
    from repro.analysis.ipmctl import MediaCounters, read_media_counters
    from repro.sim.machine import machine_a
    from repro.sim.stats import RunResult

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        if verbose:
            print(f"  {'ok ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def seeded_run(with_obs: bool):
        workload = make_workload("listing1")
        workload.iterations = 300
        collector = ObsCollector(interval=250.0) if with_obs else None
        result = workload.run(machine_a(), tracer=collector, seed=7).run
        return result, collector

    result, collector = seeded_run(with_obs=True)
    timeline = result.timeline
    check(timeline is not None and len(timeline) > 1, "obs run produced a timeline")
    assert timeline is not None and collector is not None
    ts = [s.t for s in timeline]
    check(all(a < b for a, b in zip(ts, ts[1:])), "timestamps strictly increasing")
    integrated = MediaCounters.from_timeline(timeline)
    final = read_media_counters(result)
    check(
        integrated == final,
        f"integrated device bytes == ipmctl counters ({integrated} vs {final})",
    )
    result2, _ = seeded_run(with_obs=True)
    check(
        result2.timeline is not None
        and [s.to_dict() for s in result2.timeline] == [s.to_dict() for s in timeline],
        "seeded timelines are deterministic",
    )
    trace = json.loads(collector.trace.to_json())
    check(
        isinstance(trace.get("traceEvents"), list) and len(trace["traceEvents"]) > 0,
        "trace JSON loads and has traceEvents",
    )
    check(
        all({"ph", "pid", "ts"} <= set(e) for e in trace["traceEvents"]),
        "every trace event carries ph/pid/ts",
    )
    restored = RunResult.from_json(result.to_json())
    check(
        restored.cycles == result.cycles
        and restored.timeline is not None
        and len(restored.timeline) == len(timeline)
        and restored.timeline.cumulative == timeline.cumulative,
        "RunResult JSON round-trip is lossless",
    )
    plain, _ = seeded_run(with_obs=False)
    check(plain.timeline is None, "obs-disabled run carries no timeline")
    return failures


def _self_check_cmd(args: argparse.Namespace) -> int:
    print("repro.obs self-check:")
    failures = self_check(verbose=True)
    if failures:
        print(f"self-check FAILED ({len(failures)} failure(s))")
        return 1
    print("self-check OK")
    return 0


# -- entry point --------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Telemetry, trace export and profiling for simulated runs.",
    )
    parser.add_argument(
        "--self-check", action="store_true", help="alias for the self-check subcommand"
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one workload with telemetry attached")
    add_run_options(run_p, "--workload", "--machine", "--mode")
    run_p.add_argument("--interval", type=float, default=1000.0,
                       help="sampling interval in simulated cycles")
    run_p.add_argument("--width", type=int, default=72, help="ASCII timeline width")
    run_p.add_argument("--trace", metavar="PATH", help="write a Perfetto .trace.json here")
    run_p.add_argument("--json", metavar="PATH", help="archive the RunResult as JSON here")
    run_p.add_argument("--profile", action="store_true",
                       help="wall-clock span profiling of the simulator hot loops")

    sub.add_parser("self-check", help="validate the telemetry pipeline end to end")

    args = parser.parse_args(argv)
    basic_config()
    if args.self_check or args.command == "self-check":
        return _self_check_cmd(args)
    if args.command == "run":
        return _run(run_p, args)
    parser.print_help()
    return 2
