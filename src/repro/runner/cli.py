"""``python -m repro.runner``: resumable sweeps, cache maintenance, monitoring.

Examples::

    python -m repro.runner sweep --cells 64 --workers 2 --journal build/j.jsonl
    python -m repro.runner sweep --cells 64 --stop-after 20   # exits 75: resume me
    python -m repro.runner sweep --cells 64 --watch --monitor-jsonl build/sweep.jsonl
    python -m repro.runner cache --dir build/runner-cache
    python -m repro.runner cache --dir build/runner-cache --gc
    python -m repro.runner cache --dir build/runner-cache --clear

``sweep`` executes a demo grid of NAS kernels *resumably*: terminal
outcomes append to ``--journal`` as they land, a re-run skips completed
cells, and ``--stop-after N`` stops early on purpose (exit code 75, the
sysexits EX_TEMPFAIL convention: partial progress, run me again) — the
deterministic stand-in for a killed sweep in the CI smoke job.

``--watch`` attaches a :class:`~repro.runner.monitor.SweepMonitor` and
live-refreshes a fleet dashboard (worker utilisation, cache hit-rate,
cells/s, ETA, per-kind simulator event rates); ``--monitor-jsonl``
appends the same event stream plus a final metrics summary to a JSONL
progress file for headless runs.  Parallel experiment sweeps live on
the experiments CLI (``prestores-experiments fig9 --workers 4 ...``);
this entry point owns the runner's own artifacts.  Timing lives in the
end-to-end benchmark (``python3 -m benchmarks.e2e``), not here.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import List, Optional

from repro.core.prestore import PrestoreMode
from repro.obs.log import basic_config
from repro.runner.cache import ResultCache
from repro.runner.cells import Cell
from repro.runner.grid import Grid, run_grid
from repro.runner.monitor import SweepEvent, SweepMonitor
from repro.sim.machine import machine_a

#: sysexits.h EX_TEMPFAIL: the sweep stopped with work remaining —
#: rerun the same command to resume from the journal.
EXIT_RESUMABLE = 75


class _WatchRenderer:
    """Event-bus tee: feed the monitor, repaint the TTY dashboard.

    On a real terminal the dashboard repaints in place (cursor-home +
    clear, throttled to ``min_interval`` host seconds); on a pipe it
    prints one dashboard per sweep end so logs stay readable.
    """

    def __init__(self, monitor: SweepMonitor, min_interval: float = 0.1) -> None:
        self.monitor = monitor
        self.min_interval = min_interval
        self._last_paint = 0.0
        self._tty = sys.stdout.isatty()

    def __call__(self, event: SweepEvent) -> None:
        self.monitor.emit(event)
        now = time.monotonic()
        if event.kind == "sweep_end":
            if self._tty:
                print("\x1b[H\x1b[J", end="")
            print(self.monitor.render_dashboard())
            return
        if self._tty and now - self._last_paint >= self.min_interval:
            self._last_paint = now
            print("\x1b[H\x1b[J", end="")
            print(self.monitor.render_dashboard())


def _demo_cells(count: int, full: bool = False) -> List[Cell]:
    """The sweep demo: NAS kernels x (baseline, clean) x enough seeds.

    The grid grows seed-wise (8 cells per seed) to at least ``count``
    cells and is truncated to exactly ``count``; the expansion is
    row-major, so the same ``count`` always names the same cells.
    """
    from repro.workloads.nas import FTWorkload, MGWorkload, SPWorkload, UAWorkload

    kernels = (MGWorkload, FTWorkload, SPWorkload, UAWorkload)
    grid = 24 if full else 16
    iterations = 2 if full else 1
    seeds = max(1, math.ceil(count / (len(kernels) * 2)))
    cells = Grid(
        factories=[
            functools.partial(cls, grid=grid, iterations=iterations, threads=4)
            for cls in kernels
        ],
        machines=[machine_a()],
        modes=(PrestoreMode.NONE, PrestoreMode.CLEAN),
        seeds=range(1234, 1234 + seeds),
    ).cells()
    return cells[:count]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Process-pool experiment runner: resumable sweeps, cache tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a demo grid resumably (journal + skip)")
    sweep.add_argument("--cells", type=int, default=64, metavar="N", help="grid size")
    sweep.add_argument("--workers", type=int, default=2)
    sweep.add_argument("--chunk-size", type=int, default=None, help="cells per dispatch chunk")
    sweep.add_argument("--retries", type=int, default=1)
    sweep.add_argument("--full", action="store_true", help="bigger grids (slower)")
    sweep.add_argument("--cache-dir", default=None, help="optional ResultCache directory")
    sweep.add_argument(
        "--journal",
        default="build/sweep-journal.jsonl",
        help="outcome journal path (appended as cells finish)",
    )
    sweep.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore completed cells already in the journal; re-run everything",
    )
    sweep.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N pending cells, then exit 75 if work remains",
    )
    sweep.add_argument("--verbose", action="store_true", help="log per-cell progress")
    sweep.add_argument("--watch", action="store_true", help="live sweep dashboard")
    sweep.add_argument(
        "--monitor-jsonl",
        metavar="PATH",
        default=None,
        help="append the SweepMonitor event stream + summary lines here (JSONL)",
    )

    cache = sub.add_parser("cache", help="inspect, GC, or clear a result cache")
    cache.add_argument("--dir", required=True)
    cache.add_argument("--clear", action="store_true")
    cache.add_argument(
        "--gc",
        action="store_true",
        help="adopt stray payloads, drop orphaned index entries, compact",
    )

    args = parser.parse_args(argv)

    if args.command == "sweep":
        if args.verbose:
            basic_config()
        cells = _demo_cells(args.cells, full=args.full)
        store = ResultCache(args.cache_dir) if args.cache_dir else None
        monitor = None
        events = None
        if args.watch or args.monitor_jsonl:
            monitor = SweepMonitor(progress_path=args.monitor_jsonl, cache=store)
            events = _WatchRenderer(monitor) if args.watch else monitor
        try:
            outcomes = run_grid(
                cells,
                journal=args.journal,
                resume=not args.no_resume,
                limit=args.stop_after,
                events=events,
                workers=args.workers,
                chunk_size=args.chunk_size,
                retries=args.retries,
                cache=store,
            )
        finally:
            if monitor is not None:
                monitor.close()
        resumed = sum(1 for o in outcomes if o.worker == "journal")
        failed = sum(1 for o in outcomes if o.status in ("failed", "timeout"))
        summary = {
            "cells": len(cells),
            "resumed": resumed,
            "executed": len(outcomes) - resumed,
            "cached": sum(1 for o in outcomes if o.cached) - resumed,
            "failed": failed,
            "remaining": len(cells) - len(outcomes),
            "journal": args.journal,
        }
        print(json.dumps(summary, indent=2))
        if args.monitor_jsonl:
            print(f"wrote {args.monitor_jsonl}")
        if summary["remaining"]:
            print(f"{summary['remaining']} cells pending; rerun to resume (exit 75)")
            return EXIT_RESUMABLE
        return 1 if failed else 0

    store = ResultCache(args.dir)
    if args.clear:
        print(f"removed {store.clear()} entries from {args.dir}")
    elif args.gc:
        counts = store.gc()
        stats = store.stats()
        print(json.dumps({"gc": counts, "entries": stats["entries"], "bytes": stats["bytes"]}))
    else:
        stats = store.stats()
        print(f"{args.dir}: {stats['entries']} entries, {stats['bytes']:,} bytes")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
