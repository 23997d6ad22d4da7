"""Sweep-scale observability: the runner's event bus and fleet monitor.

:func:`~repro.runner.pool.execute_cells` emits a :class:`SweepEvent` at
every lifecycle edge of every cell — sweep begin/end, cache hit, submit
(≈ start: for pooled cells the parent cannot see the worker pick the
job up, so submission is the observable start), finish, retry, timeout,
failure, and quarantine after a pool break — to whatever callable is
passed as its ``events=`` seam.  The seam is deliberately minimal (one
callable, plain-data events, emission *after* the result bytes exist)
so the future sharded sweep service (ROADMAP open item 2) can feed the
same events over a socket without touching the pool.

:class:`SweepMonitor` is the reference subscriber: it aggregates the
event stream into a fleet :class:`~repro.obs.metrics.MetricsRegistry`
(cells by status, attempts/retries, per-worker utilisation, cell-latency
histogram, cache hit-rate, throughput and ETA, per-kind simulator event
rates), renders a live TTY dashboard (``--watch`` on the runner CLI),
and can append a JSONL progress file for headless runs — one line per
event plus a final ``summary`` line holding the exported registry, so
every dashboard number is recoverable from the file afterwards.

Two hard rules keep the monitor honest:

* **Determinism** — the monitor only ever *reads* outcomes; attaching
  one changes no ``RunResult`` byte at any worker count (the acceptance
  invariant, enforced by ``tests/test_sweep_monitor.py``).
* **Isolation** — a raising subscriber must not take the sweep down;
  the pool wraps emission and logs instead of propagating.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.obs.export import export_snapshot, render_jsonl
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.cache import ResultCache
    from repro.runner.pool import CellOutcome

__all__ = ["SweepEvent", "SweepMonitor", "EVENT_KINDS"]

_log = get_logger("monitor")

#: Every lifecycle edge the pool emits, in rough temporal order.
EVENT_KINDS = (
    "sweep_begin",
    "cache_hit",
    "submit",
    "finish",
    "retry",
    "timeout",
    "failed",
    "quarantine",
    "sweep_end",
)

#: Simulator vocabulary kinds surfaced as per-kind event rates, read off
#: the per-core counters every ``RunResult`` already carries (so the
#: monitor needs no obs collector inside the workers).
_SIM_KINDS = ("reads", "writes", "nontemporal_writes", "fences", "atomics", "prestores")

#: Cell wall-clock latency buckets (seconds).
_LATENCY_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


@dataclass(frozen=True)
class SweepEvent:
    """One lifecycle edge of one cell (or of the sweep itself)."""

    kind: str
    #: Cell position in the sweep (-1 for sweep_begin/sweep_end).
    index: int = -1
    total: int = 0
    run_id: str = ""
    worker: str = ""
    #: Outcome status for terminal cell events ("ok"/"cached"/...).
    status: str = ""
    wall_s: float = 0.0
    attempts: int = 0
    error: Optional[str] = None
    #: The full outcome, attached to terminal events only.  Carried for
    #: subscribers; never serialised into the JSONL stream wholesale.
    outcome: Optional["CellOutcome"] = field(default=None, compare=False, repr=False)


class SweepMonitor:
    """Aggregate a sweep's event stream into fleet metrics.

    Pass the instance straight as ``execute_cells(..., events=monitor)``
    — it is callable.  One monitor may observe several consecutive
    sweeps (the bench harness runs three); per-sweep state resets on
    each ``sweep_begin`` while the JSONL file keeps appending with an
    incrementing ``sweep`` sequence number.

    ``clock`` is injectable for tests (defaults to
    :func:`time.monotonic`); everything the monitor measures is *host*
    wall time — simulated time stays untouched.
    """

    def __init__(
        self,
        progress_path: Union[str, Path, None] = None,
        clock: Callable[[], float] = time.monotonic,
        cache: Optional["ResultCache"] = None,
    ) -> None:
        self.clock = clock
        self.progress_path = Path(progress_path) if progress_path is not None else None
        self._fh: Optional[IO[str]] = None
        self.sweep_seq = 0
        self.events_seen = 0
        #: Optional ResultCache whose hit/miss/evict counters are folded
        #: into every published snapshot (set by the bench/CLI harness).
        self.cache = cache
        self._reset_sweep(total=0)

    # -- per-sweep state -----------------------------------------------------

    def _reset_sweep(self, total: int) -> None:
        # A fresh registry per sweep: histograms and per-worker gauges
        # must not leak between consecutive sweeps observed by one
        # monitor (the bench harness runs three back to back).
        self.registry = MetricsRegistry()
        self.total = total
        self.started_at = self.clock()
        self.finished_at: Optional[float] = None
        self.counts: Dict[str, int] = {k: 0 for k in ("ok", "cached", "failed", "timeout")}
        self.retries = 0
        self.quarantined = 0
        self.attempts = 0
        self.inflight = 0
        #: worker tag -> [cells, busy seconds]; "cache" never appears.
        self.workers: Dict[str, List[float]] = {}
        self.sim_counts: Dict[str, int] = {k: 0 for k in _SIM_KINDS}
        self.sim_instructions = 0
        self.sim_wall_s = 0.0
        self.serving_ops = 0
        self.serving_violations = 0

    @property
    def done(self) -> int:
        return sum(self.counts.values())

    @property
    def elapsed_s(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.clock()
        return max(0.0, end - self.started_at)

    @property
    def cells_per_sec(self) -> float:
        elapsed = self.elapsed_s
        return self.done / elapsed if elapsed > 0 and self.done else float("nan")

    @property
    def cache_hit_rate(self) -> float:
        if self.done == 0:
            return float("nan")
        return self.counts["cached"] / self.done

    @property
    def eta_s(self) -> float:
        """Remaining wall time at the observed throughput (NaN early)."""
        remaining = self.total - self.done
        rate = self.cells_per_sec
        if remaining <= 0:
            return 0.0
        if math.isnan(rate) or rate <= 0:
            return float("nan")
        return remaining / rate

    def worker_utilization(self) -> Dict[str, float]:
        """Busy-fraction per worker: simulated wall seconds / elapsed."""
        elapsed = self.elapsed_s
        if elapsed <= 0:
            return {w: float("nan") for w in self.workers}
        return {w: busy / elapsed for w, (_cells, busy) in sorted(self.workers.items())}

    def sim_event_rates(self) -> Dict[str, float]:
        """Simulated events per host second, per vocabulary kind.

        Derived from the per-core counters of freshly-simulated cells
        (cache hits simulate nothing and are excluded).  NaN before the
        first simulated cell lands, per the §10 convention.
        """
        if self.sim_wall_s <= 0:
            return {k: float("nan") for k in _SIM_KINDS}
        return {k: v / self.sim_wall_s for k, v in self.sim_counts.items()}

    # -- event intake --------------------------------------------------------

    def emit(self, event: SweepEvent) -> None:
        self.events_seen += 1
        if event.kind == "sweep_begin":
            self.sweep_seq += 1
            self._reset_sweep(total=event.total)
        elif event.kind == "submit":
            self.inflight += 1
        elif event.kind == "retry":
            # The failed attempt is no longer in flight; the follow-up
            # submission (pool and inline both re-emit "submit") re-adds it.
            self.retries += 1
            self.inflight = max(0, self.inflight - 1)
        elif event.kind == "quarantine":
            self.quarantined += 1
            self.inflight = max(0, self.inflight - 1)
        elif event.kind in ("finish", "cache_hit", "timeout", "failed"):
            self._terminal(event)
        elif event.kind == "sweep_end":
            self.finished_at = self.clock()
        self._publish()
        self._append_progress(event)

    __call__ = emit

    def _terminal(self, event: SweepEvent) -> None:
        status = event.status or {
            "finish": "ok", "cache_hit": "cached", "timeout": "timeout", "failed": "failed",
        }[event.kind]
        self.counts[status] = self.counts.get(status, 0) + 1
        self.attempts += event.attempts
        if event.kind != "cache_hit":
            self.inflight = max(0, self.inflight - 1)
        if status in ("ok", "cached"):
            completed = event.outcome
            if completed is not None and completed.result is not None:
                self._fold_serving(completed.result)
        if status == "ok":
            self.registry.histogram(
                "sweep.cell_wall_s", bounds=_LATENCY_BOUNDS,
                help="wall-clock latency of freshly simulated cells (s)",
            ).observe(event.wall_s)
            stats = self.workers.setdefault(event.worker, [0, 0.0])
            stats[0] += 1
            stats[1] += event.wall_s
            outcome = event.outcome
            if outcome is not None and outcome.result is not None and event.wall_s > 0:
                self.sim_wall_s += event.wall_s
                self.sim_instructions += outcome.result.instructions
                for core in outcome.result.cores:
                    for kind in _SIM_KINDS:
                        self.sim_counts[kind] += getattr(core, kind)

    def _fold_serving(self, result: object) -> None:
        """Fold one cell's ``extra["serving"]`` aggregates fleet-wide.

        Cached outcomes count too — the serving panel describes the
        sweep's *results*, not how they were obtained.  The per-cell
        latency histograms merge into one fleet histogram when every
        cell shares the same SLO-scaled bucket bounds; a sweep mixing
        SLO configurations keeps the op/violation counters but refuses
        the silent re-bucketing a merge would imply.
        """
        serving = getattr(result, "extra", {}).get("serving")
        if not isinstance(serving, dict):
            return
        self.serving_ops += int(serving.get("ops_completed") or 0)
        self.serving_violations += int(serving.get("slo_violations") or 0)
        doc = serving.get("histogram")
        if not isinstance(doc, dict):
            return
        bounds = tuple(float(b) for b in doc.get("bounds", ()))
        counts = doc.get("counts", ())
        if not bounds or len(counts) != len(bounds) + 1:
            return
        hist = self.registry.histogram(
            "serving.latency_cycles",
            bounds=bounds,
            help="request latency across the sweep's serving cells (cycles)",
        )
        if hist.bounds != bounds:
            return
        folded = 0
        for i, n in enumerate(counts):
            hist.bucket_counts[i] += int(n)
            folded += int(n)
        hist.count += folded
        mean = serving.get("latency_mean")
        if isinstance(mean, (int, float)):
            # The extra carries mean, not sum; reconstructing keeps the
            # fleet histogram's own mean meaningful.
            hist.total += float(mean) * folded

    # -- registry publication ------------------------------------------------

    def _publish(self) -> None:
        reg = self.registry
        reg.gauge("sweep.seq", help="1-based sweep sequence number").set(self.sweep_seq)
        reg.gauge("sweep.cells_total", help="cells in the current sweep").set(self.total)
        reg.gauge("sweep.inflight", help="cells submitted but not finished").set(self.inflight)
        for status, count in sorted(self.counts.items()):
            reg.gauge(f"sweep.cells_{status}", help=f"cells that ended {status}").set(count)
        reg.gauge("sweep.retries", help="retry attempts across the sweep").set(self.retries)
        reg.gauge("sweep.quarantined", help="cells quarantined after pool breaks").set(
            self.quarantined
        )
        reg.gauge("sweep.attempts", help="execution attempts consumed").set(self.attempts)
        reg.gauge("sweep.elapsed_s", help="host seconds since sweep begin").set(self.elapsed_s)
        reg.gauge("sweep.cells_per_sec", help="finished cells per host second").set(
            self.cells_per_sec
        )
        reg.gauge("sweep.cache_hit_rate", help="cached / finished").set(self.cache_hit_rate)
        reg.gauge("sweep.eta_s", help="estimated host seconds to completion").set(self.eta_s)
        for worker, util in self.worker_utilization().items():
            reg.gauge(
                f"sweep.worker.{worker}.utilization",
                help="busy fraction: simulated wall seconds / elapsed",
            ).set(util)
            reg.gauge(f"sweep.worker.{worker}.cells", help="cells simulated by this worker").set(
                self.workers[worker][0]
            )
        from repro.workloads.memapi import _default_streams

        reg.gauge("sim.fast_path", help="1 when the batched stream vocabulary is active").set(
            0.0 if not _default_streams() else 1.0
        )
        if self.sim_wall_s > 0:
            reg.gauge(
                "sim.instructions_per_sec", help="simulated instructions per host second"
            ).set(self.sim_instructions / self.sim_wall_s)
        for kind, rate in sorted(self.sim_event_rates().items()):
            reg.gauge(
                f"sim.events_per_sec.{kind}",
                help="simulated events of this vocabulary kind per host second",
            ).set(rate)
        if self.serving_ops:
            reg.gauge(
                "serving.ops", help="completed serving requests across the sweep"
            ).set(self.serving_ops)
            reg.gauge(
                "serving.slo_violations", help="serving requests over their SLO"
            ).set(self.serving_violations)
        if self.cache is not None:
            self.cache.publish_metrics(reg)

    def snapshot(self) -> Dict[str, object]:
        """The exported (sanitised, NaN→null) fleet metrics view."""
        return export_snapshot(self.registry)

    # -- JSONL progress file -------------------------------------------------

    def _append_progress(self, event: SweepEvent) -> None:
        if self.progress_path is None:
            return
        if self._fh is None:
            self.progress_path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.progress_path.open("a")
        doc: Dict[str, object] = {
            "event": event.kind,
            "sweep": self.sweep_seq,
            "t_s": round(self.elapsed_s, 6),
        }
        if event.index >= 0:
            doc.update(index=event.index, run_id=event.run_id)
        if event.kind in ("finish", "cache_hit", "timeout", "failed"):
            doc.update(
                status=event.status,
                worker=event.worker,
                wall_s=round(event.wall_s, 6),
                attempts=event.attempts,
                done=self.done,
                total=self.total,
            )
            if event.error:
                doc["error"] = event.error
        if event.kind == "sweep_begin":
            doc["total"] = event.total
        self._fh.write(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")
        if event.kind == "sweep_end":
            summary = {"event": "summary", "sweep": self.sweep_seq, "metrics": self.snapshot()}
            self._fh.write(json.dumps(summary, sort_keys=True, allow_nan=False) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepMonitor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- rendering -----------------------------------------------------------

    def render_dashboard(self, width: int = 72) -> str:
        """The ``--watch`` TTY view: progress bar + fleet aggregates."""

        def fmt(value: float, suffix: str = "") -> str:
            # Dash on *any* non-finite ratio, not just NaN: an instant
            # sweep (100% cache hits, elapsed ~ 0) must never print inf.
            return f"{value:,.2f}{suffix}" if math.isfinite(value) else "-"

        done, total = self.done, self.total
        frac = done / total if total else 0.0
        bar_w = max(10, width - 24)
        filled = int(round(frac * bar_w))
        bar = "#" * filled + "-" * (bar_w - filled)
        lines = [
            f"sweep {self.sweep_seq}  [{bar}] {done}/{total} ({frac:6.1%})",
            (
                f"  ok {self.counts['ok']}  cached {self.counts['cached']}  "
                f"failed {self.counts['failed']}  timeout {self.counts['timeout']}  "
                f"inflight {self.inflight}  retries {self.retries}  "
                f"quarantined {self.quarantined}"
            ),
            (
                f"  elapsed {self.elapsed_s:7.2f}s   cells/s {fmt(self.cells_per_sec)}   "
                f"ETA {fmt(self.eta_s, 's')}   cache hit-rate {fmt(self.cache_hit_rate)}"
            ),
        ]
        if self.workers:
            lines.append("  workers (cells, busy, util):")
            for worker, util in self.worker_utilization().items():
                cells, busy = self.workers[worker]
                lines.append(
                    f"    {worker:>10s}  {int(cells):4d}  {busy:7.2f}s  {fmt(util)}"
                )
        if self.cache is not None:
            cs = self.cache.stats()
            lines.append(
                f"  cache: {cs['entries']} entries  {cs['bytes']:,}B  "
                f"hits {cs['hits']}  misses {cs['misses']}  evictions {cs['evictions']}"
            )
        rates = self.sim_event_rates()
        if not all(math.isnan(r) for r in rates.values()):
            path = "fast" if self.registry.gauge("sim.fast_path").value == 1.0 else "reference"
            pairs = "  ".join(f"{k} {fmt(v, '/s')}" for k, v in sorted(rates.items()))
            lines.append(f"  sim events ({path} path): {pairs}")
        if self.serving_ops:
            line = (
                f"  serving: {self.serving_ops} ops  "
                f"SLO violations {self.serving_violations}"
            )
            hist = self.registry.get("serving.latency_cycles")
            if hist is not None and getattr(hist, "count", 0):
                line += (
                    f"  latency p50 {fmt(hist.quantile(0.5))}  "
                    f"p99 {fmt(hist.quantile(0.99))}  p999 {fmt(hist.quantile(0.999))}"
                )
            lines.append(line)
        return "\n".join(lines)

    def render_openmetrics(self) -> str:
        """OpenMetrics exposition of the fleet registry (scrapeable)."""
        from repro.obs.export import render_openmetrics

        return render_openmetrics(self.registry)

    def render_jsonl(self) -> str:
        return render_jsonl(self.registry, extra={"sweep": self.sweep_seq})

