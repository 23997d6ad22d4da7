"""The sweep event bus and fleet monitor: determinism, aggregates, isolation."""

import json
import math

import pytest

from repro.core.prestore import PrestoreMode
from repro.runner import Cell, ResultCache, SweepEvent, SweepMonitor, execute_cells
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1

MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN)


def _listing1_factory():
    return Listing1(element_size=512, num_elements=64, iterations=120)


def _cells(seed=7):
    return [
        Cell(make_workload=_listing1_factory, spec=machine_a(), mode=m, seed=seed)
        for m in MODES
    ]


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _terminal(monitor, index, worker="pid1", wall_s=0.5, status="ok"):
    kind = {"ok": "finish", "cached": "cache_hit"}.get(status, status)
    monitor.emit(SweepEvent(kind=kind, index=index, total=monitor.total, run_id=f"r{index}",
                            worker=worker, status=status, wall_s=wall_s, attempts=1))


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_monitor_changes_no_result_byte(self, workers):
        # The acceptance invariant: attaching a monitor (or --watch) must
        # not change RunResult JSON at any worker count.
        reference = [o.result_json for o in execute_cells(_cells(), workers=1)]
        monitor = SweepMonitor()
        observed = [
            o.result_json
            for o in execute_cells(_cells(), workers=workers, events=monitor)
        ]
        assert observed == reference
        assert monitor.counts["ok"] == len(reference)

    def test_monitor_changes_no_result_byte_reference_path(self, monkeypatch):
        # Same invariant under the per-access reference vocabulary.
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        reference = [o.result_json for o in execute_cells(_cells(), workers=1)]
        monitored = [
            o.result_json
            for o in execute_cells(_cells(), workers=1, events=SweepMonitor())
        ]
        assert monitored == reference

    def test_raising_subscriber_is_detached_not_fatal(self):
        # The isolation rule: telemetry must never fail the science.
        calls = []

        def bad_subscriber(event):
            calls.append(event.kind)
            raise RuntimeError("observer bug")

        outcomes = execute_cells(_cells(), workers=1, events=bad_subscriber)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert calls == ["sweep_begin"]  # detached after the first raise


class TestAggregation:
    def test_live_sweep_counts_and_rates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        monitor = SweepMonitor()
        execute_cells(_cells(), workers=1, cache=cache, events=monitor)
        execute_cells(_cells(), workers=1, cache=cache, events=monitor)  # warm
        assert monitor.sweep_seq == 2
        assert monitor.counts["cached"] == 2
        assert monitor.cache_hit_rate == 1.0
        assert monitor.inflight == 0
        # The warm sweep simulated nothing: per-sweep reset means no sim
        # counters and no worker gauges leak in from the cold sweep.
        assert all(math.isnan(r) for r in monitor.sim_event_rates().values())
        assert monitor.workers == {}
        hist = monitor.registry.get("sweep.cell_wall_s")
        assert hist is None or hist.count == 0

    def test_cold_sweep_reports_sim_event_rates(self):
        monitor = SweepMonitor()
        execute_cells(_cells(), workers=1, events=monitor)
        rates = monitor.sim_event_rates()
        assert rates["writes"] > 0 and rates["reads"] > 0
        snap = monitor.snapshot()
        assert snap["sim_events_per_sec_writes"] > 0
        assert snap["sim_fast_path"] == 1.0
        assert monitor.registry.get("sweep.cell_wall_s").count == 2
        (worker,) = monitor.workers
        assert monitor.worker_utilization()[worker] > 0

    def test_inflight_and_retry_accounting(self):
        clock = _FakeClock()
        monitor = SweepMonitor(clock=clock)
        monitor.emit(SweepEvent(kind="sweep_begin", total=3))
        monitor.emit(SweepEvent(kind="submit", index=0, run_id="r0"))
        monitor.emit(SweepEvent(kind="submit", index=1, run_id="r1"))
        assert monitor.inflight == 2
        # A retry takes the failed attempt out of flight; its resubmission
        # re-emits submit, so the count round-trips to where it was.
        monitor.emit(SweepEvent(kind="retry", index=0, run_id="r0", attempts=1))
        assert monitor.inflight == 1 and monitor.retries == 1
        monitor.emit(SweepEvent(kind="submit", index=0, run_id="r0"))
        assert monitor.inflight == 2
        clock.now += 2.0
        _terminal(monitor, 0, wall_s=1.5)
        _terminal(monitor, 1, wall_s=0.5)
        assert monitor.inflight == 0
        assert monitor.cells_per_sec == 1.0  # 2 cells / 2 fake seconds
        assert monitor.eta_s == 1.0  # 1 remaining at 1 cell/s
        monitor.emit(SweepEvent(kind="sweep_end"))
        assert monitor.elapsed_s == 2.0  # frozen at sweep end

    def test_early_ratios_are_nan(self):
        monitor = SweepMonitor(clock=_FakeClock())
        monitor.emit(SweepEvent(kind="sweep_begin", total=4))
        assert math.isnan(monitor.cells_per_sec)
        assert math.isnan(monitor.cache_hit_rate)
        assert math.isnan(monitor.eta_s)
        # ...and they export as null, never a nan literal (§10).
        snap = monitor.snapshot()
        assert snap["sweep_cells_per_sec"] is None
        assert snap["sweep_cache_hit_rate"] is None

    def test_instant_sweep_renders_dashes_not_inf(self):
        # Regression: a sweep that is 100% cache hits completes with
        # elapsed ~ 0 while done > 0.  cells/s and ETA have no data —
        # they must come out NaN (never inf) and the --watch dashboard
        # must render them as dashes without raising.
        clock = _FakeClock()  # never advanced: elapsed stays 0.0
        monitor = SweepMonitor(clock=clock)
        monitor.emit(SweepEvent(kind="sweep_begin", total=3))
        _terminal(monitor, 0, wall_s=0.0, status="cached")
        _terminal(monitor, 1, wall_s=0.0, status="cached")
        assert monitor.done == 2 and monitor.elapsed_s == 0.0
        assert math.isnan(monitor.cells_per_sec)
        assert math.isnan(monitor.eta_s)  # 1 remaining, no throughput data
        assert monitor.cache_hit_rate == 1.0
        text = monitor.render_dashboard()
        assert "inf" not in text.replace("inflight", "")
        assert "cells/s -" in text
        assert "ETA -" in text
        # ...and the machine-readable exports stay parseable (§10).
        snap = monitor.snapshot()
        assert snap["sweep_cells_per_sec"] is None
        json.dumps(snap, allow_nan=False)

    def test_dashboard_mentions_fleet_numbers(self):
        clock = _FakeClock()
        monitor = SweepMonitor(clock=clock)
        execute_cells(_cells(), workers=1, events=monitor)
        text = monitor.render_dashboard()
        assert "2/2" in text
        assert "cache hit-rate" in text
        assert "workers (cells, busy, util):" in text
        assert "sim events (fast path):" in text
        assert "ETA" in text


class TestProgressFile:
    def test_jsonl_stream_recovers_the_dashboard(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        with SweepMonitor(progress_path=path) as monitor:
            execute_cells(_cells(), workers=1, events=monitor)
            snapshot = monitor.snapshot()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [line["event"] for line in lines]
        assert kinds[0] == "sweep_begin" and kinds[-1] == "summary"
        assert kinds.count("finish") == 2 and kinds.count("submit") == 2
        # The summary line carries the full exported registry: every
        # dashboard number is recoverable from the file after the fact.
        assert lines[-1]["metrics"] == snapshot
        assert lines[-1]["metrics"]["sweep_cells_ok"] == 2.0

    def test_consecutive_sweeps_share_one_file(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        with SweepMonitor(progress_path=path) as monitor:
            execute_cells(_cells(), workers=1, events=monitor)
            execute_cells(_cells(), workers=1, events=monitor)
        sweeps = {json.loads(line)["sweep"] for line in path.read_text().splitlines()}
        assert sweeps == {1, 2}
