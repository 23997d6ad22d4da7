"""Tests for the bench-e2e harness: ``PYTHONPATH=src python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import signal
import time

import pytest

from benchmarks.e2e import child, harness, hostspeed, spans
from benchmarks.e2e.compare import compare, verdict
from benchmarks.e2e.spans import Span, SpanRecorder, layer_metrics, self_times
from benchmarks.e2e.workloads import WORKLOADS, BenchWorkload

from repro.experiments import registry
from repro.experiments.registry import Experiment, SeriesRow

_PROBE = WORKLOADS["fence_events"].probe


def _tiny(*experiments: str) -> BenchWorkload:
    return BenchWorkload(name="tiny", experiments=experiments, probe=_PROBE)


def _setups(*seconds: float) -> list:
    return [{"setup_s": s, "raw_setup_s": s, "slowdown": 1.0} for s in seconds]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        Span("experiments.run", 0.0, 10.0),
        Span("runner.execute_cells", 1.0, 3.0, parent=0),
        Span("runner.execute_cells", 4.0, 6.0, parent=0),
        Span("sim.drain", 2.5, 2.75, parent=1),  # grandchild: not the root's business
    ]
    assert self_times(recorded) == pytest.approx([6.0, 1.75, 2.0, 0.25])


def test_recorded_spans_nest_and_give_self_times():
    recorder = SpanRecorder()
    with recorder.span("experiments.run"):
        with recorder.span("sim.run"):
            pass
    root, inner = recorder.spans
    assert inner.parent == 0 and root.start <= inner.start <= inner.end <= root.end
    assert sum(self_times(recorder.spans)) == pytest.approx(root.end - root.start)


def test_layer_metrics_attribute_every_second_once():
    recorded = [
        Span("experiments.run", 0.0, 10.0),
        Span("runner.execute_cells", 1.0, 9.0, parent=0, counts={"cells": 3, "cache_hits": 1}),
        Span("workloads.run", 2.0, 8.5, parent=1),
        Span(
            "sim.run",
            3.0,
            8.0,
            parent=2,
            counts={"events": 50, "media_bytes_written": 96, "device_bytes_received": 64},
        ),
        Span("sim.drain", 7.0, 8.0, parent=3),
    ]
    got = layer_metrics(recorded)
    assert got["experiments.self_s"] == pytest.approx(2.0)
    assert got["runner.self_s"] == pytest.approx(1.5)
    assert got["workloads.self_s"] == pytest.approx(1.5)
    assert got["sim.self_s"] == pytest.approx(4.0)
    assert got["sim.drain_s"] == pytest.approx(1.0)
    assert (got["runner.cells"], got["runner.cache_hits"], got["sim.runs"]) == (3, 1, 1)
    assert got["sim.events_per_s"] == pytest.approx(12.5)
    assert got["model.write_amplification"] == pytest.approx(1.5)
    assert got["dirtbuster.feed_us_per_record"] == 0.0
    self_total = sum(got[m] for m, (_n, what) in spans.LAYER_METRICS.items() if what == "self")
    assert self_total == pytest.approx(10.0)


class _Base:
    def method(self):
        return "base"


class _Derived(_Base):
    @classmethod
    def make(cls):
        return cls.__name__


def test_recorder_wraps_and_restores_inherited_methods_and_classmethods():
    make_before = vars(_Derived)["make"]
    recorder = SpanRecorder()
    recorder.wrap(_Derived, "method", "experiments.check")
    recorder.wrap(_Derived, "make", "runner.serialize", lambda a, k, r: {"chars": len(r)})
    assert _Derived().method() == "base" and _Derived.make() == "_Derived"
    assert [s.name for s in recorder.spans] == ["experiments.check", "runner.serialize"]
    assert recorder.spans[1].counts == {"chars": 8}
    recorder.restore()
    assert "method" not in vars(_Derived)
    assert vars(_Derived)["make"] is make_before


def _layer_callables():
    import repro.faults.harness
    import repro.runner
    import repro.traffic.serving
    from repro.runner.cache import ResultCache
    from repro.sim.machine import Machine
    from repro.sim.stats import RunResult
    from repro.workloads.base import Workload
    from repro.workloads.memapi import Program

    return [
        repro.runner.execute_cells,
        repro.traffic.serving.compile_schedule,
        repro.faults.harness.run_with_faults,
        vars(ResultCache)["load"],
        vars(RunResult)["from_json"],
        vars(Workload)["run"],
        vars(Program)["run"],
        vars(Machine)["finish"],
    ]


def test_traced_tiny_pass_restores_wrappers_and_emits_every_metric(tmp_path):
    from repro.experiments.x9_latency import X9Latency

    before = _layer_callables()
    bench = _tiny("listing3", "x9")
    plain = child.run_pass(bench, 1234, str(tmp_path / "a"))
    traced = child.run_pass(bench, 1234, str(tmp_path / "b"), str(tmp_path / "spans.jsonl"))
    assert _layer_callables() == before
    assert "check" in vars(X9Latency) and not hasattr(vars(X9Latency)["check"], "__wrapped__")
    assert plain["rows_digest"] == traced["rows_digest"]
    assert plain["stream_identity"] and not plain["errors"]
    assert (tmp_path / "spans.jsonl").read_text().count("\n") > 4
    assert plain["wall_s"] == pytest.approx(
        plain["raw_wall_s"] / plain["slowdown"] ** hostspeed.SENSITIVITY
    )
    assert traced["slowdown"] is None and traced["raw_wall_s"] == traced["wall_s"]

    spec = harness.load_spec()
    report = harness.summarise(bench, 1234, [plain], _setups(0.3, 0.2, 0.4))
    assert report["correct"] and report["attempted"] == 2 and report["failed"] == 0
    untraced_line = harness.result_line(report, spec)
    assert {name: m["unit"] for name, m in untraced_line["metrics"].items()} == {
        name: entry["unit"] for name, entry in spec["end_to_end"].items()
    }
    assert untraced_line["metrics"]["setup_s"]["value"] == pytest.approx(0.3)
    traced_report = harness.summarise(bench, 1234, [traced], _setups(0.3))
    traced_line = harness.result_line(traced_report, spec)
    assert set(traced_line["metrics"]) == set(spec["per_layer"])
    assert traced["layers"]["sim.runs"] == 6 and traced["layers"]["sim.events"] > 0
    assert traced_report["values"]["trace.attributed_share"] == pytest.approx(1.0, abs=0.05)
    assert 0.0 <= traced_report["values"]["trace.overhead"] < 0.05


class _FailsCheck(Experiment):
    id = "stub-fails-check"

    def run(self, fast=True, seed=1234):
        return self._result([SeriesRow({"x": 1}, {"y": 2.0})])

    def check(self, result):
        return ["y should be 3"]


class _Raises(Experiment):
    id = "stub-raises"

    def run(self, fast=True, seed=1234):
        raise RuntimeError("boom")


def test_failed_share_counts_failed_checks_and_raising_experiments(tmp_path, monkeypatch):
    for cls in (_FailsCheck, _Raises):
        monkeypatch.setitem(registry._REGISTRY, cls.id, cls)
    bench = _tiny("stub-fails-check", "listing3", "stub-raises")
    record = child.run_pass(bench, 1234, str(tmp_path))
    assert record["shape_failed"] == ["stub-fails-check"]
    assert record["errors"] == ["stub-raises: RuntimeError: boom"]
    report = harness.summarise(bench, 1234, [record], _setups(0.1))
    assert report["values"]["experiments.failed_share"] == pytest.approx(2 / 3)
    assert report["failed"] == 1 and report["correct"]
    assert report["shape_failed"] == ["stub-fails-check"]


def test_mismatched_rows_make_the_report_incorrect(tmp_path):
    bench = _tiny("listing3")
    record = child.run_pass(bench, 1234, str(tmp_path))
    other = dict(record, rows_digest="0" * 16)
    report = harness.summarise(bench, 1234, [record, other], _setups(0.1))
    assert not report["correct"]
    assert any("rows differ" in p for p in report["problems"])


def test_setup_only_child_reports_ready_and_no_record(tmp_path):
    setup, record = harness._child("fence_events", 1, tmp_path, "--setup-only")
    assert 0.0 < setup["setup_s"] < 30.0 and 0.0 < setup["raw_setup_s"] < 30.0
    assert setup["slowdown"] > 0 and record is None
    assert list(tmp_path.iterdir()) == []


def test_reference_seconds_takes_out_the_slices_and_scales_by_their_mean():
    slices = [2 * hostspeed.REFERENCE_SLICE_S] * 4  # the loop ran at half speed
    ref_s, slowdown = hostspeed.reference_seconds(10.0, slices)
    assert slowdown == pytest.approx(2.0)
    assert ref_s == pytest.approx((10.0 - sum(slices)) / 2.0**hostspeed.SENSITIVITY)
    assert hostspeed.reference_seconds(3.0, []) == (3.0, 1.0)


def test_host_clock_interleaves_slices_and_restores_the_timer():
    before = signal.getsignal(signal.SIGPROF)
    with hostspeed.HostClock() as clock:
        started = clock.mark()
        deadline = time.process_time() + 0.2
        while time.process_time() < deadline:
            pass
        wall_s, ref_s, slowdown = clock.since(started)
    assert len(clock.slices) >= 3
    assert wall_s > 0 and ref_s > 0 and slowdown > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_a_stretch_without_slices_gets_one():
    with hostspeed.HostClock() as clock:
        _wall_s, _ref_s, slowdown = clock.since(clock.mark())
    assert len(clock.slices) == 1 and slowdown > 0


_STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
_NOISY = [7.0, 13.0] * 5


@pytest.mark.parametrize(
    "a, b, better, floor, expected",
    [
        ([10.0] * 10, [13.0] * 10, "lower", 0.0, "regression"),
        (_STEADY, [8.0] * 10, "lower", 0.0, "improved"),
        (_STEADY, [10.05] * 10, "lower", 0.0, "unchanged"),
        ([10.0] * 10, [9.0] * 8 + [11.0] * 2, "lower", 0.0, "unresolved"),
        (_NOISY, [10.0] * 10, "lower", 0.0, "unresolved"),
        (_NOISY, [x + 3.0 for x in _NOISY], "lower", 0.0, "unresolved"),
        (_NOISY, [2 * x for x in _NOISY], "lower", 0.0, "regression"),  # every B run is worse
        ([10.0] * 10, [12.0] * 10, "higher", 0.0, "improved"),
        ([10.0], [9.0], "lower", 0.0, "unresolved"),  # too few pairs to claim a gain
        ([0.3] * 10, [0.39] * 10, "lower", 0.1, "unchanged"),  # +30 % but under the floor
        ([0.3] * 10, [0.45] * 10, "lower", 0.1, "regression"),
    ],
)
def test_compare_verdicts(a, b, better, floor, expected):
    assert verdict(a, b, better, bound=0.2, floor=floor) == expected


def _report(traced, digest, wall_s):
    return {
        "workload": "w",
        "seed": 1,
        "traced": traced,
        "rows_digest": digest,
        "samples": {
            "wall_s": [wall_s],
            "setup_s": [0.3],
            "peak_rss_mb": [40.0],
            "experiments.failed_share": [0.0],
        },
        "values": {"model.cycles": 5.0},
    }


def test_compare_times_untraced_runs_and_matches_rows_of_every_run():
    parent = [_report(False, "r", 10.0), _report(True, "r", 30.0)]
    rows, ok = compare(parent, [_report(False, "r", 10.1)])
    assert ok
    assert [row[2] for row in rows if row[1] == "wall_s"] == ["1/1"]
    assert not compare(parent, [_report(False, "other", 10.1)])[1]
    assert not compare(parent + [_report(True, "other", 30.0)], [_report(False, "r", 10.1)])[1]
