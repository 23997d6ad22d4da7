"""Perfetto/Chrome trace export: format validity, tracks, flow events."""

import json

import pytest

from repro.obs.collector import ObsCollector
from repro.obs.trace import TraceBuilder
from repro.workloads.microbench import Listing1
from repro.workloads.x9 import X9Workload


@pytest.fixture(scope="module")
def x9_trace(tiny_machine_b_module):
    collector = ObsCollector(interval=500.0, trace=True)
    X9Workload(messages=120).run(tiny_machine_b_module, seed=5, tracer=collector)
    return json.loads(collector.trace.to_json())


@pytest.fixture(scope="module")
def tiny_machine_b_module():
    from repro.sim.cache import CacheLevelSpec
    from repro.sim.machine import MachineSpec
    from repro.sim.memory import fpga_spec

    return MachineSpec(
        name="tiny-B",
        line_size=128,
        memory_model="weak",
        cache_levels=(
            CacheLevelSpec(name="L1", size_bytes=16 * 1024, ways=4, hit_latency=4),
            CacheLevelSpec(name="L2", size_bytes=64 * 1024, ways=8, hit_latency=24, hashed_index=True),
        ),
        device=fpga_spec(read_latency=100, bandwidth=2.0, line_size=128),
        replacement_policy="arm-like",
        num_cores=4,
        seed=7,
    )


class TestTraceFormat:
    def test_loads_cleanly_and_has_events(self, x9_trace):
        assert isinstance(x9_trace["traceEvents"], list)
        assert len(x9_trace["traceEvents"]) > 0
        assert x9_trace["otherData"]["generator"] == "repro.obs"

    def test_every_event_is_well_formed(self, x9_trace):
        for event in x9_trace["traceEvents"]:
            assert {"ph", "pid", "ts"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_metadata_names_cores_and_device(self, x9_trace):
        meta = [e for e in x9_trace["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert "cores" in names
        assert any(n.startswith("device") for n in names)
        threads = [e for e in meta if e["name"] == "thread_name"]
        assert any(e["args"]["name"].startswith("core") for e in threads)

    def test_counter_tracks_present(self, x9_trace):
        counters = {e["name"] for e in x9_trace["traceEvents"] if e["ph"] == "C"}
        assert "media write bandwidth (B/cyc)" in counters
        assert "store-buffer occupancy" in counters
        assert "write amplification" in counters

    def test_store_visibility_flows_paired(self, x9_trace):
        # X9's producer CAS has fence semantics, so the store→visibility
        # flow arrows must close: every started flow id also finishes.
        starts = {e["id"] for e in x9_trace["traceEvents"] if e["ph"] == "s"}
        finishes = {e["id"] for e in x9_trace["traceEvents"] if e["ph"] == "f"}
        assert starts
        assert finishes
        assert finishes <= starts
        for e in x9_trace["traceEvents"]:
            if e["ph"] == "f":
                assert e.get("bp") == "e"

    def test_file_write_round_trips(self, tmp_path, tiny_machine_a):
        collector = ObsCollector(interval=300.0, trace=True)
        Listing1(iterations=100).run(tiny_machine_a, seed=3, tracer=collector)
        path = tmp_path / "run.trace.json"
        collector.write_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]


class TestTraceBuilderLimits:
    def test_event_cap_drops_not_raises(self, tiny_machine_a):
        builder = TraceBuilder(max_events=50)
        Listing1(iterations=200).run(tiny_machine_a, seed=3, tracer=builder)
        doc = builder.to_dict()
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) <= 50
        assert doc["otherData"]["dropped_events"] > 0
