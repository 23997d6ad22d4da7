"""Timeline ring buffer, sampler wiring, and the ipmctl cross-check."""

import json
import math

import pytest

from repro.analysis.ipmctl import MediaCounters, read_media_counters
from repro.obs.collector import ObsCollector
from repro.obs.sampler import TimelineSampler
from repro.obs.timeline import Timeline, TimelineSample
from repro.workloads.microbench import Listing1
from repro.workloads.x9 import X9Workload


def _sample(t, dt=1.0, **overrides):
    fields = dict(
        t=t,
        dt=dt,
        device_bytes_received=0,
        device_media_bytes_written=0,
        device_bytes_read=0,
        store_buffer_occupancy=(0,),
        combiner_open_entries=0,
        combiner_closes=0,
        cache_accesses=0,
        cache_hits=0,
        fence_stall_cycles=0.0,
        backpressure_stall_cycles=0.0,
        running_write_amplification=1.0,
    )
    fields.update(overrides)
    return TimelineSample(**fields)


class TestTimeline:
    def test_append_requires_increasing_timestamps(self):
        timeline = Timeline(interval=1.0)
        timeline.append(_sample(1.0))
        with pytest.raises(ValueError):
            timeline.append(_sample(1.0))
        with pytest.raises(ValueError):
            timeline.append(_sample(0.5))

    def test_ring_eviction_keeps_cumulative_totals(self):
        timeline = Timeline(interval=1.0, capacity=4)
        for i in range(10):
            timeline.append(_sample(float(i + 1), device_bytes_received=64))
        assert len(timeline) == 4
        assert timeline.dropped == 6
        # Evicted samples stay counted in the exact totals; integrated()
        # covers only the retained window.
        assert timeline.cumulative["device_bytes_received"] == 640
        assert timeline.integrated("device_bytes_received") == 4 * 64

    def test_summary_on_empty_timeline(self):
        assert Timeline(interval=1.0).summary() == {}

    def test_json_round_trip(self):
        timeline = Timeline(interval=2.0, capacity=8)
        for i in range(12):
            timeline.append(_sample(float(2 * (i + 1)), dt=2.0, cache_accesses=3, cache_hits=2))
        restored = Timeline.from_json(timeline.to_json())
        assert restored.interval == timeline.interval
        assert restored.dropped == timeline.dropped
        assert restored.cumulative == timeline.cumulative
        assert [s.to_dict() for s in restored] == [s.to_dict() for s in timeline]


class TestSamplerOnRuns:
    @pytest.fixture(scope="class")
    def obs_run(self, tiny_machine_a_module):
        collector = ObsCollector(interval=200.0, trace=False)
        result = Listing1(iterations=400).run(
            tiny_machine_a_module, seed=3, tracer=collector
        ).run
        return result, collector

    def test_disabled_run_never_invokes_sampler(self, tiny_machine_a, monkeypatch):
        calls = []
        original = TimelineSampler.record
        monkeypatch.setattr(
            TimelineSampler, "record", lambda self, *a: (calls.append(a), original(self, *a))
        )
        result = Listing1(iterations=200).run(tiny_machine_a, seed=3).run
        assert calls == []
        assert result.timeline is None

    def test_timeline_lands_on_result(self, obs_run):
        result, collector = obs_run
        assert result.timeline is collector.timeline
        assert len(result.timeline) > 1

    def test_timestamps_strictly_increasing(self, obs_run):
        result, _ = obs_run
        ts = [s.t for s in result.timeline]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_seeded_runs_sample_deterministically(self, tiny_machine_a):
        def one():
            collector = ObsCollector(interval=200.0, trace=False)
            Listing1(iterations=300).run(tiny_machine_a, seed=11, tracer=collector)
            return [s.to_dict() for s in collector.timeline]

        assert one() == one()

    def test_tail_sample_covers_drain(self, obs_run):
        # The end-of-run store-buffer/combiner drain happens after the last
        # instruction retires; the tail sample must capture it or the
        # integration falls short of the final counters.
        result, _ = obs_run
        assert result.timeline[-1].t >= result.cycles_with_drain

    def test_cross_check_listing1(self, obs_run):
        # Acceptance criterion: integrating the per-interval device bytes
        # reproduces the final ipmctl counters exactly.
        result, _ = obs_run
        assert MediaCounters.from_timeline(result.timeline) == read_media_counters(result)

    def test_cross_check_x9(self, tiny_machine_b):
        collector = ObsCollector(interval=500.0, trace=False)
        result = X9Workload(messages=200).run(tiny_machine_b, seed=5, tracer=collector).run
        assert len(result.timeline) > 1
        assert MediaCounters.from_timeline(result.timeline) == read_media_counters(result)

    def test_cross_check_survives_ring_eviction(self, tiny_machine_a):
        collector = ObsCollector(interval=100.0, capacity=8, trace=False)
        result = Listing1(iterations=400).run(tiny_machine_a, seed=3, tracer=collector).run
        assert collector.timeline.dropped > 0
        assert MediaCounters.from_timeline(result.timeline) == read_media_counters(result)

    def test_summary_consistent_with_final_stats(self, obs_run):
        result, _ = obs_run
        summary = result.timeline.summary()
        assert summary["write_amplification"] == pytest.approx(result.write_amplification)
        assert summary["backpressure_stall_cycles"] == pytest.approx(
            result.total_backpressure_stall_cycles
        )

    def test_sampler_is_single_use(self, tiny_machine_a):
        sampler = TimelineSampler(interval=100.0)
        Listing1(iterations=50).run(tiny_machine_a, seed=3, tracer=sampler)
        with pytest.raises(Exception):
            Listing1(iterations=50).run(tiny_machine_a, seed=3, tracer=sampler)


@pytest.fixture(scope="class")
def tiny_machine_a_module(request):
    # Class-scoped clone of the function-scoped conftest fixture so the
    # seeded reference run is simulated once per class.
    from repro.sim.cache import CacheLevelSpec
    from repro.sim.machine import MachineSpec
    from repro.sim.memory import optane_pmem_spec

    return MachineSpec(
        name="tiny-A",
        line_size=64,
        memory_model="tso",
        cache_levels=(
            CacheLevelSpec(name="L1", size_bytes=16 * 1024, ways=4, hit_latency=4),
            CacheLevelSpec(name="LLC", size_bytes=64 * 1024, ways=8, hit_latency=30, hashed_index=True),
        ),
        device=optane_pmem_spec(),
        replacement_policy="intel-like",
        num_cores=4,
        seed=7,
    )
