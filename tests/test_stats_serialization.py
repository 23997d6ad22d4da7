"""RunResult/Diagnostic JSON round-trips and the derived-ratio NaN convention."""

import math

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.errors import Diagnostic
from repro.obs.collector import ObsCollector
from repro.obs.timeline import TimelineSample
from repro.sanitize import Sanitizer
from repro.sim.cache import CacheStats
from repro.sim.event import CodeSite
from repro.sim.machine import machine_a
from repro.sim.stats import CoreStats, RunResult
from repro.workloads.memapi import Program
from repro.workloads.microbench import Listing3


def _sample(**overrides):
    fields = dict(
        t=10.0,
        dt=10.0,
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


class TestNaNConvention:
    """One test per derived ratio (DESIGN.md §9): zero denominator -> NaN."""

    def test_ipc_nan_on_zero_cycles(self):
        assert math.isnan(CoreStats(core_id=0).ipc)
        assert CoreStats(core_id=0, cycles=10.0, instructions=5).ipc == 0.5

    def test_hit_rate_nan_on_zero_accesses(self):
        stats = CacheStats()
        assert math.isnan(stats.hit_rate)
        stats.hits, stats.misses = 3, 1
        assert stats.hit_rate == 0.75

    def test_throughput_nan_on_zero_cycles(self):
        result = _empty_result(cycles=0.0, cycles_with_drain=0.0)
        assert math.isnan(result.throughput())
        live = _empty_result(cycles=500.0, cycles_with_drain=1000.0, work_items=2)
        assert live.throughput() == 2.0
        assert live.throughput(with_drain=False) == 4.0

    def test_sample_cache_hit_rate_nan_on_zero_accesses(self):
        assert math.isnan(_sample().cache_hit_rate)
        assert _sample(cache_accesses=4, cache_hits=3).cache_hit_rate == 0.75

    def test_sample_bandwidth_nan_on_zero_interval(self):
        assert math.isnan(_sample(dt=0.0).device_write_bandwidth)
        assert _sample(device_media_bytes_written=640).device_write_bandwidth == 64.0

    def test_write_amplification_nan_on_zero_bytes(self):
        assert math.isnan(_empty_result().write_amplification)
        live = _empty_result()
        live.device_bytes_received = 128
        live.device_media_bytes_written = 256
        assert live.write_amplification == 2.0


def _empty_result(cycles=0.0, cycles_with_drain=0.0, work_items=0) -> RunResult:
    return RunResult(
        machine_name="m",
        cycles=cycles,
        cycles_with_drain=cycles_with_drain,
        instructions=0,
        cores=[],
        cache_hits={},
        cache_misses={},
        cache_evictions={},
        cache_dirty_evictions={},
        device_writebacks=0,
        device_bytes_received=0,
        device_media_bytes_written=0,
        device_reads=0,
        device_bytes_read=0,
        work_items=work_items,
    )


class TestDiagnosticSerialization:
    def test_round_trip_with_sites(self):
        diag = Diagnostic(
            rule="race.visibility",
            severity="error",
            message="racy publish",
            site=CodeSite(function="fill_msg", file="x9.c", line=201, ip=7),
            related=(CodeSite(function="reader", file="x9.c", line=310, ip=9),),
            addr=0x1000,
            cache_line=64,
            core_id=2,
            instr_index=17,
            count=3,
        )
        restored = Diagnostic.from_dict(diag.to_dict())
        assert restored == diag

    def test_round_trip_without_sites(self):
        diag = Diagnostic(rule="static.dropped-event", severity="warning", message="m")
        restored = Diagnostic.from_dict(diag.to_dict())
        assert restored == diag
        assert restored.site is None
        assert restored.related == ()


class TestRunResultSerialization:
    def test_synthetic_round_trip(self):
        result = _empty_result(cycles=10.0, cycles_with_drain=20.0, work_items=1)
        result.cores = [CoreStats(core_id=0, cycles=10.0, instructions=7)]
        result.cache_hits = {"L1": 5}
        result.extra = {"custom": 1.5}
        restored = RunResult.from_json(result.to_json())
        assert restored == result

    def test_real_run_round_trip_with_diagnostics_and_timeline(self):
        # Listing 3 patched clean under a sanitizer and an obs collector
        # exercises every optional field at once: diagnostics with
        # CodeSites (the hot-rewrite lint fires) and a populated timeline.
        patches = PatchConfig()
        patches.set_mode(Listing3.SITE.name, PrestoreMode.CLEAN)
        program = Program(machine_a(num_cores=2), tracer=Sanitizer(), seed=3)
        program.machine.attach_observer(ObsCollector())
        Listing3(iterations=2000).spawn(program, patches)
        result = program.run()
        assert result.diagnostics
        assert result.timeline is not None
        restored = RunResult.from_json(result.to_json())
        assert restored.machine_name == result.machine_name
        assert restored.cycles == result.cycles
        assert restored.cores == result.cores
        assert restored.diagnostics == result.diagnostics
        assert len(restored.timeline) == len(result.timeline)
        assert restored.timeline.cumulative == result.timeline.cumulative
        assert [s.to_dict() for s in restored.timeline] == [
            s.to_dict() for s in result.timeline
        ]
        # And the whole document survives a second pass unchanged.
        assert RunResult.from_json(restored.to_json()).to_dict() == restored.to_dict()
