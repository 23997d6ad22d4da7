"""Unit tests for the visibility model and run statistics."""

import math

import pytest

from repro.sim.coherence import VisibilityModel
from repro.sim.memory import MemoryDevice, dram_spec, fpga_spec
from repro.sim.stats import CoreStats, RunResult


class TestVisibilityModel:
    def test_device_directory_dominates(self):
        model = VisibilityModel()
        fpga = MemoryDevice(fpga_spec(read_latency=200, bandwidth=1.0))
        cached = model.visibility_latency(fpga, line_cached_exclusive=True)
        uncached = model.visibility_latency(fpga, line_cached_exclusive=False)
        assert cached >= 200  # directory round trip
        assert uncached >= 400  # directory + line fill

    def test_sram_directory_when_not_device_resident(self):
        model = VisibilityModel()
        dram = MemoryDevice(dram_spec())
        latency = model.visibility_latency(dram, line_cached_exclusive=True)
        assert latency == model.sram_directory_latency + model.local_publish_latency

    def test_latency_scales_with_device(self):
        model = VisibilityModel()
        fast = MemoryDevice(fpga_spec(read_latency=60, bandwidth=5.0))
        slow = MemoryDevice(fpga_spec(read_latency=200, bandwidth=0.75))
        assert model.visibility_latency(slow, False) > model.visibility_latency(fast, False)


def _result(**overrides):
    defaults = dict(
        machine_name="m",
        cycles=1000.0,
        cycles_with_drain=1200.0,
        instructions=500,
        cores=[CoreStats(core_id=0, cycles=1000.0, fence_stall_cycles=50.0)],
        cache_hits={"L1": 10},
        cache_misses={"L1": 2},
        cache_evictions={"L1": 1},
        cache_dirty_evictions={"L1": 1},
        device_writebacks=10,
        device_bytes_received=640,
        device_media_bytes_written=1280,
        device_reads=3,
        device_bytes_read=192,
        work_items=100,
    )
    defaults.update(overrides)
    return RunResult(**defaults)


class TestRunResult:
    def test_write_amplification(self):
        assert _result().write_amplification == 2.0
        assert math.isnan(_result(device_bytes_received=0).write_amplification)

    def test_throughput_prefers_drained_cycles(self):
        result = _result()
        assert result.throughput() == pytest.approx(1000.0 * 100 / 1200.0)
        assert result.throughput(with_drain=False) == pytest.approx(1000.0 * 100 / 1000.0)

    def test_speedups(self):
        fast = _result(cycles=500.0, cycles_with_drain=600.0)
        slow = _result()
        assert fast.speedup_over(slow) == 2.0
        assert fast.drained_speedup_over(slow) == 2.0

    def test_stall_aggregation(self):
        assert _result().total_fence_stall_cycles == 50.0

    def test_summary_is_readable(self):
        text = _result().summary()
        assert "WA=2.00x" in text and "m:" in text


class TestMachinePresets:
    """The paper's platforms (Section 3) plus the CXL forecast."""

    def test_all_presets_validate(self):
        from repro.sim.machine import (
            machine_a,
            machine_a_cxl,
            machine_b_fast,
            machine_b_slow,
            machine_dram,
        )

        for factory in (machine_a, machine_a_cxl, machine_b_fast, machine_b_slow, machine_dram):
            spec = factory()
            spec.validate()

    def test_negative_backlog_limit_rejected(self):
        """A negative limit stalls every store that finds any backlog."""
        import dataclasses

        from repro.errors import ConfigurationError
        from repro.sim.machine import Machine, machine_a

        spec = dataclasses.replace(machine_a(), backlog_limit_cycles=-10.0)
        with pytest.raises(ConfigurationError, match="backlog limit"):
            spec.validate()
        with pytest.raises(ConfigurationError):
            Machine(spec)
        dataclasses.replace(machine_a(), backlog_limit_cycles=0.0).validate()

    def test_machine_a_matches_paper(self):
        from repro.sim.machine import machine_a

        spec = machine_a()
        assert spec.line_size == 64
        assert spec.memory_model == "tso"
        assert spec.device.internal_granularity == 256  # Optane

    def test_machine_b_matches_paper(self):
        from repro.sim.machine import machine_b_fast, machine_b_slow

        fast, slow = machine_b_fast(), machine_b_slow()
        assert fast.line_size == slow.line_size == 128
        assert fast.memory_model == "weak"
        assert fast.device.read_latency == 60 and slow.device.read_latency == 200
        # B-fast: 10GB/s at ~2GHz = 5 B/cyc; B-slow: 1.5GB/s = 0.75 B/cyc.
        assert fast.device.bandwidth_bytes_per_cycle == 5.0
        assert slow.device.bandwidth_bytes_per_cycle == 0.75
        # No granularity mismatch on machine B (Section 6.2.3).
        assert fast.device.internal_granularity == fast.line_size

    def test_cxl_preset_amplifies_harder(self, tiny_machine_a):
        from repro.core.prestore import PatchConfig
        from repro.sim.machine import machine_a_cxl
        from repro.workloads.microbench import Listing1

        w = Listing1(element_size=1024, num_elements=512, iterations=400, threads=2)
        run = w.run(machine_a_cxl(granularity=512), PatchConfig.baseline()).run
        assert run.write_amplification > 3.0  # up to 8x possible at 512B
