"""Unit tests for the analysis utilities (ipmctl, tables)."""

import math

import pytest

from repro.analysis.ipmctl import MediaCounters, read_media_counters
from repro.analysis.tables import format_table
from repro.core.prestore import PatchConfig
from repro.workloads.microbench import Listing1


class TestIpmctl:
    def test_counters_from_run(self, tiny_machine_a):
        w = Listing1(element_size=1024, num_elements=128, iterations=200)
        result = w.run(tiny_machine_a, PatchConfig.baseline())
        counters = read_media_counters(result.run)
        assert counters.bytes_received == result.run.device_bytes_received
        assert counters.write_amplification == pytest.approx(
            result.run.write_amplification
        )
        assert "WriteAmplification" in counters.render()

    def test_idle_device_reports_nan(self):
        # Zero-denominator convention (DESIGN.md §9): no bytes, no data.
        assert math.isnan(MediaCounters(0, 0, 0).write_amplification)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["short", 1.25], ["longer-name", 100]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "longer-name" in lines[2]
        assert "1.25" in text
