"""Table 1: internal read/write granularities of the modelled devices."""

from __future__ import annotations

from typing import List

from repro.experiments.common import Results
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.sim.memory import cxl_ssd_spec, dram_spec, fpga_spec, optane_pmem_spec

__all__ = ["Table1Devices"]


@register
class Table1Devices(Experiment):
    id = "table1"
    title = "Device internal granularities (Table 1)"
    paper_claim = (
        "Devices internally read and write at different granularities: "
        "Intel CPU 64B, ThunderX ARM CPU 128B, Optane PMEM 256B, CXL SSD "
        "256B/512B."
    )

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows = [
            SeriesRow({"device": "Intel CPU cache line"}, {"granularity_bytes": 64}),
            SeriesRow({"device": "ThunderX ARM cache line"}, {"granularity_bytes": 128}),
            SeriesRow(
                {"device": dram_spec().name},
                {"granularity_bytes": dram_spec().internal_granularity},
            ),
            SeriesRow(
                {"device": optane_pmem_spec().name},
                {"granularity_bytes": optane_pmem_spec().internal_granularity},
            ),
            SeriesRow(
                {"device": cxl_ssd_spec(256).name},
                {"granularity_bytes": cxl_ssd_spec(256).internal_granularity},
            ),
            SeriesRow(
                {"device": cxl_ssd_spec(512).name},
                {"granularity_bytes": cxl_ssd_spec(512).internal_granularity},
            ),
            SeriesRow(
                {"device": fpga_spec(60, 5.0).name},
                {"granularity_bytes": fpga_spec(60, 5.0).internal_granularity},
            ),
        ]
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures = []
        expected = {"Optane-PMEM": 256, "CXL-SSD-256B": 256, "CXL-SSD-512B": 512, "DRAM": 64}
        for name, gran in expected.items():
            rows = result.rows_where(device=name)
            if not rows or rows[0].metric("granularity_bytes") != gran:
                failures.append(f"{name} should have {gran}B internal granularity")
        return failures
