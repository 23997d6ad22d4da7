"""Figures 10-12: CLHT and Masstree under YCSB-A on Machine A.

One sweep per store over value sizes feeds three figures: Figure 10
(CLHT throughput), Figure 11 (Masstree throughput) and Figure 12 (CLHT
write amplification).
"""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, Results, by_config
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.sim.machine import machine_a
from repro.workloads.kv import CLHTWorkload, MasstreeWorkload, YCSBSpec

__all__ = ["Fig10CLHT", "Fig11Masstree", "Fig12CLHTWA", "kv_cells"]

_VALUE_SIZES_FAST_MODE = (256, 1024, 4096)
_VALUE_SIZES_FULL = (64, 128, 256, 1024, 4096)
_MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN, PrestoreMode.SKIP)


def kv_cells(store: str, fast: bool, seed: int) -> Cells:
    """YCSB-A value-size sweep for one store on Machine A, keyed ``(value_size, mode)``.

    Figures 10 and 12 both declare the CLHT sweep, so it runs once.
    """
    cls = CLHTWorkload if store == "clht" else MasstreeWorkload
    sizes = _VALUE_SIZES_FAST_MODE if fast else _VALUE_SIZES_FULL
    operations = 1200 if fast else 2400
    cells: Cells = {}
    for value_size in sizes:
        spec = YCSBSpec(mix="A", num_keys=8192, operations=operations, value_size=value_size)
        factory = functools.partial(cls, spec=spec, threads=4)
        for mode in _MODES:
            cells[(value_size, mode)] = Cell(factory, machine_a(), mode, seed)
    return cells


class _KVThroughput(Experiment):
    """Shared shape for Figures 10 and 11."""

    store = "clht"

    def cells(self, fast: bool, seed: int) -> Cells:
        return kv_cells(self.store, fast, seed)

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (value_size,), runs in by_config(results).items():
            base = runs[PrestoreMode.NONE]
            rows.append(
                SeriesRow(
                    {"value_size": value_size},
                    {
                        "throughput_baseline": base.throughput(),
                        "throughput_clean": runs[PrestoreMode.CLEAN].throughput(),
                        "throughput_skip": runs[PrestoreMode.SKIP].throughput(),
                        "speedup_clean": runs[PrestoreMode.CLEAN].drained_speedup_over(base),
                        "speedup_skip": runs[PrestoreMode.SKIP].drained_speedup_over(base),
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        rows = sorted(result.rows, key=lambda r: r.config["value_size"])
        for row in rows:
            size = row.config["value_size"]
            clean, skip = row.metric("speedup_clean"), row.metric("speedup_skip")
            if size >= 1024:
                if clean < 1.3:
                    failures.append(f"{size}B: cleaning should give a large gain, got {clean:.2f}x")
                if skip < clean:
                    failures.append(f"{size}B: skipping should beat cleaning, got {skip:.2f} vs {clean:.2f}")
        big = rows[-1]
        if big.metric("speedup_skip") < 1.8:
            failures.append("largest values should approach the paper's ~2.5-2.9x skip gain")
        return failures


@register
class Fig10CLHT(_KVThroughput):
    id = "fig10"
    store = "clht"
    title = "CLHT under YCSB-A: requests/s vs value size (Machine A)"
    paper_claim = (
        "Skipping the cache is up to 2.9x faster than baseline, cleaning up "
        "to 2.3x; gains appear once values exceed the CPU line size and "
        "grow with value size; skip > clean > baseline."
    )


@register
class Fig11Masstree(_KVThroughput):
    id = "fig11"
    store = "masstree"
    title = "Masstree under YCSB-A: requests/s vs value size (Machine A)"
    paper_claim = (
        "Skipping is up to 2.5x faster than baseline, cleaning up to 1.9x; "
        "ordering and growth with value size as for CLHT."
    )


@register
class Fig12CLHTWA(Experiment):
    id = "fig12"
    title = "CLHT under YCSB-A: write amplification (Machine A)"
    paper_claim = (
        "Baseline write amplification reaches ~3.8x once values exceed the "
        "PMEM internal line (256B); skipping and cleaning both eliminate it "
        "for large values; at 128B it is roughly halved."
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        return kv_cells("clht", fast, seed)

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (value_size,), runs in by_config(results).items():
            rows.append(
                SeriesRow(
                    {"value_size": value_size},
                    {
                        "wa_baseline": runs[PrestoreMode.NONE].write_amplification,
                        "wa_clean": runs[PrestoreMode.CLEAN].write_amplification,
                        "wa_skip": runs[PrestoreMode.SKIP].write_amplification,
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        for row in result.rows:
            size = row.config["value_size"]
            if size >= 1024:
                if row.metric("wa_baseline") < 2.5:
                    failures.append(f"{size}B: baseline WA should be large, got {row.metrics}")
                if row.metric("wa_clean") > 1.3 or row.metric("wa_skip") > 1.3:
                    failures.append(f"{size}B: clean/skip should eliminate WA, got {row.metrics}")
        return failures
