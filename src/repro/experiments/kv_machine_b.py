"""Figures 13-14: CLHT and Masstree on Machine B (delayed visibility).

On Machine B there is no granularity mismatch (the FPGA writes at the
CPU line size), so sequentiality buys nothing; pre-storing still helps
because crafted values are published before the index's atomic
instructions instead of "at the last minute" inside them (§7.3.1).
"""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import MACHINES_B, Cells, Results, by_config
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.workloads.kv import CLHTWorkload, MasstreeWorkload, YCSBSpec

__all__ = ["Fig13CLHTMachineB", "Fig14MasstreeMachineB"]

#: Client-side work per request.  It does not set the regime: at this
#: value both B presets are link-bound, not latency-bound.  Line fills
#: cross the link at the device's write bandwidth, so most of a baseline
#: run's cycles are its fills' transfer time.
_OP_OVERHEAD = 2400
_THREADS = 8


class _KVMachineB(Experiment):
    store_cls = CLHTWorkload

    def cells(self, fast: bool, seed: int) -> Cells:
        operations = 1000 if fast else 2000
        factory = functools.partial(
            self.store_cls,
            spec=YCSBSpec(mix="A", num_keys=4096, operations=operations, value_size=1024),
            threads=_THREADS,
            op_overhead_instructions=_OP_OVERHEAD,
        )
        return {
            (machine, mode): Cell(factory, preset(), mode, seed)
            for machine, preset in MACHINES_B
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (machine,), runs in by_config(results).items():
            base, clean = runs[PrestoreMode.NONE], runs[PrestoreMode.CLEAN]
            rows.append(
                SeriesRow(
                    {"machine": machine},
                    {
                        "throughput_baseline": base.throughput(),
                        "throughput_clean": clean.throughput(),
                        "speedup_clean": clean.drained_speedup_over(base),
                        "fence_stall_baseline": base.total_fence_stall_cycles,
                        "fence_stall_clean": clean.total_fence_stall_cycles,
                    },
                )
            )
        notes = [
            "skip (non-temporal) variant omitted, as in the paper: 'Arm CPUs "
            "do not offer standard libraries to implement non-temporal "
            "operations'.",
        ]
        return self._result(rows, notes)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        fast_rows = result.rows_where(machine="B-fast")
        slow_rows = result.rows_where(machine="B-slow")
        if not fast_rows or not slow_rows:
            return ["missing machine rows"]
        fast, slow = fast_rows[0], slow_rows[0]
        if fast.metric("speedup_clean") < 1.1:
            failures.append(f"B-fast: cleaning should clearly help, got {fast.metrics}")
        if fast.metric("speedup_clean") < slow.metric("speedup_clean") - 0.02:
            failures.append("pre-storing should be most useful on the fast FPGA (paper §7.3.1)")
        for row in (fast, slow):
            if row.metric("fence_stall_clean") >= row.metric("fence_stall_baseline"):
                failures.append(f"{row.config['machine']}: cleaning should cut fence stalls")
        return failures


@register
class Fig13CLHTMachineB(_KVMachineB):
    id = "fig13"
    store_cls = CLHTWorkload
    title = "CLHT on Machine B-fast / B-slow, 1KB values"
    paper_claim = (
        "Pre-storing (clean) is ~52% faster on B-fast; gains are largest "
        "on the fast FPGA because the memory ordering instructions happen "
        "soon after writing; profiling shows the time in the lock's atomics "
        "drops sharply."
    )


@register
class Fig14MasstreeMachineB(_KVMachineB):
    id = "fig14"
    store_cls = MasstreeWorkload
    title = "Masstree on Machine B-fast / B-slow, 1KB values"
    paper_claim = (
        "Pre-storing is ~25% faster on B-fast; the version-validation "
        "fences (Listing 7) stop stalling on the crafted values."
    )
