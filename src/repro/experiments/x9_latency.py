"""Section 7.3.2: X9 message-passing latency with a demote pre-store."""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import MACHINES_B, Cells, Results, by_config, safe_ratio
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.workloads.x9 import X9Workload

__all__ = ["X9Latency"]


@register
class X9Latency(Experiment):
    id = "x9"
    title = "X9: message latency with demoted messages (Machine B)"
    paper_claim = (
        "Demoting the filled message before the CAS cuts message latency by "
        "62% on B-fast and 40% on B-slow: the message reaches the shared L2 "
        "in the background instead of at the last minute inside the CAS."
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        messages = 1500 if fast else 4000
        factory = functools.partial(X9Workload, messages=messages)
        return {
            (machine, messages, mode): Cell(factory, preset(), mode, seed)
            for machine, preset in MACHINES_B
            for mode in (PrestoreMode.NONE, PrestoreMode.DEMOTE)
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (machine, messages), runs in by_config(results).items():
            base, demote = runs[PrestoreMode.NONE], runs[PrestoreMode.DEMOTE]
            rows.append(
                SeriesRow(
                    {"machine": machine},
                    {
                        "cycles_per_message_baseline": safe_ratio(base.cycles, messages),
                        "cycles_per_message_demote": safe_ratio(demote.cycles, messages),
                        "latency_reduction_pct": 100.0
                        * (1.0 - safe_ratio(demote.cycles, base.cycles)),
                        "fence_stall_baseline": base.total_fence_stall_cycles,
                        "fence_stall_demote": demote.total_fence_stall_cycles,
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        for row in result.rows:
            reduction = row.metric("latency_reduction_pct")
            if reduction < 15.0:
                failures.append(
                    f"{row.config['machine']}: demote should cut latency "
                    f"substantially, got {reduction:.0f}%"
                )
            if row.metric("fence_stall_demote") >= row.metric("fence_stall_baseline"):
                failures.append(f"{row.config['machine']}: demote should cut CAS stalls")
        return failures
