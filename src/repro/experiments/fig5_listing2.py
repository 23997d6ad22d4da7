"""Figure 5: Listing 2's demote pre-store before a fence on Machine B."""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, MACHINES_B, Results, by_config, safe_ratio
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.workloads.microbench import Listing2

__all__ = ["Fig5Listing2"]


@register
class Fig5Listing2(Experiment):
    id = "fig5"
    title = "Listing 2: demote before a fence vs interposed reads (Machine B)"
    paper_claim = (
        "Demotion gives no gain with zero reads before the fence, peaks in "
        "between (up to ~65% in the paper), and decays once reads dominate; "
        "the higher the FPGA latency, the larger the useful window (the "
        "peak sits at more reads on B-slow than on B-fast)."
    )

    READ_COUNTS_FAST_MODE = (0, 5, 20, 40, 80, 160)
    READ_COUNTS_FULL = (0, 2, 5, 10, 20, 40, 80, 160, 320)

    def cells(self, fast: bool, seed: int) -> Cells:
        counts = self.READ_COUNTS_FAST_MODE if fast else self.READ_COUNTS_FULL
        iterations = 1500 if fast else 3000
        return {
            (machine, nreads, mode): Cell(
                functools.partial(Listing2, reads_before_fence=nreads, iterations=iterations),
                preset(),
                mode,
                seed,
            )
            for machine, preset in MACHINES_B
            for nreads in counts
            for mode in (PrestoreMode.NONE, PrestoreMode.DEMOTE)
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (machine, nreads), runs in by_config(results).items():
            base, demote = runs[PrestoreMode.NONE], runs[PrestoreMode.DEMOTE]
            improvement = safe_ratio(base.cycles - demote.cycles, base.cycles)
            rows.append(
                SeriesRow(
                    {"machine": machine, "reads_before_fence": nreads},
                    {"improvement_pct": 100.0 * improvement},
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        for machine in ("B-fast", "B-slow"):
            series = result.rows_where(machine=machine)
            series.sort(key=lambda r: r.config["reads_before_fence"])
            values = [r.metric("improvement_pct") for r in series]
            if abs(values[0]) > 8.0:
                failures.append(f"{machine}: ~0% improvement expected at 0 reads, got {values[0]:.0f}%")
            peak = max(values)
            if peak < 25.0:
                failures.append(f"{machine}: peak improvement should be substantial, got {peak:.0f}%")
            if values[-1] >= peak - 5.0:
                failures.append(f"{machine}: improvement should decay after the peak")
        fast_rows = result.rows_where(machine="B-fast")
        slow_rows = result.rows_where(machine="B-slow")
        if fast_rows and slow_rows:
            peak_at = lambda rows: max(rows, key=lambda r: r.metric("improvement_pct")).config[
                "reads_before_fence"
            ]
            if peak_at(slow_rows) < peak_at(fast_rows):
                failures.append("B-slow's peak should sit at more reads than B-fast's")
        return failures
