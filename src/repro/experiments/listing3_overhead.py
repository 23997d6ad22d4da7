"""Section 5: the pre-store anti-pattern (Listing 3).

Cleaning a constantly rewritten cache line forces every rewrite out to
memory: "pre-stores result in a 75x slowdown — an unsurprising result,
equivalent to the ratio between the latency of writing to memory vs.
writing to the cache."
"""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, Results, safe_ratio
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing3

__all__ = ["Listing3Overhead"]


@register
class Listing3Overhead(Experiment):
    id = "listing3"
    title = "Listing 3: cleaning a hot line (the anti-pattern, Machine A)"
    paper_claim = (
        "Cleaning a frequently-rewritten line causes an order(s)-of-"
        "magnitude slowdown (75x in the paper) — the ratio between memory "
        "and cache write latency.  DirtBuster does not recommend it."
    )

    def _iterations(self, fast: bool) -> int:
        return 3000 if fast else 10000

    def cells(self, fast: bool, seed: int) -> Cells:
        factory = functools.partial(Listing3, iterations=self._iterations(fast))
        return {
            mode: Cell(factory, machine_a(), mode, seed, endorsed_only=False)  # deliberate misuse
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        iterations = self._iterations(fast)
        base, clean = results[PrestoreMode.NONE], results[PrestoreMode.CLEAN]
        rows = [
            SeriesRow(
                {"variant": "baseline"},
                {"cycles_per_iteration": safe_ratio(base.cycles, iterations)},
            ),
            SeriesRow(
                {"variant": "clean"},
                {
                    "cycles_per_iteration": safe_ratio(clean.cycles, iterations),
                    "slowdown": safe_ratio(clean.cycles, base.cycles),
                },
            ),
        ]
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        clean_rows = result.rows_where(variant="clean")
        if not clean_rows:
            return ["missing clean row"]
        slowdown = clean_rows[0].metric("slowdown")
        if slowdown < 20.0:
            return [f"hot-line cleaning should slow down by >=20x, got {slowdown:.0f}x"]
        return []
