"""Figure 3: Listing 1's clean pre-store on Machine A.

(a) runtime improvement vs element size and thread count; (b) write
amplification with and without cleaning.
"""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, Results, by_config
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1

__all__ = ["Fig3Listing1"]

#: CPU work per iteration (rand(), the copy loop, the summation),
#: calibrated so one thread does not saturate the PMEM device — the
#: paper's single-thread regime, where write amplification exists but
#: does not yet cost performance (Section 4.1).
COMPUTE_PER_BYTE = 8


@register
class Fig3Listing1(Experiment):
    id = "fig3"
    title = "Listing 1: clean pre-store vs element size and threads (Machine A)"
    paper_claim = (
        "Cleaning eliminates write amplification entirely; performance "
        "improves by ~2.2x at two threads and up to 3x at five threads for "
        "large elements, with no effect at 64B elements or a single "
        "unsaturated thread."
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        sizes = (64, 1024, 4096) if fast else (64, 256, 512, 1024, 2048, 4096)
        threads = (1, 2, 5)
        # A smaller LLC keeps the steady state reachable for small
        # elements too: iterations are scaled so every configuration
        # dirties several LLCs' worth of data (otherwise the baseline
        # parks everything in the cache and the comparison degenerates).
        llc_kb = 128
        llc_bytes = llc_kb * 1024
        spec = machine_a(llc_kb=llc_kb)
        cells: Cells = {}
        for size in sizes:
            iterations = max(1500 if fast else 3000, 3 * llc_bytes // size)
            for nthreads in threads:
                factory = functools.partial(
                    Listing1,
                    element_size=size,
                    num_elements=max(64, 4 * llc_bytes // size),
                    iterations=iterations,
                    threads=nthreads,
                    compute_per_iter=COMPUTE_PER_BYTE * size,
                )
                for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN):
                    cells[(size, nthreads, mode)] = Cell(factory, spec, mode, seed)
        return cells

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (size, nthreads), runs in by_config(results).items():
            base, clean = runs[PrestoreMode.NONE], runs[PrestoreMode.CLEAN]
            rows.append(
                SeriesRow(
                    {"element_size": size, "threads": nthreads},
                    {
                        "speedup_clean": clean.drained_speedup_over(base),
                        "wa_baseline": base.write_amplification,
                        "wa_clean": clean.write_amplification,
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        # 64B elements: cleaning cannot help (already at the write unit).
        for row in result.rows_where(element_size=64):
            if not 0.8 <= row.metric("speedup_clean") <= 1.4:
                failures.append(f"64B elements should be ~1x, got {row.metrics}")
        # Large elements, many threads: the paper's 2-3x regime.
        for size in (1024, 4096):
            five = result.rows_where(element_size=size, threads=5)
            if five and five[0].metric("speedup_clean") < 1.8:
                failures.append(f"{size}B @5 threads should exceed 1.8x")
            one = result.rows_where(element_size=size, threads=1)
            five_val = five[0].metric("speedup_clean") if five else 0.0
            if one and one[0].metric("speedup_clean") > five_val:
                failures.append(f"{size}B: gains should grow with threads")
        # Cleaning eliminates write amplification for large elements.
        for row in result.rows_where(element_size=4096):
            if row.metric("wa_clean") > 1.2:
                failures.append(f"cleaning should eliminate WA, got {row.metrics}")
            if row.metric("wa_baseline") < 2.0:
                failures.append(f"baseline should amplify writes, got {row.metrics}")
        return failures
