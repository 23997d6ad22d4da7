"""Figure 9: normalized runtime of the NAS benchmarks with pre-stores."""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, Results, by_config, safe_ratio
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.sim.machine import machine_a
from repro.workloads.nas import BTWorkload, FTWorkload, MGWorkload, SPWorkload, UAWorkload

__all__ = ["Fig9NAS"]


@register
class Fig9NAS(Experiment):
    id = "fig9"
    title = "NAS benchmarks: normalized runtime with clean pre-stores (Machine A)"
    paper_claim = (
        "Pre-storing the DirtBuster-endorsed matrices (MG, FT, SP, UA, BT) "
        "is up to 40% faster; normalized runtime (prestore/baseline) drops "
        "below 1.0 for every patched kernel."
    )

    KERNELS = (MGWorkload, FTWorkload, SPWorkload, UAWorkload, BTWorkload)

    def cells(self, fast: bool, seed: int) -> Cells:
        grid = 32 if fast else 48
        return {
            (kernel_cls.name, mode): Cell(
                functools.partial(kernel_cls, grid=grid, iterations=2, threads=4),
                machine_a(),
                mode,
                seed,
                endorsed_only=True,  # fftz2 and friends stay unpatched
            )
            for kernel_cls in self.KERNELS
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (benchmark,), runs in by_config(results).items():
            base, clean = runs[PrestoreMode.NONE], runs[PrestoreMode.CLEAN]
            rows.append(
                SeriesRow(
                    {"benchmark": benchmark},
                    {
                        "normalized_runtime": safe_ratio(
                            clean.cycles_with_drain, base.cycles_with_drain
                        ),
                        "wa_baseline": base.write_amplification,
                        "wa_clean": clean.write_amplification,
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        for row in result.rows:
            norm = row.metric("normalized_runtime")
            if norm >= 1.0:
                failures.append(f"{row.config['benchmark']}: pre-store should help, got {norm:.2f}")
            if norm < 0.3:
                failures.append(
                    f"{row.config['benchmark']}: gain implausibly large ({norm:.2f})"
                )
            if row.metric("wa_clean") > row.metric("wa_baseline"):
                failures.append(f"{row.config['benchmark']}: cleaning should reduce WA")
        return failures
