"""Figures 7 and 8: TensorFlow training with pre-stored tensor writes.

One sweep feeds both figures: Figure 7 plots the performance improvement
of cleaning vs skipping over batch size; Figure 8 plots the write
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
from repro.workloads.tensorflow_sim import TensorFlowWorkload

__all__ = ["Fig7TensorFlow", "Fig8TensorFlowWA", "tensorflow_cells"]

_BATCHES_FAST_MODE = (1, 64, 250)
_BATCHES_FULL = (1, 16, 32, 64, 128, 250)


def tensorflow_cells(fast: bool, seed: int) -> Cells:
    """The TensorFlow batch-size sweep, keyed ``(batch, mode)``.

    Figures 7 and 8 come from the same runs in the paper; both
    experiments declare these cells, so they run once.
    """
    batches = _BATCHES_FAST_MODE if fast else _BATCHES_FULL
    return {
        (batch, mode): Cell(
            functools.partial(
                TensorFlowWorkload, batch_size=batch, iterations=2, threads=4, large_tensor_kb=96
            ),
            machine_a(),
            mode,
            seed,
        )
        for batch in batches
        for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN, PrestoreMode.SKIP)
    }


@register
class Fig7TensorFlow(Experiment):
    id = "fig7"
    title = "TensorFlow: clean vs skip over batch size (Machine A)"
    paper_claim = (
        "Cleaning improves training by up to 47% at batch size 1, dropping "
        "to ~20% at large batches; skipping the cache is the wrong choice "
        "(the evaluator re-reads freshly written packets), as DirtBuster "
        "predicted."
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        return tensorflow_cells(fast, seed)

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (batch,), runs in by_config(results).items():
            base = runs[PrestoreMode.NONE]
            rows.append(
                SeriesRow(
                    {"batch_size": batch},
                    {
                        "improvement_clean_pct": 100.0
                        * (runs[PrestoreMode.CLEAN].drained_speedup_over(base) - 1.0),
                        "improvement_skip_pct": 100.0
                        * (runs[PrestoreMode.SKIP].drained_speedup_over(base) - 1.0),
                    },
                )
            )
        notes = [
            "deviation: in the paper skipping loses ~20% vs the unmodified "
            "baseline; here it stays above baseline (our simulator credits "
            "NT stores with the avoided read-for-ownership traffic) but "
            "remains below cleaning, preserving DirtBuster's ranking."
        ]
        return self._result(rows, notes)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        rows = sorted(result.rows, key=lambda r: r.config["batch_size"])
        first, last = rows[0], rows[-1]
        if first.metric("improvement_clean_pct") < 25.0:
            failures.append("cleaning should help substantially at batch 1")
        if first.metric("improvement_clean_pct") <= last.metric("improvement_clean_pct"):
            failures.append("cleaning gains should shrink as batch size grows")
        for row in rows:
            if row.metric("improvement_skip_pct") > row.metric("improvement_clean_pct"):
                failures.append(
                    f"clean should beat skip (DirtBuster's advice) at batch "
                    f"{row.config['batch_size']}"
                )
        return failures


@register
class Fig8TensorFlowWA(Experiment):
    id = "fig8"
    title = "TensorFlow: write amplification with and without cleaning"
    paper_claim = (
        "Without cleaning, write amplification is ~3.7x; cleaning the one "
        "patched evaluator function drops it to ~2.7x (other writers remain "
        "non-sequential, so it does not reach 1x)."
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        return tensorflow_cells(fast, seed)

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (batch,), runs in by_config(results).items():
            rows.append(
                SeriesRow(
                    {"batch_size": batch},
                    {
                        "wa_baseline": runs[PrestoreMode.NONE].write_amplification,
                        "wa_clean": runs[PrestoreMode.CLEAN].write_amplification,
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        for row in result.rows:
            base, clean = row.metric("wa_baseline"), row.metric("wa_clean")
            if base < 3.0:
                failures.append(f"baseline WA should be ~3.7x, got {base:.2f}")
            if clean >= base:
                failures.append("cleaning should reduce WA")
            if clean < 1.5:
                failures.append(
                    "cleaning one function should NOT eliminate WA entirely "
                    f"(other writers remain), got {clean:.2f}"
                )
        return failures
