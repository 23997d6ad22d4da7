"""Section 7.4: the overhead of pre-stores where they do not help.

Two experiments:

* ``sec741`` — DirtBuster-suggested pre-stores on an architecture that
  does not benefit (NAS / TensorFlow on Machine B): the overhead should
  be negligible ("the maximum overhead was limited to 0.3%").
* ``sec742`` — incorrect *manual* pre-stores DirtBuster declined:
  cleaning FT's hot ``fftz2`` scratch (~3x slowdown in the paper) and
  cleaning IS's randomly-written ``rank`` buckets (no effect).
"""

from __future__ import annotations

import functools
from typing import List

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.experiments.common import Cells, Results, by_config, safe_ratio
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.nas import FTWorkload, ISWorkload, MGWorkload, SPWorkload
from repro.workloads.tensorflow_sim import TensorFlowWorkload

__all__ = ["Sec741SuggestedOverhead", "Sec742ManualMisuse"]


@register
class Sec741SuggestedOverhead(Experiment):
    id = "sec741"
    title = "DirtBuster-suggested pre-stores on Machine B: overhead only"
    paper_claim = (
        "NAS and TensorFlow gain nothing on Machine B (no granularity "
        "mismatch, no fences), but following DirtBuster's recommendations "
        "there costs at most ~0.3%: correctly placed pre-stores are "
        "essentially free."
    )

    CASES = (
        ("nas-mg", functools.partial(MGWorkload, grid=24, iterations=2, threads=4)),
        ("nas-sp", functools.partial(SPWorkload, grid=20, iterations=2, threads=4)),
        (
            "tensorflow",
            functools.partial(
                TensorFlowWorkload, batch_size=16, iterations=1, threads=4, large_tensor_kb=64
            ),
        ),
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        return {
            (name, mode): Cell(factory, machine_b_fast(), mode, seed)
            for name, factory in self.CASES
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (name,), runs in by_config(results).items():
            base, clean = runs[PrestoreMode.NONE], runs[PrestoreMode.CLEAN]
            overhead = safe_ratio(clean.cycles_with_drain, base.cycles_with_drain) - 1.0
            rows.append(
                SeriesRow({"workload": name}, {"overhead_pct": 100.0 * overhead})
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures = []
        for row in result.rows:
            overhead = row.metric("overhead_pct")
            if overhead > 5.0:
                failures.append(
                    f"{row.config['workload']}: suggested pre-stores should be "
                    f"nearly free on Machine B, got +{overhead:.1f}%"
                )
        return failures


@register
class Sec742ManualMisuse(Experiment):
    id = "sec742"
    title = "Incorrect manual pre-stores DirtBuster declined (Machine A)"
    paper_claim = (
        "Cleaning FT's fftz2 scratch (small, constantly re-read/re-written) "
        "costs ~3x; cleaning IS's randomly-written rank buckets has no "
        "effect; DirtBuster recommends neither."
    )

    CASES = (
        # FT: clean the hot fftz2 scratch only (the manual mistake).
        ("nas-ft", "ft.fftz2", functools.partial(FTWorkload, grid=24, iterations=1, threads=4)),
        # IS: clean the randomly-written buckets.  One ranking pass, as in
        # the measured NPB iteration: each bucket line is written about
        # once, so the data is "neither re-read nor re-written" and the
        # pre-store can neither help nor hurt.
        ("nas-is", "is.rank", functools.partial(ISWorkload, grid=24, iterations=1, threads=4)),
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        spec = machine_a()
        return {
            (name, site, mode): Cell(factory, spec, None, seed, patches=PatchConfig({site: mode}))
            for name, site, factory in self.CASES
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (name, site), runs in by_config(results).items():
            base, bad = runs[PrestoreMode.NONE], runs[PrestoreMode.CLEAN]
            rows.append(
                SeriesRow(
                    {"workload": name, "patched_site": site},
                    {"slowdown": safe_ratio(bad.cycles_with_drain, base.cycles_with_drain)},
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        ft = result.rows_where(workload="nas-ft")
        if not ft or ft[0].metric("slowdown") < 1.5:
            got = ft[0].metric("slowdown") if ft else 0.0
            failures.append(f"cleaning fftz2 should cost >=1.5x (paper ~3x), got {got:.2f}x")
        is_rows = result.rows_where(workload="nas-is")
        if is_rows and not 0.8 <= is_rows[0].metric("slowdown") <= 1.3:
            failures.append(
                f"cleaning IS rank should have little effect, got "
                f"{is_rows[0].metric('slowdown'):.2f}x"
            )
        return failures
