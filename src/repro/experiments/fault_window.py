"""The crash-vulnerable dirty window: what a mid-run power failure costs.

The paper's mechanism moves dirty data down the hierarchy *proactively*;
the flip side is durability: between an acknowledged operation and its
bytes reaching the persistence domain there is a window in which a crash
loses acked work.  This experiment measures that window directly with
:mod:`repro.faults` — a KV store is crashed part-way through its op
stream under each pre-store mode, and recovery counts what an
acknowledged-persisted client would have lost.

``clean`` (clwb + sfence before the ack) and ``skip`` (NT stores +
sfence) must lose *nothing* acked at any crash point; the unprotected
baseline loses whatever the caches still held, which is exactly the
window pre-stores shrink.

Cells carry a :class:`~repro.faults.plan.FaultPlan` and execute through
the ordinary runner pool — the crash report rides inside
``RunResult.extra["fault_report"]``, so this sweep caches and shards
like any other.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, Results
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.faults.plan import CrashPoint, FaultPlan
from repro.faults.workloads import KVPersistWorkload
from repro.runner import Cell
from repro.sim.machine import machine_a

__all__ = ["FaultsWindow"]

_MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN, PrestoreMode.SKIP)


@register
class FaultsWindow(Experiment):
    id = "faults-window"
    title = "Crash-vulnerable window: acked KV data lost at a power failure (Machine A)"
    paper_claim = (
        "Pre-stores shrink the crash-vulnerable dirty window: with clean "
        "(clwb+sfence) or skip (NT stores) before the ack no acknowledged "
        "operation is lost at any crash point, while the unprotected "
        "baseline loses acked work and leaves dirty bytes stranded in the "
        "cache hierarchy."
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        fractions = (0.5,) if fast else (0.25, 0.5, 0.75)
        operations = 160 if fast else 320
        spec = machine_a()
        cells: Cells = {}
        for fraction, mode in itertools.product(fractions, _MODES):
            probe = KVPersistWorkload(operations=operations)
            events = probe.operations * probe.events_per_op(spec.line_size, mode)
            at = max(1, int(events * fraction))
            cells[(fraction, mode)] = Cell(
                functools.partial(KVPersistWorkload, operations=operations),
                spec,
                mode,
                seed,
                fault_plan=FaultPlan(crash=CrashPoint(at_instruction=at)),
            )
        return cells

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (fraction, mode), run in results.items():
            report: Dict[str, object] = run.extra["fault_report"]  # type: ignore[assignment]
            recovery: Dict[str, object] = report["recovery"]  # type: ignore[assignment]
            image: Dict[str, object] = report["image_summary"]  # type: ignore[assignment]
            rows.append(
                SeriesRow(
                    {"crash_frac": fraction, "mode": mode.value},
                    {
                        "acked": float(recovery["acked"]),  # type: ignore[arg-type]
                        "lost_acked": float(recovery["lost_count"]),  # type: ignore[arg-type]
                        "vulnerable_lines": float(image["lost_lines"]),  # type: ignore[arg-type]
                        "vulnerable_bytes": float(image["vulnerable_bytes"]),  # type: ignore[arg-type]
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []
        for row in result.rows:
            mode = row.config["mode"]
            frac = row.config["crash_frac"]
            if mode in ("clean", "skip"):
                if row.metric("lost_acked") > 0:
                    failures.append(
                        f"frac {frac}, {mode}: persist protocol lost "
                        f"{row.metric('lost_acked'):.0f} acked ops"
                    )
            elif row.metric("lost_acked") <= 0:
                failures.append(
                    f"frac {frac}: baseline crash should lose acked work, lost none"
                )
        for frac in sorted({row.config["crash_frac"] for row in result.rows}):
            base = result.rows_where(crash_frac=frac, mode="none")[0]
            clean = result.rows_where(crash_frac=frac, mode="clean")[0]
            if base.metric("vulnerable_bytes") <= clean.metric("vulnerable_bytes"):
                failures.append(
                    f"frac {frac}: baseline window "
                    f"({base.metric('vulnerable_bytes'):.0f}B) should exceed "
                    f"clean's ({clean.metric('vulnerable_bytes'):.0f}B)"
                )
        return failures
