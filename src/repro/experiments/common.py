"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.runner import Cell
from repro.sim.machine import machine_b_fast, machine_b_slow
from repro.sim.stats import RunResult
from repro.workloads.base import Workload

__all__ = [
    "Cells",
    "Results",
    "MACHINES_B",
    "by_config",
    "endorsed_patches",
    "safe_ratio",
    "MANUAL_MISUSE_SITES",
]


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, NaN when the denominator is zero.

    The §10 convention for measured denominators: NaN propagates through
    derived metrics and renders as a visible hole, where a fake 0.0 (or
    a ZeroDivisionError out of a whole experiment batch) would either
    lie or lose the other rows.
    """
    if denominator == 0:
        return float("nan")
    return numerator / denominator

#: What ``Experiment.cells`` declares and ``Experiment.reduce`` reads.
Cells = Dict[Hashable, Cell]
Results = Dict[Hashable, RunResult]

#: Machine B's two FPGA latencies, under the names the figures use.
MACHINES_B = (("B-fast", machine_b_fast), ("B-slow", machine_b_slow))

#: Sites DirtBuster declines (Sections 5 and 7.4.2): patched only by the
#: "incorrect manual use" experiments.
MANUAL_MISUSE_SITES = ("ft.fftz2", "is.rank", "listing3.hot_line")


def endorsed_patches(workload: Workload, mode: PrestoreMode) -> PatchConfig:
    """Apply ``mode`` at DirtBuster-endorsed sites only.

    The manual-misuse sites (the hot fftz2 scratch, IS's random buckets,
    Listing 3's hot line) stay unpatched, as DirtBuster recommends.
    """
    sites = workload.patch_sites()
    return PatchConfig.uniform(mode, [s for s in sites if s.name not in MANUAL_MISUSE_SITES])


def by_config(results: Results) -> Dict[Tuple, Dict[PrestoreMode, RunResult]]:
    """Group results keyed ``(*config, mode)`` as ``config -> {mode: result}``.

    Configurations keep the order the experiment declared their cells in.
    """
    grouped: Dict[Tuple, Dict[PrestoreMode, RunResult]] = {}
    for (*config, mode), result in results.items():
        grouped.setdefault(tuple(config), {})[mode] = result
    return grouped
