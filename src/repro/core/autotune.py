"""Automatic pre-store tuning: DirtBuster's "intended usage" as one call.

Section 6.1: "DirtBuster is meant to be executed offline, as an
optimization pass before releasing performance-critical applications."
:class:`AutoTuner` packages that pass: analyse a workload, translate the
per-function advice into the workload's patch sites, measure baseline vs.
patched, and keep the patches only if they actually helped — with the
skip→clean fallback the paper's Fortran ports needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.dirtbuster.runner import DirtBuster, DirtBusterReport
from repro.sim.machine import MachineSpec
from repro.sim.stats import RunResult
from repro.workloads.base import Workload

__all__ = ["AutoTuneResult", "AutoTuner", "MIN_SPEEDUP"]

#: Drained speedup the patched run must reach for the patches to be kept.
MIN_SPEEDUP = 1.01


@dataclass
class AutoTuneResult:
    """Outcome of one optimisation pass."""

    workload: str
    report: DirtBusterReport
    #: The patch configuration that was finally adopted.
    patches: PatchConfig
    #: site name -> adopted mode (empty when nothing was patched).
    adopted: Dict[str, PrestoreMode]
    baseline: RunResult
    #: The patched run (None when nothing was recommended).
    patched: Optional[RunResult]
    #: True when the patches were kept (they helped).
    kept: bool

    @property
    def speedup(self) -> float:
        if self.patched is None:
            return 1.0
        return self.patched.drained_speedup_over(self.baseline)

    def summary(self) -> str:
        if self.patched is None:
            return f"{self.workload}: no pre-store opportunities found"
        if not self.kept:
            return f"{self.workload}: candidate patches -> {self.speedup:.2f}x (reverted, no gain)"
        sites = ", ".join(f"{s}={m}" for s, m in sorted(self.adopted.items()))
        return f"{self.workload}: {sites} -> {self.speedup:.2f}x (kept)"


class AutoTuner:
    """Analyse, patch, verify — keep only what measures faster.

    ``allow_skip=False`` applies the paper's Fortran situation: wherever
    DirtBuster says *skip* but non-temporal stores are impractical, the
    recommended fallback (*clean*) is used instead.  The measurement runs
    go through :func:`~repro.runner.execute_cells`, so an ambient
    :func:`~repro.runner.runner_session` supplies their workers.
    """

    def __init__(self, dirtbuster: Optional[DirtBuster] = None, allow_skip: bool = True) -> None:
        self.dirtbuster = dirtbuster or DirtBuster()
        self.allow_skip = allow_skip

    # -- advice translation -----------------------------------------------

    def patches_for(self, workload: Workload, report: DirtBusterReport) -> PatchConfig:
        """Map per-function recommendations onto the workload's sites.

        A recommendation applies to a patch site when the site's declared
        function matches the recommendation's function — exactly how a
        developer maps DirtBuster's "function + line" output onto the
        source location to edit.
        """
        config = PatchConfig()
        for site in workload.patch_sites():
            recommendation = report.recommendation_for(site.function)
            if recommendation is None or not recommendation.wants_prestore:
                continue
            mode = recommendation.choice
            if mode is PrestoreMode.SKIP and not self.allow_skip:
                mode = recommendation.fallback or PrestoreMode.CLEAN
            config.set_mode(site.name, mode)
        return config

    # -- the pass -----------------------------------------------------------

    def tune(
        self,
        workload_factory,
        spec: MachineSpec,
        seed: int = 1234,
    ) -> AutoTuneResult:
        """Run the full optimisation pass.

        ``workload_factory`` is a zero-argument callable returning a fresh
        workload instance (runs must not share state).
        """
        from repro.runner import Cell, execute_cells

        probe = workload_factory()
        report = self.dirtbuster.analyze(probe, spec, seed=seed)
        patches = self.patches_for(probe, report)
        adopted = dict(patches.enabled_sites())

        # Baseline and candidate are independent runs: one pool round trip.
        configs = [PatchConfig.baseline()] + ([patches] if adopted else [])
        outcomes = execute_cells(
            [
                Cell(make_workload=workload_factory, spec=spec, mode=None, seed=seed, patches=c)
                for c in configs
            ],
            on_error="raise",
        )
        baseline = outcomes[0].result
        patched = outcomes[1].result if adopted else None
        kept = patched is not None and patched.drained_speedup_over(baseline) >= MIN_SPEEDUP
        return AutoTuneResult(
            workload=probe.name,
            report=report,
            patches=patches if kept else PatchConfig.baseline(),
            adopted=adopted if kept else {},
            baseline=baseline,
            patched=patched,
            kept=kept,
        )
