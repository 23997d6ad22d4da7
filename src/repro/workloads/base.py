"""Workload base class: the contract between applications and experiments.

A workload knows how to spawn its thread bodies onto a
:class:`~repro.workloads.memapi.Program` given a
:class:`~repro.core.PatchConfig` choosing per-site pre-store modes.  The
same object is consumed by three clients:

* experiments, which run it under several patch configs and compare;
* DirtBuster, which runs it with a tracer attached; and
* the Table 2 classifier, which inspects :attr:`Workload.write_intensive`
  ground truth against what the tools infer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.prestore import PatchConfig, PatchSite
from repro.errors import WorkloadError
from repro.sim.machine import MachineSpec, Tracer
from repro.sim.stats import RunResult
from repro.workloads.memapi import Program

__all__ = ["Workload", "WorkloadResult"]


@dataclass
class WorkloadResult:
    """A run's statistics plus workload-level context."""

    workload: str
    patch_summary: str
    run: RunResult
    #: ``Machine.path_counts()`` of the run: which interpreter path ran
    #: its accesses (not part of the RunResult).
    path_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.run.cycles

    @property
    def write_amplification(self) -> float:
        return self.run.write_amplification

    def throughput(self) -> float:
        return self.run.throughput()


class Workload(ABC):
    """One evaluated application."""

    #: Stable name used in reports and Table 2.
    name: str = "abstract"
    #: How many threads the workload spawns by default.
    default_threads: int = 1

    @abstractmethod
    def patch_sites(self) -> Sequence[PatchSite]:
        """The locations where pre-stores can be inserted."""

    @abstractmethod
    def spawn(self, program: Program, patches: PatchConfig) -> None:
        """Register this workload's thread bodies on ``program``."""

    def result_extras(self) -> dict:
        """Workload-level measurements to fold into ``RunResult.extra``.

        Called after the program ran (clean completion *or* crash);
        override to export JSON-serialisable per-run aggregates — the
        serving layer reports latency quantiles and SLO accounting this
        way.  Values must be deterministic functions of (spec, patches,
        seed) so cached results stay bit-identical.
        """
        return {}

    def run(
        self,
        spec: MachineSpec,
        patches: Optional[PatchConfig] = None,
        tracer: Optional[Tracer] = None,
        seed: int = 1234,
        streams: Optional[bool] = None,
    ) -> WorkloadResult:
        """Build a fresh program on ``spec`` and run to completion.

        ``tracer`` is the run's observer and ``streams`` picks the event
        vocabulary (both as in :class:`~repro.workloads.memapi.Program`);
        results are identical either way.
        """
        patches = patches or PatchConfig.baseline()
        program = Program(spec, tracer=tracer, seed=seed, streams=streams)
        self.spawn(program, patches)
        result = program.run()
        result.extra.update(self.result_extras())
        enabled = patches.enabled_sites()
        summary = ", ".join(f"{k}={v}" for k, v in sorted(enabled.items())) or "baseline"
        return WorkloadResult(
            workload=self.name,
            patch_summary=summary,
            run=result,
            path_counts=program.machine.path_counts(),
        )

    def site(self, name: str) -> PatchSite:
        """Look up one of this workload's patch sites by name."""
        for site in self.patch_sites():
            if site.name == name:
                return site
        raise WorkloadError(f"{self.name}: unknown patch site {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name}>"
