"""DirtBuster end-to-end: sampling pass → instrumented pass → advice.

This is the tool's public entry point, mirroring Figure 6:

1. sample the workload's run with the cheap sampling tracer and rank
   write-intensive functions (skipping everything else if the application
   spends <10 % of its accesses storing, as in Section 7.1);
2. analyse the accesses of those functions, fully instrumented;
3. analyse sequentiality, fence proximity, and re-read/re-write
   distances, and emit one recommendation per function.

Steps 1 and 2 share one simulation.  The paper runs the application
twice because PIN is too slow to trace everything; here the run is
deterministic and tracers never change its path, so a full tracer rides
the sampling run and step 2 filters the trace to the selected functions
when it is fed (DESIGN.md §18, "One simulation per application").

The report also carries the three Table 2 classification bits for the
workload (write-intensive / sequential writes / writes before fence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.prestore import PatchConfig
from repro.dirtbuster.instrument import FunctionPatterns, Instrumenter
from repro.dirtbuster.recommend import Recommendation, Recommender, Thresholds
from repro.dirtbuster.report import render_report
from repro.dirtbuster.sampling import SampleProfile, WRITE_INTENSIVE_APP_THRESHOLD
from repro.dirtbuster.trace import FullTracer, SamplingTracer, Trace
from repro.sim.event import Event
from repro.sim.machine import MachineSpec, Tracer
from repro.workloads.base import Workload

__all__ = ["DirtBusterConfig", "Classification", "DirtBusterReport", "DirtBuster"]


@dataclass(frozen=True)
class DirtBusterConfig:
    """Knobs for the three analysis steps."""

    #: Keep one memory-access sample in this many (step 1).
    sampling_period: int = 229
    #: Application-level write-intensity gate (Section 7.1).
    app_store_threshold: float = WRITE_INTENSIVE_APP_THRESHOLD
    #: A function must contribute this share of sampled stores to be
    #: instrumented in step 2.
    function_store_share: float = 0.05
    #: Instrument at most this many functions.
    max_functions: int = 8
    thresholds: Thresholds = field(default_factory=Thresholds)


@dataclass
class Classification:
    """The workload's Table 2 row."""

    workload: str
    write_intensive: bool
    sequential_writes: bool
    writes_before_fence: bool

    def row(self) -> str:
        def mark(flag: bool) -> str:
            return "yes" if flag else "-"

        return (
            f"{self.workload:20s} {mark(self.write_intensive):>6s} "
            f"{mark(self.sequential_writes):>6s} {mark(self.writes_before_fence):>6s}"
        )


@dataclass
class DirtBusterReport:
    """Everything DirtBuster produced for one workload."""

    workload: str
    profile: SampleProfile
    instrumented_functions: List[str]
    patterns: List[FunctionPatterns]
    recommendations: List[Recommendation]
    classification: Classification

    def recommendation_for(self, function: str) -> Optional[Recommendation]:
        for rec in self.recommendations:
            if rec.function == function:
                return rec
        return None

    def suggested_patches(self) -> PatchConfig:
        """A PatchConfig applying every positive recommendation.

        Sites are keyed by function name; workloads that key their patch
        sites differently can translate via their own site tables.
        """
        config = PatchConfig()
        for rec in self.recommendations:
            if rec.wants_prestore:
                config.set_mode(rec.function, rec.choice)
        return config

    def render(self) -> str:
        header = [
            f"DirtBuster report for {self.workload}",
            f"application store share: {100.0 * self.profile.application_store_fraction:.1f}%",
            f"write-intensive: {self.classification.write_intensive}",
        ]
        if not self.classification.write_intensive:
            header.append("application not write-intensive; steps 2-3 skipped")
            return "\n".join(header)
        header.append(f"instrumented functions: {', '.join(self.instrumented_functions)}")
        return "\n".join(header) + "\n\n" + render_report(self.recommendations)


class _Both(Tracer):
    """Both DirtBuster tracers in a run's one tracer slot.

    It takes fused runs in bulk as both tracers do, so the run stays on
    the fused stream path.
    """

    def __init__(self, sampler: SamplingTracer, full: FullTracer) -> None:
        self._sample, self._sample_stream = sampler.record, sampler.record_stream
        self._full, self._full_stream = full.record, full.record_stream

    def record(self, core_id: int, event: Event, instr_index: int, cycles: float) -> None:
        self._sample(core_id, event, instr_index, cycles)
        self._full(core_id, event, instr_index, cycles)

    def record_stream(self, *run: Any) -> None:
        self._sample_stream(*run)
        self._full_stream(*run)


class DirtBuster:
    """The tool: run me on a workload and a machine spec."""

    def __init__(self, config: Optional[DirtBusterConfig] = None) -> None:
        self.config = config or DirtBusterConfig()
        self.recommender = Recommender(self.config.thresholds)

    # bench-e2e's span probes time the steps by these method names.

    # -- step 1 ----------------------------------------------------------------

    def sample(
        self, workload: Workload, spec: MachineSpec, seed: int = 1234
    ) -> Tuple[SampleProfile, Trace]:
        """The perf pass, with the PIN pass riding the same run.

        Returns the sample profile and the unfiltered full trace.
        """
        sampler = SamplingTracer(period=self.config.sampling_period)
        full = FullTracer()
        workload.run(
            spec, patches=PatchConfig.baseline(), tracer=_Both(sampler, full), seed=seed
        )
        return SampleProfile.from_tracer(sampler), full.trace

    # -- steps 2-3 ----------------------------------------------------------------

    def instrument(
        self, trace: Trace, functions: Sequence[str], line_size: int
    ) -> List[FunctionPatterns]:
        """The PIN pass's analysis of ``functions``' accesses + fences."""
        instrumenter = Instrumenter(line_size, functions=functions)
        instrumenter.feed(trace)
        return instrumenter.patterns()

    # -- the whole pipeline ------------------------------------------------------

    def analyze(self, workload: Workload, spec: MachineSpec, seed: int = 1234) -> DirtBusterReport:
        """Steps 1-3 end to end."""
        profile, trace = self.sample(workload, spec, seed=seed)
        write_intensive = profile.application_write_intensive(self.config.app_store_threshold)
        if not write_intensive:
            return DirtBusterReport(
                workload=workload.name,
                profile=profile,
                instrumented_functions=[],
                patterns=[],
                recommendations=[],
                classification=Classification(
                    workload=workload.name,
                    write_intensive=False,
                    sequential_writes=False,
                    writes_before_fence=False,
                ),
            )
        candidates = profile.write_intensive_functions(
            share_of_stores=self.config.function_store_share,
            top=self.config.max_functions,
        )
        functions = [c.function for c in candidates]
        # Every pattern belongs to a function selected in step 1: the
        # instrumenter attributes each write to one (owning_function).
        patterns = self.instrument(trace, functions, spec.line_size)
        recommendations = self.recommender.recommend_all(patterns)
        sequential = any(self.recommender.writes_sequentially(p) for p in patterns)
        fenced = any(self.recommender.writes_before_fence(p) for p in patterns)
        return DirtBusterReport(
            workload=workload.name,
            profile=profile,
            instrumented_functions=functions,
            patterns=patterns,
            recommendations=recommendations,
            classification=Classification(
                workload=workload.name,
                write_intensive=True,
                sequential_writes=sequential,
                writes_before_fence=fenced,
            ),
        )
