"""Step 2/3 driver: turn a full trace into per-function access patterns.

The :class:`Instrumenter` replays a :class:`~repro.dirtbuster.trace.Trace`
(global execution order, per-core program order preserved) through the
three analyses — sequentiality contexts, fence proximity, and
re-read/re-write distances — and assembles one
:class:`FunctionPatterns` per analysed function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dirtbuster.contexts import ContextTracker, SequentialitySummary
from repro.dirtbuster.distances import DistanceStats, DistanceTracker
from repro.dirtbuster.fences import FenceProximity, FenceTracker
from repro.dirtbuster.trace import KIND_CODES, Trace, owning_function
from repro.errors import AnalysisError
from repro.sim.event import ATOMIC, FENCE, READ, WRITE, CodeSite

__all__ = ["BucketRow", "FunctionPatterns", "Instrumenter"]


@dataclass
class BucketRow:
    """One "Size:" line of the paper's report format."""

    #: Representative region size in bytes.
    size: int
    #: Share of the function's sequential writes in this bucket (0..1).
    share: float
    #: Mean write-to-first-re-read distance, instructions (inf = never).
    reread: float
    #: Mean rewrite distance, instructions (inf = never).
    rewrite: float


@dataclass
class FunctionPatterns:
    """Everything DirtBuster learned about one function's writes."""

    function: str
    file: str
    line: int
    sequentiality: SequentialitySummary
    fences: FenceProximity
    distances: DistanceStats
    buckets: List[BucketRow] = field(default_factory=list)

    @property
    def total_writes(self) -> int:
        return self.sequentiality.total_writes

    @property
    def pct_sequential(self) -> float:
        return self.sequentiality.pct_sequential

    @property
    def mean_reread(self) -> float:
        return self.distances.mean_reread_distance

    @property
    def mean_rewrite(self) -> float:
        return self.distances.mean_rewrite_distance


class Instrumenter:
    """Replays a full trace through the step-2/3 analyses."""

    def __init__(self, line_size: int, functions: Optional[Iterable[str]] = None) -> None:
        if line_size <= 0:
            raise AnalysisError(f"line size must be positive, got {line_size}")
        self.line_size = line_size
        self.functions: Optional[Set[str]] = set(functions) if functions is not None else None
        # Exact adjacency: a write continues a context only when it starts
        # where the previous one ended.  A slack would let dense random
        # writers (IS's bucket histogram) masquerade as sequential.
        self.contexts = ContextTracker(slack=0)
        self.fences = FenceTracker()
        self.distances = DistanceTracker(line_size, slack=0)
        self._sites: Dict[str, tuple] = {}

    def _owner(self, site: CodeSite, callchain: Tuple[CodeSite, ...]) -> Optional[tuple]:
        """``(function, file, line)`` of the selected function owning an
        access at ``site``, or None when no selected function does."""
        function = owning_function(site, callchain, self.functions)
        if function is None:
            return None
        owner = site if site.function == function else next(
            (s for s in callchain if s.function == function), site
        )
        return function, owner.file, owner.line

    def feed(self, trace: Trace) -> None:
        """Consume a trace (in execution order) in one pass over its columns.

        Owners are resolved once per ``(site, callchain)`` pair of the
        trace's table, before the pass.
        """
        owners = [self._owner(site, callchain) for site, callchain in trace.pairs]
        sites = self._sites
        observe_fence = self.fences.observe_fence
        fence_write = self.fences.observe_write
        context_write = self.contexts.observe_write
        distance_write = self.distances.observe_write
        observe_read = self.distances.observe_read
        write, read = KIND_CODES[WRITE], KIND_CODES[READ]
        fence, atomic = KIND_CODES[FENCE], KIND_CODES[ATOMIC]
        for instr_index, core_id, kind, addr, size, pair in zip(
            trace.index, trace.core, trace.kind, trace.addr, trace.size, trace.pair
        ):
            if kind == write:
                owner = owners[pair]
                if owner is None:
                    continue
                function = owner[0]
                if function not in sites:
                    sites[function] = owner[1:]
                ctx = context_write(core_id, function, addr, size)
                fence_write(core_id, function, instr_index)
                distance_write(core_id, function, addr, size, instr_index, context=ctx)
            elif kind == read:
                if owners[pair] is not None:
                    observe_read(core_id, addr, size, instr_index)
            elif kind == fence or kind == atomic:
                # Atomics both order (fence semantics) and write.
                observe_fence(core_id, instr_index)

    def patterns(self) -> List[FunctionPatterns]:
        """One :class:`FunctionPatterns` per function that wrote data."""
        results = []
        for function in self.contexts.functions():
            summary = self.contexts.summary(function)
            buckets = []
            for bucket in summary.size_buckets():
                merged = self.distances.merged_context_stats(bucket.members)
                buckets.append(
                    BucketRow(
                        size=bucket.size,
                        share=bucket.share,
                        reread=merged.mean_reread_distance,
                        rewrite=merged.mean_rewrite_distance,
                    )
                )
            file, line = self._sites.get(function, ("<unknown>", 0))
            results.append(
                FunctionPatterns(
                    function=function,
                    file=file,
                    line=line,
                    sequentiality=summary,
                    fences=self.fences.proximity(function),
                    distances=self.distances.stats(function),
                    buckets=buckets,
                )
            )
        results.sort(key=lambda p: p.total_writes, reverse=True)
        return results
