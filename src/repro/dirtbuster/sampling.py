"""Step 1: finding write-intensive functions from access samples.

Section 6.2.1: "DirtBuster relies on perf to sample the loads and stores
performed by an application.  DirtBuster gathers the time of all loads
and stores, their instruction pointer (IP), and a callchain.  The IPs are
then grouped by functions to infer the most write-intensive functions.
DirtBuster also groups the IPs of the callchains, to infer the most
common paths that lead to these functions."

The evaluation additionally filters whole applications: "Some
applications spend less than 10% of their time issuing store
instructions [...] We did not instrument these applications further"
(Section 7.1) — :meth:`SampleProfile.application_write_intensive`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import AnalysisError
from repro.dirtbuster.trace import SamplingTracer

__all__ = ["FunctionProfile", "SampleProfile", "WRITE_INTENSIVE_APP_THRESHOLD"]

#: Fraction of sampled time that must land on stores for an application
#: to be considered write-intensive (the Section 7.1 filter).  The paper
#: uses 10% on perf profiles of full-scale runs; our scaled simulator
#: compresses store time (much of the writeback cost shifts into the
#: end-of-run drain), and 3% is the calibrated equivalent — it separates
#: the same two groups of applications as the paper's Table 2.
WRITE_INTENSIVE_APP_THRESHOLD = 0.03


@dataclass
class FunctionProfile:
    """Sampled behaviour of one function."""

    function: str
    file: str
    line: int
    loads: int = 0
    stores: int = 0
    #: Atomic RMW samples: counted as store *time* at the application
    #: level, but kept out of :attr:`stores` — the patchable writes live
    #: in the callers, not inside the lock's cmpxchg (Section 6.1).
    atomics: int = 0
    #: Most common callchains leading here (chain of function names -> count).
    callchains: Counter = field(default_factory=Counter)

    @property
    def samples(self) -> int:
        return self.loads + self.stores + self.atomics

    def top_callchains(self, n: int = 3) -> List[Tuple[Tuple[str, ...], int]]:
        """The ``n`` most common call paths into this function."""
        return self.callchains.most_common(n)


class SampleProfile:
    """Aggregated view over one sampling run.

    ``counts`` are :attr:`SamplingTracer.hits
    <repro.dirtbuster.trace.SamplingTracer.hits>` entries, ``[site,
    callchain, loads, stores, atomics]`` in first-sample order, so
    functions and callchains are first seen in the order the samples
    first reached them.  ``other_samples`` counts timer samples that
    landed on non-memory work (arithmetic, fences): they dilute the
    store-time share exactly as compute-bound phases dilute it under
    real ``perf`` sampling.
    """

    def __init__(self, counts: Iterable[Sequence], other_samples: int = 0) -> None:
        self.other_samples = other_samples
        self.total_samples = other_samples
        self.total_stores = 0
        self._functions: Dict[str, FunctionProfile] = {}
        for site, callchain, loads, stores, atomics in counts:
            prof = self._functions.get(site.function)
            if prof is None:
                prof = FunctionProfile(function=site.function, file=site.file, line=site.line)
                self._functions[site.function] = prof
            prof.loads += loads
            prof.stores += stores
            prof.atomics += atomics
            hits = loads + stores + atomics
            prof.callchains[tuple(caller.function for caller in callchain)] += hits
            self.total_samples += hits
            self.total_stores += stores + atomics
        if not self.total_samples:
            raise AnalysisError(
                "no samples collected — run longer or lower the sampling period"
            )

    @classmethod
    def from_tracer(cls, tracer: SamplingTracer) -> "SampleProfile":
        return cls(tracer.hits.values(), other_samples=tracer.other_samples)

    # -- application-level classification ----------------------------------------

    @property
    def application_store_fraction(self) -> float:
        """Stores as a fraction of all timer samples.

        With cycle-weighted sampling this IS the paper's "% of their time
        issuing store instructions" (Section 7.1): a store that stalls on
        device backpressure accumulates samples, a cheap cached store
        does not.
        """
        return self.total_stores / self.total_samples

    def application_write_intensive(
        self, threshold: float = WRITE_INTENSIVE_APP_THRESHOLD
    ) -> bool:
        """The Section 7.1 filter deciding whether to instrument at all."""
        return self.application_store_fraction >= threshold

    # -- function ranking -------------------------------------------------------

    def functions(self) -> List[FunctionProfile]:
        """All profiled functions, most store samples first."""
        return sorted(self._functions.values(), key=lambda p: p.stores, reverse=True)

    def function(self, name: str) -> FunctionProfile:
        try:
            return self._functions[name]
        except KeyError:
            raise AnalysisError(f"function {name!r} never appeared in the samples") from None

    def write_intensive_functions(
        self, share_of_stores: float = 0.05, top: int = 10
    ) -> List[FunctionProfile]:
        """Functions worth instrumenting in step 2.

        A function qualifies if it contributes at least
        ``share_of_stores`` of the sampled *plain* stores; at most
        ``top`` functions are returned (most stores first).  Atomics are
        excluded from the ranking: their time belongs to lock internals,
        and the patchable writes live in the callers.
        """
        plain_stores = sum(p.stores for p in self._functions.values())
        if plain_stores == 0:
            return []
        chosen = [
            p
            for p in self.functions()
            if p.stores / plain_stores >= share_of_stores and p.stores > 0
        ]
        return chosen[:top]

    def summary(self) -> str:
        """perf-report-style text table."""
        lines = [
            f"{'function':40s} {'stores%':>8s} {'loads':>8s} {'stores':>8s}",
        ]
        for p in self.functions():
            pct = 100.0 * p.stores / self.total_stores if self.total_stores else 0.0
            lines.append(f"{p.function:40s} {pct:7.1f}% {p.loads:8d} {p.stores:8d}")
        return "\n".join(lines)
