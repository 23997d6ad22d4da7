"""Step 2a: sequentiality contexts.

Section 6.2.2: "DirtBuster keeps track of multiple 'sequentiality
contexts'.  A 'sequentiality context' is a record of a memory region
(range of virtual address) and the location of the last write within that
region.  When a write is performed, DirtBuster checks if it is adjacent
to the last write performed in any 'context'.  If a context is found, its
metadata is updated, otherwise a new context is created."

The naive same-or-next-line check fails for code that writes temporaries
between sequential writes or interleaves streams to several objects;
per-context last-write tracking handles both, and per-(core, function)
scoping keeps threads from polluting each other's streams.

Lookup is end-indexed.  A write at ``addr`` can only continue a context
whose ``end`` lies in ``[addr - slack, addr]``, so each stream keeps its
contexts in a dict keyed by ``end`` and a write probes those
``slack + 1`` keys instead of scanning every open context.  Contexts
sharing one ``end`` form a stack, most recently extended on top, and
every entry carries the tick of its context's last extension; the write
joins the candidate with the highest tick.  A scan over all contexts,
most recently extended first, would stop at that same context, so the
choice is exactly the scan's, at O(slack) per write instead of
O(open contexts) — and random writers open one context per write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.errors import AnalysisError

__all__ = ["SequentialContext", "ContextTracker", "SequentialitySummary", "SizeBucket"]

#: Contexts with at least this many writes count as genuinely sequential;
#: shorter runs are indistinguishable from accidental adjacency.
MIN_SEQUENTIAL_RUN = 4


@dataclass
class SequentialContext:
    """One tracked region of (so far) sequential writes."""

    start: int
    end: int  # one past the last written byte
    writes: int = 1

    @property
    def size(self) -> int:
        return self.end - self.start

    def adjacent(self, addr: int, slack: int) -> bool:
        """Is a write at ``addr`` a continuation of this context?

        Adjacency is *forward only*, with ``slack`` bytes of tolerance to
        absorb alignment padding and small skipped holes (struct tails).
        Rewriting at or before the context's end is not sequential
        progress — it is a rewrite, and treating it as adjacency would
        make Listing 3's hot line look like a sequential stream.
        """
        return self.end <= addr <= self.end + slack

    def extend(self, addr: int, size: int) -> None:
        self.end = max(self.end, addr + size)
        self.writes += 1


@dataclass
class SizeBucket:
    """Aggregated contexts of similar size (one 'Size:' report line)."""

    #: Representative size in bytes (median context size of the bucket).
    size: int
    #: Number of contexts in this bucket.
    contexts: int
    #: Total sequential writes these contexts absorbed.
    writes: int
    #: Share of the function's sequential writes (0..1).
    share: float
    #: The member contexts (used to merge per-context distance stats).
    members: List[SequentialContext] = field(default_factory=list)


@dataclass
class SequentialitySummary:
    """Per-function sequentiality report (step 2 output)."""

    function: str
    total_writes: int
    sequential_writes: int
    contexts: List[SequentialContext]

    @property
    def pct_sequential(self) -> float:
        """Fraction of the function's writes in sequential contexts."""
        if self.total_writes == 0:
            return 0.0
        return self.sequential_writes / self.total_writes

    def size_buckets(self, max_buckets: int = 4) -> List[SizeBucket]:
        """Group sequential contexts by power-of-two size class.

        Returns at most ``max_buckets`` buckets, largest write share
        first — the per-size breakdown of the paper's report ("80% of the
        sequential writes are to regions of size 1KB...").
        """
        sequential = [c for c in self.contexts if c.writes >= MIN_SEQUENTIAL_RUN]
        if not sequential:
            return []
        classes: Dict[int, List[SequentialContext]] = {}
        for ctx in sequential:
            classes.setdefault(max(ctx.size, 1).bit_length(), []).append(ctx)
        total = sum(c.writes for c in sequential)
        buckets = []
        for group in classes.values():
            sizes = sorted(c.size for c in group)
            writes = sum(c.writes for c in group)
            buckets.append(
                SizeBucket(
                    size=sizes[len(sizes) // 2],
                    contexts=len(group),
                    writes=writes,
                    share=writes / total if total else 0.0,
                    members=group,
                )
            )
        buckets.sort(key=lambda b: b.writes, reverse=True)
        return buckets[:max_buckets]


class ContextTracker:
    """Tracks sequentiality contexts for every (core, function) stream.

    As in the paper, the number of contexts is unbounded: "In practice,
    we found that the write-intensive functions perform sequential writes
    on only a few objects."
    """

    def __init__(self, slack: int = 64) -> None:
        if slack < 0:
            raise AnalysisError(f"slack must be non-negative, got {slack}")
        self.slack = slack
        #: (core, function) -> {end: entry}.  An entry is a
        #: ``(tick, context, below)`` cell: ``tick`` stamps the context's
        #: last extension, ``below`` is the entry of the next most recently
        #: extended context with the same ``end`` (None at the bottom).
        self._streams: Dict[Tuple[int, str], Dict[int, tuple]] = {}
        #: function -> write count.
        self._write_counts: Dict[str, int] = {}
        self._tick = 0

    def observe_write(self, core_id: int, function: str, addr: int, size: int) -> SequentialContext:
        """Feed one write; returns the context it joined (maybe new)."""
        self._write_counts[function] = self._write_counts.get(function, 0) + 1
        key = (core_id, function)
        by_end = self._streams.get(key)
        if by_end is None:
            by_end = self._streams[key] = {}
        # Every adjacent context ends in [addr - slack, addr]; the top of
        # each stack is its most recently extended one.
        best = None
        for end in range(addr - self.slack, addr + 1):
            entry = by_end.get(end)
            if entry is not None and (best is None or entry[0] > best[0]):
                best = entry
        self._tick += 1
        if best is None:
            ctx = SequentialContext(start=addr, end=addr + size)
        else:
            _, ctx, below = best
            if below is None:
                del by_end[ctx.end]
            else:
                by_end[ctx.end] = below
            ctx.extend(addr, size)
        by_end[ctx.end] = (self._tick, ctx, by_end.get(ctx.end))
        return ctx

    def summary(self, function: str) -> SequentialitySummary:
        """The sequentiality report for one function (all cores merged)."""
        contexts: List[SequentialContext] = []
        for (core_id, fn), by_end in self._streams.items():
            if fn == function:
                contexts.extend(_least_recent_first(by_end))
        total = self._write_counts.get(function, 0)
        sequential = sum(c.writes for c in contexts if c.writes >= MIN_SEQUENTIAL_RUN)
        return SequentialitySummary(
            function=function,
            total_writes=total,
            sequential_writes=sequential,
            contexts=contexts,
        )

    def functions(self) -> List[str]:
        return sorted(self._write_counts)


def _least_recent_first(by_end: Dict[int, tuple]) -> List[SequentialContext]:
    """One stream's contexts, least recently extended first."""
    entries = []
    for entry in by_end.values():
        while entry is not None:
            entries.append(entry)
            entry = entry[2]
    entries.sort(key=itemgetter(0))
    return [entry[1] for entry in entries]
