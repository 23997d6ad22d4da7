"""Step 3: re-read and re-write distances, kept in a per-line map.

Section 6.2.3: "DirtBuster computes the re-read and re-write distance of
every cache line accessed by the write-intensive functions.  [...]  For
every monitored sequential context and for every cache line written
before a fence, DirtBuster stores the value of the counter at the latest
recorded read and at the latest recorded write.  The information is
currently stored in a B-Tree."  The B-tree is the C++ tool's storage
choice; the analysis only ever looks a line up, so a dict serves.

Definitions (paper):

* re-write distance — average number of instructions between two
  consecutive writes to the same cache line, with the *streak exception*:
  "to prevent categorizing sequential writes as multiple rewritings of
  the same context, DirtBuster updates the rewrite distance only when a
  write breaks a streak of sequential accesses";
* re-read distance — average number of instructions between a read from
  a cache line and the preceding write to that line.  Only the first read
  after each write samples, so a read-side loop cannot inflate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["DistanceStats", "DistanceTracker"]


class _LineInfo:
    """Per-cache-line record kept in the line map."""

    __slots__ = ("last_write", "function", "context", "await_first_read")

    def __init__(self, last_write: int, function: str, context: object) -> None:
        self.last_write = last_write
        self.function = function
        #: The sequentiality context the last write belonged to (opaque).
        self.context = context
        #: True until the first read after the last write samples.
        self.await_first_read = True


@dataclass
class DistanceStats:
    """Aggregated distances for one function's written lines."""

    function: str
    rewrite_samples: int = 0
    rewrite_sum: float = 0.0
    reread_samples: int = 0
    reread_sum: float = 0.0
    lines_written: int = 0

    @property
    def mean_rewrite_distance(self) -> float:
        """Average instructions between rewrites (inf = never rewritten)."""
        if self.rewrite_samples == 0:
            return math.inf
        return self.rewrite_sum / self.rewrite_samples

    @property
    def mean_reread_distance(self) -> float:
        """Average instructions from write to first re-read (inf = never)."""
        if self.reread_samples == 0:
            return math.inf
        return self.reread_sum / self.reread_samples


class DistanceTracker:
    """Tracks per-line access history and per-function distance stats."""

    def __init__(self, line_size: int, slack: Optional[int] = None) -> None:
        self.line_size = line_size
        self.slack = line_size if slack is None else slack
        self._lines: Dict[int, _LineInfo] = {}
        self._functions: Dict[str, DistanceStats] = {}
        #: id(context) -> DistanceStats for the per-size-bucket report.
        self._contexts: Dict[int, DistanceStats] = {}
        #: core -> end address of its previous write (streak detection).
        self._last_write_end: Dict[int, int] = {}

    def _stats(self, function: str) -> DistanceStats:
        stats = self._functions.get(function)
        if stats is None:
            stats = DistanceStats(function=function)
            self._functions[function] = stats
        return stats

    def _ctx_stats(self, context: object) -> Optional[DistanceStats]:
        if context is None:
            return None
        stats = self._contexts.get(id(context))
        if stats is None:
            stats = DistanceStats(function="<context>")
            self._contexts[id(context)] = stats
        return stats

    def observe_write(
        self,
        core_id: int,
        function: str,
        addr: int,
        size: int,
        instr_index: int,
        context: object = None,
    ) -> None:
        prev_end = self._last_write_end.get(core_id)
        # Streaks are *forward only*: a write at or just past the previous
        # write's end continues a sequential sweep.  Rewriting at or
        # before the previous address is a genuine rewrite and must
        # sample the distance (otherwise Listing 3's hot line would look
        # never-rewritten).
        streak = prev_end is not None and prev_end <= addr <= prev_end + self.slack
        self._last_write_end[core_id] = addr + size
        first = addr // self.line_size
        last = (addr + size - 1) // self.line_size
        for line in range(first, last + 1):
            info: Optional[_LineInfo] = self._lines.get(line)
            if info is None:
                self._stats(function).lines_written += 1
                self._lines[line] = _LineInfo(instr_index, function, context)
                continue
            if not streak:
                distance = instr_index - info.last_write
                stats = self._stats(info.function)
                stats.rewrite_samples += 1
                stats.rewrite_sum += distance
                ctx_stats = self._ctx_stats(info.context)
                if ctx_stats is not None:
                    ctx_stats.rewrite_samples += 1
                    ctx_stats.rewrite_sum += distance
            info.last_write = instr_index
            info.function = function
            info.context = context
            info.await_first_read = True

    def observe_read(self, core_id: int, addr: int, size: int, instr_index: int) -> None:
        first = addr // self.line_size
        last = (addr + size - 1) // self.line_size
        for line in range(first, last + 1):
            info: Optional[_LineInfo] = self._lines.get(line)
            if info is None or not info.await_first_read:
                continue
            distance = instr_index - info.last_write
            stats = self._stats(info.function)
            stats.reread_samples += 1
            stats.reread_sum += distance
            ctx_stats = self._ctx_stats(info.context)
            if ctx_stats is not None:
                ctx_stats.reread_samples += 1
                ctx_stats.reread_sum += distance
            info.await_first_read = False

    def stats(self, function: str) -> DistanceStats:
        """Distance statistics for lines written by ``function``."""
        return self._functions.get(function, DistanceStats(function=function))

    def context_stats(self, context: object) -> DistanceStats:
        """Distance statistics for lines last written under ``context``."""
        return self._contexts.get(id(context), DistanceStats(function="<context>"))

    def merged_context_stats(self, contexts: "list") -> DistanceStats:
        """Merge per-context stats (one size bucket's distance figures)."""
        merged = DistanceStats(function="<bucket>")
        for ctx in contexts:
            stats = self._contexts.get(id(ctx))
            if stats is None:
                continue
            merged.rewrite_samples += stats.rewrite_samples
            merged.rewrite_sum += stats.rewrite_sum
            merged.reread_samples += stats.reread_samples
            merged.reread_sum += stats.reread_sum
        return merged

    @property
    def tracked_lines(self) -> int:
        return len(self._lines)
