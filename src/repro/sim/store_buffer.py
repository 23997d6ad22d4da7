"""Private CPU store buffers and the two store-visibility disciplines.

Section 4.2: "When writing data, CPUs are allowed to keep the changes
private, as long as the changes do not break the memory ordering
constraints of the architecture. [...] CPUs tend to keep modifications
private and only advertise them when they run out of private buffer space
or when they are forced to by the memory model."

Two disciplines are modelled:

``tso`` (Machine A, x86)
    Stores start their visibility round trip as soon as they enter the
    buffer, in program order but pipelined.  A fence usually finds them
    already visible — which is why the paper expects "little gain" from
    demotion on Machine A (Section 6.2.3).

``weak`` (Machine B, ARM)
    Stores park in the buffer.  Visibility round trips start only at a
    fence/atomic, at a *demote* pre-store, or when the buffer overflows —
    so a fence right after a write eats the whole round trip, and an
    early demote overlaps it with subsequent work (Figure 4).

Per-entry state is one value: the buffer is an insertion-ordered mapping
``line -> visible_time`` where ``None`` marks a parked store (round trip
not started).  Keeping the column flat — rather than an entry object per
store — is what lets the fused store loop in :mod:`repro.sim.cpu` run a
store in a handful of dict operations (DESIGN.md §15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import ConfigurationError

__all__ = ["StoreBufferStats", "StoreBuffer", "MEMORY_MODELS"]

MEMORY_MODELS = ("tso", "weak")

#: Callback computing one store's visibility latency at the moment its
#: round trip starts: ``(line) -> cycles``.  Provided by the CPU, which
#: knows the cache state and the device.
VisibilityFn = Callable[[int], int]


@dataclass
class StoreBufferStats:
    stores_buffered: int = 0
    coalesced: int = 0
    demotes_started: int = 0
    overflow_drains: int = 0
    fence_drains: int = 0
    #: Total cycles some fence/atomic spent waiting for visibility.
    fence_stall_cycles: float = 0.0


class StoreBuffer:
    """Bounded per-core buffer of not-yet-globally-visible stores.

    ``_pending`` maps line -> visibility horizon (absolute cycle, or
    ``None`` while parked), in insertion order; one buffered store per
    cache line (stores coalesce).
    """

    def __init__(self, model: str, capacity: int = 56) -> None:
        if model not in MEMORY_MODELS:
            raise ConfigurationError(f"memory model must be one of {MEMORY_MODELS}, got {model!r}")
        if capacity <= 0:
            raise ConfigurationError(f"store buffer capacity must be positive, got {capacity}")
        self.model = model
        self.capacity = capacity
        #: Plain dict in insertion = FIFO order; coalescing hits refresh
        #: position by delete-and-reinsert.
        self._pending: "dict[int, Optional[float]]" = {}
        #: Visibility pipeline horizon: round trips retire in order.
        self._pipeline_tail = 0.0
        self.stats = StoreBufferStats()

    # -- queries -----------------------------------------------------------

    def contains(self, line: int) -> bool:
        """Store-to-load forwarding check."""
        return line in self._pending

    def occupancy(self) -> int:
        return len(self._pending)

    def pending_lines(self) -> List[int]:
        return list(self._pending)

    def visibility_of(self, line: int) -> Optional[float]:
        """Visibility horizon of a buffered store to ``line``.

        Returns ``None`` when no store to ``line`` is buffered,
        ``math.inf`` while the store is *parked* (its visibility round
        trip has not started — only possible under the weak model), and
        the absolute cycle it becomes globally visible otherwise.  This
        is the introspection hook the memory-consistency sanitizer uses
        to flag reads of another core's still-invisible store.
        """
        if line not in self._pending:
            return None
        visible = self._pending[line]
        if visible is None:
            return math.inf
        return visible

    # -- the write path ------------------------------------------------------

    def write(self, line: int, now: float, visibility: VisibilityFn) -> float:
        """Buffer a store to ``line``; returns the stall, in cycles.

        Coalesces with an already-buffered store to the same line.  On
        overflow the oldest entry is forced visible and the core stalls
        until a slot frees (the "runs out of private buffer space" case).
        """
        self.stats.stores_buffered += 1
        self._prune(now)
        pending = self._pending
        if line in pending:
            self.stats.coalesced += 1
            visible = pending[line]
            del pending[line]  # re-insert to refresh FIFO position
            pending[line] = visible
            return 0.0
        stall = 0.0
        if len(pending) >= self.capacity:
            oldest_line, oldest_visible = next(iter(pending.items()))
            if oldest_visible is None:
                oldest_visible = self._start_visibility(oldest_line, now, visibility)
            stall = max(0.0, oldest_visible - now)
            del pending[oldest_line]
            self.stats.overflow_drains += 1
        pending[line] = None
        if self.model == "tso":
            # TSO: the round trip starts immediately, pipelined in order.
            self._start_visibility(line, now + stall, visibility)
        return stall

    def _prune(self, now: float) -> None:
        """Retire front entries whose visibility round trip has finished.

        Buffer slots free in FIFO order as stores become globally
        visible; without pruning, a fence-free TSO program would pin its
        first ``capacity`` lines in the buffer forever.
        """
        pending = self._pending
        while pending:
            line, visible = next(iter(pending.items()))
            if visible is None or visible > now:
                break
            del pending[line]

    def _start_visibility(self, line: int, now: float, visibility: VisibilityFn) -> float:
        """Start (or look up) the round trip of a buffered store.

        Returns the absolute cycle the store becomes visible.
        """
        visible = self._pending[line]
        if visible is not None:
            return visible
        latency = visibility(line)
        # Round trips pipeline but retire in program order: a store may
        # not become visible before its predecessors.
        visible = max(now + latency, self._pipeline_tail)
        self._pending[line] = visible
        self._pipeline_tail = visible
        return visible

    # -- pre-store and fence paths -------------------------------------------

    def demote(self, line: int, now: float, visibility: VisibilityFn) -> bool:
        """Start the visibility round trip for ``line`` now (non-blocking).

        This is the store-buffer half of a *demote* pre-store: the write
        is pushed towards a globally visible cache level in the
        background.  Returns True if a parked store was found.
        """
        if line not in self._pending or self._pending[line] is not None:
            return False
        self._start_visibility(line, now, visibility)
        self.stats.demotes_started += 1
        return True

    def demote_all(self, now: float, visibility: VisibilityFn) -> int:
        """Demote every parked store; returns how many started."""
        started = 0
        for line, visible in self._pending.items():
            if visible is None:
                self._start_visibility(line, now, visibility)
                self.stats.demotes_started += 1
                started += 1
        return started

    def drain(self, now: float, visibility: VisibilityFn) -> float:
        """Fence: make everything visible; returns the completion time.

        Parked entries start their round trips at ``now`` (pipelined);
        the fence completes when the youngest entry is visible.
        """
        self.stats.fence_drains += 1
        done = float(now)
        for line, visible in self._pending.items():
            if visible is None:
                visible = self._start_visibility(line, now, visibility)
            done = max(done, visible)
        self._pending.clear()
        self.stats.fence_stall_cycles += done - now
        return done

    def evict_line(self, line: int) -> None:
        """Forget a pending store (its line left the hierarchy)."""
        self._pending.pop(line, None)
