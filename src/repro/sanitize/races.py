"""Pass 1: FastTrack-style happens-before and store-visibility races.

The detector consumes the same event stream DirtBuster traces (it is a
:class:`~repro.sim.machine.Tracer` subscriber) and maintains one vector
clock per core.  Cross-core edges come from the synchronisation the
workload API can express:

* POST publishes the posting core's clock under a mailbox key; the
  matching WAIT joins it (message-passing order);
* an ATOMIC read-modify-write releases the executing core's clock into
  the target line and acquires whatever the previous ATOMIC on that line
  released (lock order — CLHT's bucket locks, X9's CAS publications).

Two conflicting accesses (same cache line, different cores, at least one
a store) that are unordered by those edges are a data race, reported
FastTrack-style as the first unordered pair per (rule, site, site).

One hybrid refinement (the classic vector-clock + Eraser-lockset
combination): the simulator's scheduler interleaves threads by time and
does not *enforce* mutual exclusion, so a workload's paired lock/unlock
atomics on one line are tracked as a held-lock toggle, and conflicting
accesses whose locksets intersect are not reported — CLHT's bucket
criticals race in simulated time but not in the modelled program.

Accesses built with ``relaxed=True`` (CLHT's lock-free bucket reads,
Masstree's version-validated node reads) are treated like C11 atomics:
races involving them are intentional and never reported.

On top of happens-before the pass checks *visibility*: a READ of a line
whose latest store is still parked, round-trip-unstarted, in another
core's weak-model store buffer observes stale data even when a mailbox
edge orders the two instructions.  This is exactly the bug class Machine
B's delayed-visibility model creates (Section 4.2): the fix is a fence
or a demote pre-store between the write and the publication.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import Diagnostic
from repro.sim.event import CodeSite, Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine
    from repro.sim.stats import RunResult

__all__ = ["RaceDetector"]

#: A vector clock: core id -> latest known event count of that core.
VectorClock = Dict[int, int]


def _join(into: VectorClock, other: Optional[VectorClock]) -> None:
    if not other:
        return
    for core, clock in other.items():
        if into.get(core, 0) < clock:
            into[core] = clock


class _Access:
    """One remembered access to a line (the potential race partner)."""

    __slots__ = ("core_id", "clock", "site", "instr_index", "locks", "relaxed")

    def __init__(
        self,
        core_id: int,
        clock: int,
        site: CodeSite,
        instr_index: int,
        locks: FrozenSet[int] = frozenset(),
        relaxed: bool = False,
    ) -> None:
        self.core_id = core_id
        self.clock = clock
        self.site = site
        self.instr_index = instr_index
        self.locks = locks
        self.relaxed = relaxed


class _LineState:
    """FastTrack per-line metadata: last write epoch + reads since."""

    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        self.write: Optional[_Access] = None
        #: core id -> latest read since the last write.
        self.reads: Dict[int, _Access] = {}


class _Finding:
    """Aggregated occurrences of one (rule, site pair)."""

    __slots__ = ("diag", "count")

    def __init__(self, diag: Diagnostic) -> None:
        self.diag = diag
        self.count = 1


class RaceDetector:
    """Vector-clock happens-before + store-visibility checker.

    Per-access state (epochs, locksets, parked-store sites) needs every
    individual access.  Having no ``record_stream``, the detector gets
    streams unrolled by the machine, one READ/WRITE record per access.
    """

    def __init__(self) -> None:
        #: The observed machine, from ``attach`` until ``finish``.
        self._machine: Optional["Machine"] = None
        self._vc: Dict[int, VectorClock] = {}
        #: (id(mailbox), key) -> joined clock of every POST so far.
        self._mail: Dict[Tuple[int, object], VectorClock] = {}
        #: line -> clock released by the last ATOMIC on that line.
        self._released: Dict[int, VectorClock] = {}
        #: core id -> lock lines currently held (paired-atomic toggling).
        self._held: Dict[int, Set[int]] = {}
        self._lines: Dict[int, _LineState] = {}
        #: (core, line) -> site/instr of that core's latest store (for
        #: attributing visibility races to the parked write).
        self._store_sites: Dict[Tuple[int, int], Tuple[CodeSite, int]] = {}
        self._findings: Dict[Tuple[str, str, str], _Finding] = {}
        self._line_size = 64

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        """Bind to the machine whose store buffers we may introspect."""
        self._machine = machine
        self._line_size = machine.line_size

    def finish(self, machine: "Machine", result: "RunResult") -> None:
        """Let go of the finished machine; the findings stay."""
        self._machine = None

    # -- vector-clock plumbing -------------------------------------------------

    def _clock_of(self, core_id: int) -> VectorClock:
        vc = self._vc.get(core_id)
        if vc is None:
            vc = {core_id: 0}
            self._vc[core_id] = vc
        return vc

    def _ordered_before(self, access: _Access, vc: VectorClock) -> bool:
        """True when ``access`` happens-before the holder of ``vc``."""
        return access.clock <= vc.get(access.core_id, 0)

    # -- reporting ------------------------------------------------------------

    def _report(
        self,
        rule: str,
        message: str,
        event: Event,
        core_id: int,
        line: int,
        instr_index: int,
        other: Optional[CodeSite] = None,
    ) -> None:
        key = (rule, str(event.site), str(other) if other is not None else "")
        finding = self._findings.get(key)
        if finding is not None:
            finding.count += 1
            return
        diag = Diagnostic(
            rule=rule,
            severity="error",
            message=message,
            site=event.site,
            related=(other,) if other is not None else (),
            addr=event.addr,
            cache_line=line,
            core_id=core_id,
            instr_index=instr_index,
        )
        self._findings[key] = _Finding(diag)

    def diagnostics(self) -> List[Diagnostic]:
        """The aggregated findings, first-occurrence order."""
        out = []
        for finding in self._findings.values():
            diag = finding.diag
            if finding.count > 1:
                diag = replace(diag, count=finding.count)
            out.append(diag)
        return out

    # -- the tracer entry point ------------------------------------------------

    def record(self, core_id: int, event: Event, instr_index: int, cycles: float) -> None:
        vc = self._clock_of(core_id)
        vc[core_id] = vc.get(core_id, 0) + 1
        kind = event.kind
        if kind is EventKind.POST:
            key = (id(event.mailbox), event.sync_key)
            snapshot = self._mail.setdefault(key, {})
            _join(snapshot, vc)
        elif kind is EventKind.WAIT:
            self._sync_acquire(vc, self._mail.get((id(event.mailbox), event.sync_key)))
        elif kind is EventKind.READ:
            self._on_read(core_id, event, vc, instr_index)
        elif kind is EventKind.WRITE:
            self._on_write(core_id, event, vc, instr_index)
        elif kind is EventKind.ATOMIC:
            self._on_atomic(core_id, event, vc, instr_index)
        # COMPUTE, FENCE and PRESTORE only tick the local clock: a fence
        # orders nothing across cores by itself (visibility is checked
        # against the live store buffers instead).

    def _sync_acquire(self, vc: VectorClock, released: Optional[VectorClock]) -> None:
        _join(vc, released)

    # -- access checks ---------------------------------------------------------

    def _state(self, line: int) -> _LineState:
        state = self._lines.get(line)
        if state is None:
            state = _LineState()
            self._lines[line] = state
        return state

    def _on_read(self, core_id: int, event: Event, vc: VectorClock, instr_index: int) -> None:
        locks = self._lockset(core_id)
        for line in event.lines(self._line_size):
            if not event.relaxed:
                self._check_visibility(core_id, event, line, instr_index)
            state = self._state(line)
            write = state.write
            if (
                write is not None
                and write.core_id != core_id
                and not self._ordered_before(write, vc)
                and not (write.locks & locks)
                and not (event.relaxed or write.relaxed)
            ):
                self._report(
                    "race.write-read",
                    f"read is unordered with the write by core {write.core_id} "
                    f"at {write.site}",
                    event,
                    core_id,
                    line,
                    instr_index,
                    other=write.site,
                )
            state.reads[core_id] = _Access(
                core_id, vc[core_id], event.site, instr_index, locks, event.relaxed
            )

    def _on_write(self, core_id: int, event: Event, vc: VectorClock, instr_index: int) -> None:
        for line in event.lines(self._line_size):
            self._check_write(core_id, event, vc, line, instr_index)
        self._note_store(core_id, event)

    def _on_atomic(self, core_id: int, event: Event, vc: VectorClock, instr_index: int) -> None:
        held = self._held.setdefault(core_id, set())
        for line in event.lines(self._line_size):
            # Paired atomics on one line are the lock/unlock idiom (CLHT
            # bucket locks, Masstree leaf versions): toggle held state so
            # the lockset check sees the critical section.  An unlock is
            # still *inside* its critical section — the lock is dropped
            # only after this event's own access is checked and recorded.
            acquiring = line not in held
            if acquiring:
                held.add(line)
            # Acquire whatever the previous atomic on this line released
            # *before* the conflict check: lock-ordered critical sections
            # are not races.
            self._sync_acquire(vc, self._released.get(line))
            self._check_write(core_id, event, vc, line, instr_index)
            released = self._released.setdefault(line, {})
            _join(released, vc)
            if not acquiring:
                held.discard(line)
        # The drain that accompanies an atomic makes this core's earlier
        # stores visible; forget their parked-site bookkeeping.
        self._forget_stores(core_id)

    def _lockset(self, core_id: int) -> FrozenSet[int]:
        held = self._held.get(core_id)
        return frozenset(held) if held else frozenset()

    def _check_write(
        self, core_id: int, event: Event, vc: VectorClock, line: int, instr_index: int
    ) -> None:
        locks = self._lockset(core_id)
        relaxed = event.relaxed
        state = self._state(line)
        write = state.write
        if (
            write is not None
            and write.core_id != core_id
            and not self._ordered_before(write, vc)
            and not (write.locks & locks)
            and not (relaxed or write.relaxed)
        ):
            self._report(
                "race.write-write",
                f"write is unordered with the write by core {write.core_id} "
                f"at {write.site}",
                event,
                core_id,
                line,
                instr_index,
                other=write.site,
            )
        for read in state.reads.values():
            if (
                read.core_id != core_id
                and not self._ordered_before(read, vc)
                and not (read.locks & locks)
                and not (relaxed or read.relaxed)
            ):
                self._report(
                    "race.read-write",
                    f"write is unordered with the read by core {read.core_id} "
                    f"at {read.site}",
                    event,
                    core_id,
                    line,
                    instr_index,
                    other=read.site,
                )
        state.write = _Access(core_id, vc[core_id], event.site, instr_index, locks, relaxed)
        state.reads.clear()

    # -- visibility races -------------------------------------------------------

    def _note_store(self, core_id: int, event: Event) -> None:
        for line in event.lines(self._line_size):
            self._store_sites[(core_id, line)] = (event.site, 0)

    def _forget_stores(self, core_id: int) -> None:
        for key in [k for k in self._store_sites if k[0] == core_id]:
            del self._store_sites[key]

    def _check_visibility(self, core_id: int, event: Event, line: int, instr_index: int) -> None:
        """Flag reads of a line parked invisible in another core's buffer.

        A parked store (``visibility_of == inf``) has not even started its
        round trip to a globally visible level — only the weak model parks
        stores — so this read observed the *old* data no matter what
        mailbox edge ordered the instructions.
        """
        machine = self._machine
        if machine is None:
            return
        for core in machine.cores:
            if core.core_id == core_id:
                continue
            if core.store_buffer.visibility_of(line) == math.inf:
                writer = self._store_sites.get((core.core_id, line))
                writer_site = writer[0] if writer is not None else None
                self._report(
                    "race.visibility",
                    f"read observes stale data: the latest write by core "
                    f"{core.core_id} is still parked invisible in its store "
                    f"buffer (weak model); fence or demote the line before "
                    f"publishing",
                    event,
                    core_id,
                    line,
                    instr_index,
                    other=writer_site,
                )
