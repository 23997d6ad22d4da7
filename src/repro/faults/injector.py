"""Fault injection: the crash trigger and the persistence-tracking device.

Two cooperating pieces realise a :class:`~repro.faults.plan.FaultPlan`:

* :class:`FaultInjector` wraps ``machine.step`` with a pre-event hook
  and is the machine's stream horizon
  (:class:`~repro.sim.machine.StreamHorizon`).  The hook bumps per-line
  store version counters *before* a store executes (so a non-temporal
  store's device writeback observes its own version) and raises
  :class:`CrashSignal` when the plan's crash point is reached.  Streams
  keep their fused loops: the horizon caps each fused run at the crash
  cycle and instruction, bumps each store access's versions on the
  loops' per-access hook, and the machine steps the access at the cap
  at once — so crash points land at true event boundaries, the same
  ones the reference vocabulary gives.

* :class:`FaultDevice` replaces the machine's
  :class:`~repro.sim.memory.MemoryDevice` and tracks, per cache line,
  which store version has been *accepted* (reached a write-combiner
  entry — Optane's ADR persistence domain) and which is *media-committed*
  (its combiner entry closed).  The
  :attr:`~repro.sim.memory.WriteCombiner.on_close` hook tells it the
  exact moment an entry closes.  It also injects the plan's transient
  read faults and degraded-bandwidth phases.

Timing side effects of the tracking itself are zero: the device delegates
all accounting to the base class and only adds bookkeeping (the fused
loops reach it through the same bound methods as the base device), so a
run under an *empty* plan never constructs these objects at all and stays
bit-identical to a plain run.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.plan import BandwidthPhase, FaultPlan
from repro.sim.event import STREAM_WRITE, Event, EventKind
from repro.sim.machine import Machine, StreamHorizon
from repro.sim.memory import DeviceSpec, MemoryDevice

__all__ = ["CrashSignal", "FaultDevice", "FaultInjector"]


class CrashSignal(Exception):
    """Control-flow signal: simulated power failed at an event boundary.

    Raised out of the scheduler loop by :class:`FaultInjector`; the
    harness catches it, snapshots partial statistics and captures the
    persistent image.  Not a :class:`~repro.errors.ReproError` — it is
    not a failure of the simulation, it *is* the simulation.
    """

    def __init__(self, core_id: int, cycle: float, instruction: int) -> None:
        super().__init__(
            f"simulated power failure on core {core_id} at cycle {cycle:.0f} "
            f"(instruction {instruction})"
        )
        self.core_id = core_id
        self.cycle = cycle
        self.instruction = instruction


def _promote_block(
    pending_blocks: Dict[int, Dict[int, int]], media: Dict[int, int], block: int
) -> None:
    """A combiner entry closed: its pending bytes are media-durable."""
    pending = pending_blocks.pop(block, None)
    if not pending:
        return
    for line, version in pending.items():
        if media.get(line, 0) < version:
            media[line] = version


class FaultDevice(MemoryDevice):
    """A :class:`MemoryDevice` that tracks durability and injects faults."""

    def __init__(self, spec: DeviceSpec, plan: FaultPlan, line_size: int) -> None:
        super().__init__(spec)
        self.plan = plan
        self.line_size = line_size
        #: line -> latest version the program stored (injector-bumped).
        self.line_versions: Dict[int, int] = {}
        #: line -> newest version accepted into the combiner (ADR domain).
        self.accepted_versions: Dict[int, int] = {}
        #: line -> newest version whose combiner entry closed to media.
        self.media_versions: Dict[int, int] = {}
        #: open combiner entries: block -> {line: accepted version}.
        self.pending_blocks: Dict[int, Dict[int, int]] = {}
        # Bound to the two tables, not to the device: a bound method
        # would make device -> combiner -> device a reference cycle.
        self.combiner.on_close = partial(_promote_block, self.pending_blocks, self.media_versions)
        self._read_index = 0
        self._read_faults = {f.at_read: f for f in plan.read_faults}
        self._phases: Tuple[BandwidthPhase, ...] = plan.bandwidth_phases
        self._phases_hit: List[bool] = [False] * len(self._phases)
        self.read_faults_injected = 0
        self.degraded_accesses = 0
        #: (cycle, kind, detail) markers for the obs trace/log.
        self.fault_events: List[Tuple[float, str, str]] = []

    # -- version bookkeeping -------------------------------------------------

    def bump_versions(self, lines: "range | List[int]") -> None:
        """A store to ``lines`` is about to execute (injector pre-hook)."""
        versions = self.line_versions
        for line in lines:
            versions[line] = versions.get(line, 0) + 1

    # -- faulty/tracked device operations ------------------------------------

    def write_back(self, addr: int, size: int, now: float) -> float:
        # Register acceptance *before* delegating: the combiner may close
        # the very entry this writeback opens (capacity-1 thrash), and the
        # on_close callback must already see these lines as pending.
        first = addr // self.line_size
        last = (addr + max(size, 1) - 1) // self.line_size
        gran = self.spec.internal_granularity
        for line in range(first, last + 1):
            version = self.line_versions.get(line, 0)
            if self.accepted_versions.get(line, 0) < version:
                self.accepted_versions[line] = version
            block = (line * self.line_size) // gran
            entry = self.pending_blocks.setdefault(block, {})
            if entry.get(line, 0) < version:
                entry[line] = version
        return super().write_back(addr, size, now)

    def read(self, addr: int, size: int, now: float) -> float:
        self._read_index += 1
        fault = self._read_faults.get(self._read_index)
        done = super().read(addr, size, now)
        if fault is not None:
            self.read_faults_injected += 1
            self.fault_events.append(
                (now, "read_fault", f"read #{fault.at_read}: +{fault.extra_latency:g} cycles")
            )
            done += fault.extra_latency
        return done

    def _media_occupancy_bytes(self, now: float, nbytes: int) -> int:
        # Every media-consuming access routes through this seam — demand
        # reads, combiner closes, and the final flush — so a degraded
        # phase slows *live* traffic, not just the drain (its window is
        # simulated time, which under open-loop load is arrival time).
        phase = self._phase_at(now)
        if phase is not None and nbytes > 0:
            self.degraded_accesses += 1
            nbytes = int(nbytes * phase.slowdown)
        return nbytes

    def _phase_at(self, now: float) -> Optional[BandwidthPhase]:
        for i, phase in enumerate(self._phases):
            if phase.start_cycle <= now < phase.end_cycle:
                if not self._phases_hit[i]:
                    self._phases_hit[i] = True
                    self.fault_events.append(
                        (
                            now,
                            "degraded_phase",
                            f"media bandwidth /{phase.slowdown:g} until "
                            f"cycle {phase.end_cycle:g}",
                        )
                    )
                return phase
        return None


class FaultInjector(StreamHorizon):
    """``step`` pre-hook and stream horizon realising a plan's crash point.

    Single events and unrolled stream accesses meet the crash check and
    the version bump in the wrapped ``machine.step``, which runs
    *before* each event executes.  Fused stream runs meet them through
    :meth:`limits` and :meth:`before_accesses`.
    """

    def __init__(self, plan: FaultPlan, device: FaultDevice) -> None:
        self.plan = plan
        self.device = device
        self.machine: Optional[Machine] = None
        self.crashed = False
        self._orig_step = None

    def install(self, machine: Machine) -> None:
        """Attach to ``machine``: stream horizon + shadowed ``step``.

        Both point back at this injector; the machine drops them at the
        end of its run, so the pair forms no lasting reference cycle.
        """
        self.machine = machine
        machine.horizon = self
        self._orig_step = machine.step
        machine.step = self._wrapped_step  # type: ignore[method-assign]

    def _wrapped_step(self, core, event: Event) -> None:
        self._before_event(core, event)
        assert self._orig_step is not None
        self._orig_step(core, event)

    def _before_event(self, core, event: Event) -> None:
        machine = self.machine
        assert machine is not None
        crash = self.plan.crash
        if crash is not None and not self.crashed:
            if (
                crash.at_instruction is not None
                and machine.instruction_count >= crash.at_instruction
            ) or (crash.at_cycle is not None and core.clock >= crash.at_cycle):
                self.crashed = True
                self.device.fault_events.append(
                    (core.clock, "crash", f"power failure on core {core.stats.core_id}")
                )
                raise CrashSignal(core.stats.core_id, core.clock, machine.instruction_count)
        kind = event.kind
        if kind is EventKind.WRITE or kind is EventKind.ATOMIC:
            self.device.bump_versions(event.lines(machine.line_size))

    # -- stream horizon ------------------------------------------------------

    def limits(self, core) -> Tuple[float, Optional[int]]:
        """Stop fused runs before the access the crash check would fire on."""
        crash = self.plan.crash
        if crash is None:
            return math.inf, None
        cycle = math.inf if crash.at_cycle is None else crash.at_cycle
        if crash.at_instruction is None:
            return cycle, None
        assert self.machine is not None
        return cycle, crash.at_instruction - self.machine.instruction_count

    def before_accesses(self, core, event: Event) -> Optional[Callable[[float], None]]:
        """Bump each store access's line versions before it executes."""
        if event.kind is not STREAM_WRITE:
            return None
        assert self.machine is not None
        versions = self.device.line_versions
        get = versions.get
        line_size = self.machine.line_size
        chunk = event.chunk
        end = event.addr + event.size
        starts = iter(range(event.addr, end, event.stride))

        def bump(clock: float) -> None:
            a = next(starts)
            line = a // line_size
            last = ((a + chunk if a + chunk < end else end) - 1) // line_size
            while line <= last:
                versions[line] = get(line, 0) + 1
                line += 1

        return bump
