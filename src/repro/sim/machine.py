"""Machine assembly and the multi-core scheduler.

:class:`MachineSpec` bundles the geometry and timing of a whole platform;
:class:`Machine` instantiates it and runs event-generator "threads" on its
cores, interleaving them by simulated time — which is precisely the
mechanism that scrambles last-level-cache access order when several
threads write concurrently (Section 4.1: "The interleaving of the memory
accesses performed by the threads results in seemingly random memory
accesses at the Last Level Cache").

Presets model the paper's two platforms:

* :func:`machine_a` — Machine A: Xeon-like cores (64 B lines, TSO) in
  front of Optane persistent memory (256 B internal granularity).
* :func:`machine_b_fast` / :func:`machine_b_slow` — Machine B: Enzian,
  ThunderX-like cores (128 B lines, weak memory model) in front of
  cache-coherent FPGA memory at 60 cyc / 10 GB/s or 200 cyc / 1.5 GB/s.

Cache and working-set sizes are scaled down so pure-Python runs finish in
seconds; all experiments report relative numbers (see DESIGN.md §1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.cache import CacheHierarchy, CacheLevel, CacheLevelSpec
from repro.sim.coherence import VisibilityModel
from repro.sim.cpu import Core
from repro.sim.event import COMPUTE, READ, STREAM_READ, STREAM_WRITE, WAIT, WRITE, Event
from repro.sim.memory import (
    DeviceSpec,
    MemoryDevice,
    cxl_ssd_spec,
    dram_spec,
    fpga_spec,
    optane_pmem_spec,
)
from repro.sim.replacement import make_policy
from repro.sim.stats import RunResult

__all__ = [
    "MachineSpec",
    "Machine",
    "Tracer",
    "StreamHorizon",
    "machine_a",
    "machine_a_cxl",
    "machine_b_fast",
    "machine_b_slow",
    "machine_dram",
    "PRESETS",
]

#: A thread body: an iterator of events (usually a generator).
ThreadBody = Iterator[Event]


def _pick(live: List[List]) -> Tuple[List, float, float]:
    """The next thread to run and the clock bounds it may run ahead to.

    Returns the first live entry with the smallest core clock — the pick
    ``min()`` makes — with ``strict``, the smallest clock among entries
    listed before it, and ``loose``, the smallest among those after it.
    While the picked core's clock stays below ``strict`` and at or below
    ``loose``, the pick would be the same; no other clock moves while it
    runs, so the bounds hold for the whole burst.
    """
    entry = live[0]
    best = entry[0].clock
    strict = loose = math.inf
    for i in range(1, len(live)):
        e = live[i]
        c = e[0].clock
        if c < best:
            strict = best
            loose = math.inf
            best = c
            entry = e
        elif c < loose:
            loose = c
    return entry, strict, loose


class Tracer:
    """Every observer's interface: DirtBuster tracers, sanitizer, obs.

    A run takes one observer as ``tracer=`` (``Program``,
    ``Workload.run``, ``run_with_faults``); more attach through
    :meth:`Machine.attach_observer`.  Observers watch a run and never
    change its timing.

    The machine calls :meth:`record` for every executed event with the
    executing core's retired-instruction index — the per-thread counter
    DirtBuster distances are measured in (Section 6.2.3; PIN counts
    instructions per thread) — and the cycles the event consumed, which
    timer-based samplers (perf) weight their samples by.  Two optional
    hooks: ``attach(machine)``, called when the observer is attached,
    and ``finish(machine, result)``, called once the run's statistics
    are snapshotted (after a clean finish and after a crash's abort
    alike) — where the sanitizer publishes ``result.diagnostics`` and
    the obs collector ``result.timeline``.

    An observer that also defines ``record_stream(core_id, kind, addr,
    size, chunk, stride, nontemporal, index, clocks, site, callchain)``
    takes fused stream runs in bulk (DESIGN.md §18, "Observed streams"):
    when every attached observer does, the machine runs a stream's fused
    loop and hands over the executed part once.  Access *k* of it is a
    ``kind`` (READ or WRITE, non-temporal when ``nontemporal``) at
    ``addr + k*stride`` of ``min(chunk, size - k*stride)`` bytes,
    instruction index ``index + k``, taking ``clocks[k+1] - clocks[k]``
    cycles — exactly the record the unrolled path would pass to
    :meth:`record`.
    """

    def record(
        self, core_id: int, event: Event, instr_index: int, cycles: float
    ) -> None:  # pragma: no cover
        raise NotImplementedError


def _both(
    first: Callable[[float], None], second: Callable[[float], None]
) -> Callable[[float], None]:
    """One per-access hook calling ``first`` then ``second``."""

    def both(clock: float) -> None:
        first(clock)
        second(clock)

    return both


class StreamHorizon:
    """A bound on fused stream runs, with a hook before each access.

    A machine holds at most one, in :attr:`Machine.horizon` (the fault
    injector is one; DESIGN.md §18, "Horizons").  Before each fused run
    the machine asks :meth:`limits` how far the run may go, and calls
    the hook :meth:`before_accesses` returns with each access's start
    clock before the access executes.  When the run stops at the
    horizon while the scheduler would still pick its core, the machine
    unrolls the rest of the run through ``step`` at once, as the
    unrolled path would, so a ``step`` wrapper sees the next access
    there.  Unrolled streams and single events get no hook calls; they
    go through ``step`` anyway.
    """

    def limits(self, core: Core) -> Tuple[float, Optional[int]]:
        """``(cycle, accesses)``: run while the core clock is below
        ``cycle``, and at most ``accesses`` accesses (None: no cap)."""
        return math.inf, None

    def before_accesses(self, core: Core, event: Event) -> Optional[Callable[[float], None]]:
        """A callable run with each access's start clock, or None."""
        return None


@dataclass(frozen=True)
class MachineSpec:
    """Full static description of a simulated platform."""

    name: str
    line_size: int
    memory_model: str  # "tso" or "weak"
    cache_levels: Tuple[CacheLevelSpec, ...]
    device: DeviceSpec
    replacement_policy: str = "intel-like"
    num_cores: int = 8
    store_buffer_capacity: int = 56
    #: Queued device-write cycles tolerated before stores stall.
    backlog_limit_cycles: float = 400.0
    #: Cost of the RMW part of an atomic, beyond ordering/acquisition.
    atomic_base_cost: int = 12
    #: Pipeline-drain tax on fence/atomic waits: every cycle a fence
    #: spends waiting for store visibility costs this many cycles of lost
    #: execution (retirement blocks, ROB fills, front end restarts).
    fence_stall_multiplier: float = 1.5
    cycles_per_compute: float = 0.5
    seed: int = 42

    def validate(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ConfigurationError(f"line size must be a power of two, got {self.line_size}")
        if not self.cache_levels:
            raise ConfigurationError("a machine needs at least one cache level")
        if self.num_cores <= 0:
            raise ConfigurationError("a machine needs at least one core")
        if self.backlog_limit_cycles < 0:
            raise ConfigurationError(
                f"backlog limit must be non-negative, got {self.backlog_limit_cycles}"
            )
        for spec in self.cache_levels:
            spec.validate(self.line_size)
        self.device.validate()


class Machine:
    """A live simulated platform: caches + device + cores + scheduler."""

    def __init__(self, spec: MachineSpec) -> None:
        spec.validate()
        self.spec = spec
        self.line_size = spec.line_size
        self.device = MemoryDevice(spec.device)
        levels = [
            CacheLevel(
                ls,
                spec.line_size,
                make_policy(spec.replacement_policy, seed=spec.seed + i),
            )
            for i, ls in enumerate(spec.cache_levels)
        ]
        self.hierarchy = CacheHierarchy(levels, spec.line_size)
        self.visibility = VisibilityModel()
        #: line -> core id of the last writer whose copy is still private
        #: (M/E state).  Accessing such a line from another core pays a
        #: directory round trip — on Machine B the directory lives on the
        #: FPGA, so producer/consumer line transfers cost a full device
        #: round trip (Section 4.2).  ``None`` = shared / at the point of
        #: unification (where demote pre-stores push data).
        self.line_owner: Dict[int, int] = {}
        self.cores = [Core(i, self) for i in range(spec.num_cores)]
        self._instr_index = 0
        self._finished = False
        #: Every subscribed observer (DirtBuster tracers, sanitizers, obs
        #: samplers), in attach order.  ``_dispatch`` is the hot-path
        #: tuple mirror: an empty run costs one falsy check per event.
        self._observers: List[Tracer] = []
        self._dispatch: Tuple[Tracer, ...] = ()
        #: Every observer's ``record_stream``, or empty when any observer
        #: lacks one (streams then unroll through :meth:`step`).
        self._stream_recorders: Tuple = ()
        #: Stream accesses run by fused loops and one at a time (see
        #: :meth:`path_counts`).
        self._fused = 0
        self._unrolled = 0
        #: The stream horizon, if any (see :class:`StreamHorizon`).
        self.horizon: Optional[StreamHorizon] = None

    # -- observers ------------------------------------------------------------

    def attach_observer(self, observer: Tracer) -> None:
        """Subscribe an observer before :meth:`run`.

        Observers implement the :class:`Tracer` ``record`` interface and
        may additionally define ``attach(machine)`` (called now, for
        machine access) and ``finish(machine, result)`` (called once the
        run's statistics are snapshotted).  Any number may be attached
        simultaneously; they are invoked in attach order.
        """
        if self._finished:
            raise SimulationError("cannot attach an observer to a finished machine")
        attach = getattr(observer, "attach", None)
        if attach is not None:
            attach(self)
        self._observers.append(observer)
        self._update_dispatch()

    def _update_dispatch(self) -> None:
        self._dispatch = tuple(self._observers)
        recorders = tuple(getattr(o, "record_stream", None) for o in self._observers)
        self._stream_recorders = () if None in recorders else recorders

    @property
    def observers(self) -> Tuple[Tracer, ...]:
        return self._dispatch

    # -- running --------------------------------------------------------------

    def run(self, bodies: Sequence[ThreadBody]) -> RunResult:
        """Execute thread bodies to completion and return statistics.

        Threads are assigned to cores round-robin (at most one thread per
        core) and interleaved by simulated time: at each step the thread
        whose core clock is smallest executes its next event, the first
        listed winning ties.

        The scheduler runs ahead (DESIGN.md §11, "Single events"): once
        a core is picked, it keeps executing that core's events while the
        core's clock stays inside the bounds of :func:`_pick` — exactly
        the condition under which the per-event pick would choose it
        again, so the execution order and the order generator bodies
        resume in are those of one pick per event.
        """
        if self._finished:
            raise SimulationError("Machine instances are single-use; build a new one per run")
        if not bodies:
            raise ConfigurationError("run() needs at least one thread body")
        if len(bodies) > len(self.cores):
            raise ConfigurationError(
                f"{len(bodies)} threads exceed the machine's {len(self.cores)} cores"
            )
        live: List[List] = [[self.cores[i], iter(body), None] for i, body in enumerate(bodies)]
        # Bound once: span profilers and the fault injector replace
        # ``step`` on the instance before the run starts, and every
        # single event goes through it.
        step = self.step
        run_stream = self._run_stream
        while live:
            entry, strict, loose = _pick(live)
            core, body, event = entry
            entry[2] = None
            while True:
                if event is None:
                    event = next(body, None)
                    if event is None:
                        live.remove(entry)
                        break
                kind = event.kind
                if kind is WAIT:
                    if not self._wait(core, event, live):
                        entry[2] = event
                        break
                elif kind is STREAM_READ or kind is STREAM_WRITE:
                    # Expanded here, in a tight loop, under the same
                    # bounds; the unexecuted tail waits in the pending
                    # slot for this core's next pick.
                    event = run_stream(core, event, strict, loose)
                    if event is not None:
                        entry[2] = event
                        break
                else:
                    step(core, event)
                clock = core.clock
                if not (clock < strict and clock <= loose):
                    break
                event = None
        return self.finish()

    def _wait(self, core: Core, event: Event, live: List[List]) -> bool:
        """Satisfy a WAIT, or advance a spinning core; False when spinning."""
        posted = event.mailbox.get(event.sync_key)
        if posted is None:
            # Spin: advance past the next other-thread activity so the
            # poster gets to run; the caller re-queues the same event.
            others = [e[0].clock for e in live if e[0] is not core]
            if not others:
                raise SimulationError(
                    f"deadlock: waiting on {event.sync_key!r} with no other runnable thread"
                )
            core.clock = max(core.clock, min(others)) + 1.0
            return False
        core.clock = max(core.clock, posted)
        index = core.stats.instructions
        self._instr_index += 1
        core.stats.instructions += 1
        # Satisfied WAITs are observable: the sanitizer's happens-before
        # pass needs the post->wait edge (a plain tracer sees them too,
        # weighted at zero cycles).
        observers = self._dispatch
        if observers:
            for observer in observers:
                observer.record(core.stats.core_id, event, index, 0.0)
        return True

    def step(self, core: Core, event: Event) -> None:
        """Execute one event on one core (tracing included)."""
        kind = event.kind
        if kind is COMPUTE:
            self._instr_index += event.size
        elif kind is STREAM_READ or kind is STREAM_WRITE:
            # Direct callers (tests, tools) get the whole run at once.
            self._run_stream(core, event)
            return
        else:
            self._instr_index += 1
        observers = self._dispatch
        if not observers:
            core.execute(event)
            return
        index = core.stats.instructions  # per-core, pre-retirement
        before = core.clock
        core.execute(event)
        for observer in observers:
            observer.record(core.stats.core_id, event, index, core.clock - before)

    def _run_stream(
        self,
        core: Core,
        event: Event,
        strict_limit: float = math.inf,
        loose_limit: float = math.inf,
    ) -> Optional[Event]:
        """Execute (part of) a stream event on ``core``.

        Returns ``None`` when the run completed, or the event mutated to
        its unexecuted tail when the scheduler bounds preempted it.

        With observers attached, the fused loop runs only when the core
        fuses this stream and every observer defines ``record_stream``
        (see :class:`Tracer`), which then gets the executed part once.
        Otherwise the stream unrolls through :meth:`step` one access at
        a time, so every observer sees exactly the records the reference
        vocabulary produces.  A :attr:`horizon` bounds the fused run;
        stopped there, the rest of the run unrolls through :meth:`step`
        at once, under the same scheduler bounds.
        """
        index = core.stats.instructions
        # NT stores touch no replacement state: their loop fuses under
        # any policy.
        fused = core._fast_policy or event.nontemporal
        dispatch = self._dispatch
        horizon = self.horizon
        if not fused or (dispatch and not self._stream_recorders):
            # Every access is a real ``step`` call, so observers, span
            # profilers and the fault injector's ``step`` wrapper see it.
            leftover = core.unroll_stream(
                event, partial(self.step, core), strict_limit, loose_limit
            )
            self._unrolled += core.stats.instructions - index
            return leftover
        if not dispatch and horizon is None:
            # The common case: nothing to record, nothing to stop at.
            leftover = core.execute_stream(event, strict_limit, loose_limit)
            executed = core.stats.instructions - index
            self._instr_index += executed
            self._fused += executed
            return leftover
        addr, size, stride = event.addr, event.size, event.stride
        note: Optional[Callable[[float], None]] = None
        clocks: Optional[List[float]] = None
        if dispatch:
            clocks = []
            note = clocks.append
        stop = strict_limit
        capped = False
        if horizon is not None:
            bump = horizon.before_accesses(core, event)
            if bump is not None:
                note = bump if clocks is None else _both(clocks.append, bump)
            cycle, accesses = horizon.limits(core)
            if cycle < stop:
                stop = cycle
            if accesses is not None and accesses * stride < size:
                # Run the first ``accesses`` accesses only; the tail is
                # restored below.
                capped = True
                event.size = max(accesses, 0) * stride
        leftover = core.execute_stream(event, stop, loose_limit, note) if event.size else None
        executed = core.stats.instructions - index
        self._instr_index += executed
        self._fused += executed
        if capped:
            done = executed * stride
            event.addr = addr + done
            event.size = size - done
            leftover = event
        if clocks is not None and executed:
            clocks.append(core.clock)
            cid = core.stats.core_id
            kind = READ if event.kind is STREAM_READ else WRITE
            for record_stream in self._stream_recorders:
                record_stream(
                    cid, kind, addr, min(size, executed * stride), event.chunk, stride,
                    event.nontemporal, index, clocks, event.site, event.callchain,
                )
        if leftover is not None and horizon is not None:
            clock = core.clock
            if clock < strict_limit and clock <= loose_limit:
                # Stopped at the horizon: the unrolled path would step
                # the next access now, with no other core in between.
                # (The fault injector's ``step`` raises on it.)
                index = core.stats.instructions
                leftover = core.unroll_stream(
                    leftover, partial(self.step, core), strict_limit, loose_limit
                )
                self._unrolled += core.stats.instructions - index
        return leftover

    def path_counts(self) -> Dict[str, int]:
        """Memory accesses by the path that executed them.

        ``fused`` ran in a fused stream loop; ``unrolled`` were stream
        accesses run one at a time through :meth:`step`, because an
        observer needed per-access records, no fused loop applies
        (cached stores and loads under a non-idempotent policy) or a
        :attr:`horizon` stopped the fused run; ``single`` came as single
        READ/WRITE events (derived, so the unobserved path pays
        nothing).  Not part of the :class:`RunResult`: the two
        vocabularies run the same accesses down different paths.
        """
        accesses = sum(c.stats.reads + c.stats.writes for c in self.cores)
        return {
            "fused": self._fused,
            "unrolled": self._unrolled,
            "single": accesses - self._fused - self._unrolled,
        }

    def finish(self) -> RunResult:
        """Drain caches and devices, then snapshot statistics."""
        if self._finished:
            raise SimulationError("finish() called twice")
        self._finished = True
        end = max((c.clock for c in self.cores), default=0.0)
        for line in self.hierarchy.drain_dirty_lines():
            self.device.write_back(line * self.line_size, self.line_size, end)
        self.device.flush(end)
        return self._finish_observers(self._snapshot(end, self.device.quiesce_time(end)))

    def abort(self) -> RunResult:
        """Snapshot statistics *without* draining: crash semantics.

        At a simulated power failure nothing gets written back — caches,
        store buffers and device queues are simply abandoned, so the
        persistent image the fault harness captures afterwards reflects
        only what already crossed the device boundary.  Observers'
        ``finish`` hooks still run (samplers publish their timelines);
        the machine is finished afterwards (single-use, like
        :meth:`finish`).
        """
        if self._finished:
            raise SimulationError("abort() called on a finished machine")
        self._finished = True
        end = max((c.clock for c in self.cores), default=0.0)
        return self._finish_observers(self._snapshot(end, end))

    def _finish_observers(self, result: RunResult) -> RunResult:
        """Run every observer's post-run ``finish(machine, result)`` hook.

        Samplers capture the drain tail and publish ``result.timeline``,
        trace builders emit counters, the sanitizer publishes
        ``result.diagnostics``.
        """
        for observer in self._dispatch:
            finish = getattr(observer, "finish", None)
            if finish is not None:
                finish(self, result)
        return result

    def _snapshot(self, cycles: float, cycles_with_drain: float) -> RunResult:
        for core in self.cores:
            core.stats.cycles = core.clock
        dev = self.device.stats
        return RunResult(
            machine_name=self.spec.name,
            cycles=cycles,
            cycles_with_drain=cycles_with_drain,
            instructions=sum(c.stats.instructions for c in self.cores),
            cores=[c.stats for c in self.cores],
            cache_hits={l.spec.name: l.stats.hits for l in self.hierarchy.levels},
            cache_misses={l.spec.name: l.stats.misses for l in self.hierarchy.levels},
            cache_evictions={l.spec.name: l.stats.evictions for l in self.hierarchy.levels},
            cache_dirty_evictions={
                l.spec.name: l.stats.dirty_evictions for l in self.hierarchy.levels
            },
            device_writebacks=dev.writebacks_received,
            device_bytes_received=dev.bytes_received,
            device_media_bytes_written=dev.media_bytes_written,
            device_reads=dev.reads,
            device_bytes_read=dev.bytes_read,
        )

    @property
    def instruction_count(self) -> int:
        """Retired instructions so far (the DirtBuster distance clock)."""
        return self._instr_index


# -- presets ---------------------------------------------------------------


def _xeon_levels(llc_kb: int) -> Tuple[CacheLevelSpec, ...]:
    return (
        CacheLevelSpec(name="L1", size_bytes=32 * 1024, ways=8, hit_latency=4),
        CacheLevelSpec(name="L2", size_bytes=128 * 1024, ways=8, hit_latency=14),
        CacheLevelSpec(name="LLC", size_bytes=llc_kb * 1024, ways=16, hit_latency=40, hashed_index=True),
    )


def machine_a(
    llc_kb: int = 512,
    num_cores: int = 10,
    pmem_bandwidth: float = 1.1,
    seed: int = 42,
) -> MachineSpec:
    """Machine A: Xeon Gold-like cores caching Optane persistent memory.

    64 B cache lines in front of a 256 B-granularity medium, TSO
    visibility, Intel-like (PLRU + random) replacement.  The LLC is scaled
    down (default 512 KB vs. the real 27.5 MB) to match scaled workloads.
    """
    return MachineSpec(
        name="machine-A",
        line_size=64,
        memory_model="tso",
        cache_levels=_xeon_levels(llc_kb),
        device=optane_pmem_spec(bandwidth=pmem_bandwidth),
        replacement_policy="intel-like",
        num_cores=num_cores,
        backlog_limit_cycles=400.0,
        seed=seed,
    )


def machine_dram(llc_kb: int = 512, num_cores: int = 10, seed: int = 42) -> MachineSpec:
    """Machine A's geometry with conventional DRAM behind the caches.

    The control platform: 64 B internal granularity means no write
    amplification, so pre-stores should change little — used by overhead
    experiments and tests.
    """
    return MachineSpec(
        name="machine-A-dram",
        line_size=64,
        memory_model="tso",
        cache_levels=_xeon_levels(llc_kb),
        device=dram_spec(),
        replacement_policy="intel-like",
        num_cores=num_cores,
        seed=seed,
    )


def machine_a_cxl(
    llc_kb: int = 512,
    num_cores: int = 10,
    granularity: int = 512,
    seed: int = 42,
) -> MachineSpec:
    """Machine A's CPU in front of byte-addressable CXL-attached storage.

    The architecture the paper's introduction motivates as the coming
    norm (Section 3, Table 1): same x86 cores and caches as Machine A,
    but the cached medium is a CXL SSD with a 256B/512B internal write
    unit, higher latency, and lower bandwidth than Optane — write
    amplification and visibility costs are both amplified.
    """
    return MachineSpec(
        name=f"machine-A-cxl{granularity}",
        line_size=64,
        memory_model="tso",
        cache_levels=_xeon_levels(llc_kb),
        device=cxl_ssd_spec(granularity=granularity),
        replacement_policy="intel-like",
        num_cores=num_cores,
        backlog_limit_cycles=600.0,
        seed=seed,
    )


def _thunderx_levels(l2_kb: int) -> Tuple[CacheLevelSpec, ...]:
    return (
        CacheLevelSpec(name="L1", size_bytes=32 * 1024, ways=8, hit_latency=4),
        CacheLevelSpec(name="L2", size_bytes=l2_kb * 1024, ways=16, hit_latency=30, hashed_index=True),
    )


def _machine_b(
    name: str, fpga_latency: int, fpga_bandwidth: float, l2_kb: int, num_cores: int, seed: int
) -> MachineSpec:
    return MachineSpec(
        name=name,
        line_size=128,
        memory_model="weak",
        cache_levels=_thunderx_levels(l2_kb),
        device=fpga_spec(read_latency=fpga_latency, bandwidth=fpga_bandwidth, line_size=128),
        replacement_policy="arm-like",
        num_cores=num_cores,
        backlog_limit_cycles=600.0,
        atomic_base_cost=20,
        seed=seed,
    )


def machine_b_fast(l2_kb: int = 512, num_cores: int = 12, seed: int = 42) -> MachineSpec:
    """Machine B-Fast: Enzian with the FPGA at 60 cycles / 10 GB/s.

    10 GB/s at ~2 GHz is ~5 bytes/cycle.  Representative of future
    high-end CXL-accessible memory (Section 3).
    """
    return _machine_b("machine-B-fast", 60, 5.0, l2_kb, num_cores, seed)


def machine_b_slow(l2_kb: int = 512, num_cores: int = 12, seed: int = 42) -> MachineSpec:
    """Machine B-Slow: the FPGA at 200 cycles / 1.5 GB/s (~0.75 B/cyc).

    Representative of medium-tier CXL-accessible storage (Section 3).
    """
    return _machine_b("machine-B-slow", 200, 0.75, l2_kb, num_cores, seed)


#: The machine presets by their command-line name; every CLI's
#: ``--machine`` choices are ``sorted(PRESETS)``.
PRESETS: Dict[str, Callable[..., MachineSpec]] = {
    "a": machine_a,
    "dram": machine_dram,
    "a-cxl": machine_a_cxl,
    "b-fast": machine_b_fast,
    "b-slow": machine_b_slow,
}
