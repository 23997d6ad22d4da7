"""The workload programming interface.

Workloads are written as ordinary Python generator functions that receive
a :class:`ThreadCtx` and ``yield`` the events it builds::

    def body(t: ThreadCtx):
        buf = t.alloc(4096, label="buf")
        with t.function("fill", file="demo.c", line=10):
            yield from t.write_block(buf, 4096)
            yield t.prestore(buf, 4096, PrestoreOp.CLEAN)
        yield t.fence()

:class:`Program` binds one :class:`ThreadCtx` per thread to a machine
core and drives the machine's time-ordered scheduler.  The allocator
hands out disjoint aligned regions of the simulated address space, and
:meth:`ThreadCtx.function` labels events with the (function, file, line)
provenance DirtBuster reports.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.prestore import PrestoreOp
from repro.errors import AllocationError, ConfigurationError, SimulationError, WorkloadError
from repro.sim.event import READ, UNKNOWN_SITE, WRITE, CodeSite, Event, EventKind, Mailbox
from repro.sim.machine import Machine, MachineSpec, Tracer
from repro.sim.stats import RunResult

__all__ = ["Allocator", "Mailbox", "Region", "ThreadCtx", "Program", "ThreadBodyFn"]

#: A workload thread: generator function taking its ThreadCtx.
ThreadBodyFn = Callable[["ThreadCtx"], Iterator[Event]]

_fast_access = Event.fast_access

#: Simulated address space: allocations start above the null page.
_BASE_ADDRESS = 1 << 20
_ADDRESS_LIMIT = 1 << 46


class Region:
    """A contiguous allocated range of simulated memory."""

    __slots__ = ("base", "size", "label")

    def __init__(self, base: int, size: int, label: str) -> None:
        self.base = base
        self.size = size
        self.label = label

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, offset: int) -> int:
        """Byte address at ``offset``, bounds-checked."""
        if not 0 <= offset < self.size:
            raise AllocationError(
                f"offset {offset} outside region {self.label!r} of size {self.size}"
            )
        return self.base + offset

    def __contains__(self, address: int) -> bool:
        return self.base <= address < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.label!r}, base={self.base:#x}, size={self.size})"


class Allocator:
    """Bump allocator over the simulated address space.

    Allocations are padded to cache-line alignment so distinct objects
    never share a line (as a real allocator's size classes ensure for the
    object sizes these workloads use).
    """

    def __init__(self, line_size: int, base: int = _BASE_ADDRESS) -> None:
        if line_size <= 0:
            raise ConfigurationError("line size must be positive")
        self.line_size = line_size
        self._next = base
        self.regions: List[Region] = []

    def alloc(self, size: int, label: str = "anon", align: Optional[int] = None) -> Region:
        """Allocate ``size`` bytes, aligned to ``align`` (default: line)."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        alignment = align or self.line_size
        if alignment & (alignment - 1):
            raise AllocationError(f"alignment must be a power of two, got {alignment}")
        base = (self._next + alignment - 1) // alignment * alignment
        if base + size > _ADDRESS_LIMIT:
            raise AllocationError("simulated address space exhausted")
        # Pad to line size so neighbouring allocations never false-share.
        self._next = (base + size + self.line_size - 1) // self.line_size * self.line_size
        region = Region(base, size, label)
        self.regions.append(region)
        return region

    def region_of(self, address: int) -> Optional[Region]:
        """The region containing ``address``, if any (linear scan)."""
        for region in self.regions:
            if address in region:
                return region
        return None


class ThreadCtx:
    """Event factory bound to one simulated thread.

    All methods are cheap constructors — nothing executes until the
    generated events are consumed by the machine scheduler, which is what
    lets multiple thread bodies interleave by simulated time.
    """

    def __init__(
        self,
        tid: int,
        allocator: Allocator,
        line_size: int,
        seed: int,
        emit_streams: bool = False,
        core: Optional[object] = None,
    ) -> None:
        self.tid = tid
        self.allocator = allocator
        self.line_size = line_size
        self.rng = random.Random(seed)
        #: The machine core this thread runs on (set by Program.spawn);
        #: lets generator code read simulated time between yields.
        self.core = core
        #: When set, the block helpers emit one batched STREAM event per
        #: run instead of one READ/WRITE per chunk.  The machine expands
        #: streams with bit-identical semantics (DESIGN.md §11), so this
        #: only changes interpretation speed, never results.
        self.emit_streams = emit_streams
        self._site_stack: List[CodeSite] = []
        self._site_cache: Dict[Tuple[str, str, int], CodeSite] = {}
        #: ``(site, callchain)`` of the innermost open :meth:`function`
        #: block, rebuilt on every push and pop so the event helpers read
        #: one attribute instead of copying the stack per event.
        self._prov: Tuple[CodeSite, Tuple[CodeSite, ...]] = (UNKNOWN_SITE, ())

    # -- provenance ------------------------------------------------------------

    @contextmanager
    def function(self, name: str, file: str = "<workload>", line: int = 0) -> Iterator[None]:
        """Label subsequently built events as coming from ``name``.

        Nested uses build the callchain, innermost last — the shape perf
        reports and DirtBuster groups by (Section 6.2.1).
        """
        key = (name, file, line)
        site = self._site_cache.get(key)
        if site is None:
            site = CodeSite(function=name, file=file, line=line)
            self._site_cache[key] = site
        stack = self._site_stack
        self._prov = (site, tuple(stack))
        stack.append(site)
        try:
            yield
        finally:
            stack.pop()
            # Rebuilt from the stack rather than restored from a saved
            # pair, so it matches the stack even when generators holding
            # open blocks finish out of order.
            self._prov = (stack[-1], tuple(stack[:-1])) if stack else (UNKNOWN_SITE, ())

    @property
    def current_site(self) -> CodeSite:
        return self._prov[0]

    # -- simulated time -----------------------------------------------------------

    def now(self) -> float:
        """This thread's simulated clock, in cycles.

        Generator code between ``yield``s runs *after* the yielded event
        completed, so ``now()`` reads the completion time of the last
        event — identically in the reference and stream vocabularies
        (a stream resumes the generator only once fully executed).
        """
        if self.core is None:
            raise WorkloadError("ThreadCtx.now() needs a machine core (spawn via Program)")
        return self.core.clock

    # -- allocation ---------------------------------------------------------------

    def alloc(self, size: int, label: str = "anon", align: Optional[int] = None) -> Region:
        return self.allocator.alloc(size, label=label, align=align)

    # -- single events ---------------------------------------------------------------
    #
    # Each helper runs only the checks Event._validate applies to its kind,
    # with the same messages, then builds through the non-validating
    # factories (DESIGN.md §11, "Single events").

    def read(self, addr: int, size: int = 8, relaxed: bool = False) -> Event:
        """A load; ``relaxed`` marks intentionally unsynchronised reads
        (optimistic / version-validated protocols) for the sanitizer."""
        if size <= 0:
            raise SimulationError(f"read event requires size > 0, got {size}")
        if addr < 0:
            raise SimulationError(f"read event requires addr >= 0, got {addr}")
        site, chain = self._prov
        return _fast_access(READ, addr, size, False, relaxed, site, chain)

    def write(
        self, addr: int, size: int = 8, nontemporal: bool = False, relaxed: bool = False
    ) -> Event:
        if size <= 0:
            raise SimulationError(f"write event requires size > 0, got {size}")
        if addr < 0:
            raise SimulationError(f"write event requires addr >= 0, got {addr}")
        site, chain = self._prov
        return _fast_access(WRITE, addr, size, nontemporal, relaxed, site, chain)

    def compute(self, instructions: int = 1) -> Event:
        if instructions <= 0:
            raise SimulationError(
                f"compute event requires a positive instruction count, got {instructions}"
            )
        site, chain = self._prov
        return Event.fast(EventKind.COMPUTE, size=instructions, site=site, callchain=chain)

    def fence(self, scope: str = "full") -> Event:
        """A memory fence; ``scope="load"`` is an acquire/read fence."""
        site, chain = self._prov
        return Event.fast(EventKind.FENCE, fence_scope=scope, site=site, callchain=chain)

    def atomic(self, addr: int, size: int = 8) -> Event:
        if size <= 0:
            raise SimulationError(f"atomic event requires size > 0, got {size}")
        if addr < 0:
            raise SimulationError(f"atomic event requires addr >= 0, got {addr}")
        site, chain = self._prov
        return Event.fast(EventKind.ATOMIC, addr=addr, size=size, site=site, callchain=chain)

    def prestore(self, addr: int, size: int, op: PrestoreOp) -> Event:
        if size <= 0:
            raise SimulationError(f"prestore event requires size > 0, got {size}")
        if addr < 0:
            raise SimulationError(f"prestore event requires addr >= 0, got {addr}")
        if op is None:
            raise SimulationError("prestore event requires an op (DEMOTE or CLEAN)")
        site, chain = self._prov
        return Event.fast(
            EventKind.PRESTORE, addr=addr, size=size, op=op, site=site, callchain=chain
        )

    def post(self, mailbox: Mailbox, key: object) -> Event:
        """Publish a synchronisation timestamp (a partner's WAIT unblocks)."""
        if mailbox is None:
            raise SimulationError("post event requires a mailbox")
        site, chain = self._prov
        return Event.fast(
            EventKind.POST, mailbox=mailbox, sync_key=key, site=site, callchain=chain
        )

    def wait(self, mailbox: Mailbox, key: object) -> Event:
        """Spin until ``key`` is posted; the clock advances to the post time."""
        if mailbox is None:
            raise SimulationError("wait event requires a mailbox")
        site, chain = self._prov
        return Event.fast(
            EventKind.WAIT, mailbox=mailbox, sync_key=key, site=site, callchain=chain
        )

    # -- compound access helpers ---------------------------------------------------

    def write_block(
        self, addr: int, size: int, nontemporal: bool = False, chunk: Optional[int] = None
    ) -> Iterator[Event]:
        """Sequential stores covering ``[addr, addr + size)``.

        Emits one store per ``chunk`` bytes (default: one per cache line),
        the granularity real store instructions dirty lines at.  With
        :attr:`emit_streams` set, multi-access runs become one batched
        STREAM_WRITE event the machine expands inline.
        """
        step = chunk or self.line_size
        if self.emit_streams and size > step:
            site, chain = self._prov
            yield Event.stream(
                EventKind.WRITE,
                addr=addr,
                size=size,
                chunk=step,
                nontemporal=nontemporal,
                site=site,
                callchain=chain,
            )
            return
        offset = 0
        while offset < size:
            length = min(step, size - offset)
            yield self.write(addr + offset, length, nontemporal=nontemporal)
            offset += length

    def read_block(
        self, addr: int, size: int, chunk: Optional[int] = None, relaxed: bool = False
    ) -> Iterator[Event]:
        """Sequential loads covering ``[addr, addr + size)``."""
        step = chunk or self.line_size
        if self.emit_streams and size > step:
            site, chain = self._prov
            yield Event.stream(
                EventKind.READ,
                addr=addr,
                size=size,
                chunk=step,
                relaxed=relaxed,
                site=site,
                callchain=chain,
            )
            return
        offset = 0
        while offset < size:
            length = min(step, size - offset)
            yield self.read(addr + offset, length, relaxed=relaxed)
            offset += length

    def read_strided(self, addr: int, size: int, stride: int, count: int) -> Iterator[Event]:
        """``count`` loads of ``size`` bytes at ``addr``, ``addr + stride``, ...

        With :attr:`emit_streams` set, a multi-access run is one strided
        STREAM_READ; otherwise each load is its own :meth:`read` event.
        """
        if stride < size:
            raise SimulationError(f"strided reads require stride >= size, got {stride} < {size}")
        if self.emit_streams and count > 1:
            site, chain = self._prov
            yield Event.stream(
                EventKind.READ,
                addr=addr,
                size=(count - 1) * stride + size,
                chunk=size,
                stride=stride,
                site=site,
                callchain=chain,
            )
            return
        for k in range(count):
            yield self.read(addr + k * stride, size)

    def memcpy(self, dst: int, src: int, size: int) -> Iterator[Event]:
        """Load-then-store copy at line granularity."""
        step = self.line_size
        offset = 0
        while offset < size:
            length = min(step, size - offset)
            yield self.read(src + offset, length)
            yield self.write(dst + offset, length)
            offset += length

    def memset(self, addr: int, size: int, nontemporal: bool = False) -> Iterator[Event]:
        """Store-only fill (``memset``) at line granularity."""
        return self.write_block(addr, size, nontemporal=nontemporal)


def _default_streams() -> bool:
    """Batched emission is the default; REPRO_SIM_REFERENCE=1 opts out.

    The reference (one event per access) vocabulary remains available
    for debugging and for the equivalence suite, which runs both paths
    and asserts bit-identical results.
    """
    return os.environ.get("REPRO_SIM_REFERENCE", "").lower() not in ("1", "true", "yes")


class Program:
    """Binds thread bodies to a machine and runs them to completion.

    ``streams`` selects the event vocabulary the block helpers use:
    batched STREAM events (True, the default) or the reference one-event-
    per-access form (False); ``None`` defers to the
    ``REPRO_SIM_REFERENCE`` environment variable.  Results are
    bit-identical either way (DESIGN.md §11).

    ``tracer`` is the run's observer (:class:`~repro.sim.machine.Tracer`):
    a DirtBuster tracer, a :class:`~repro.sanitize.Sanitizer` (findings
    land on ``RunResult.diagnostics``) or an
    :class:`~repro.obs.ObsCollector` (the sampled timeline lands on
    ``RunResult.timeline``); more attach through
    ``program.machine.attach_observer``.  Without one the run costs
    nothing extra — the machine dispatches to an empty observer tuple.
    """

    def __init__(
        self,
        spec: MachineSpec,
        tracer: Optional[Tracer] = None,
        seed: int = 1234,
        streams: Optional[bool] = None,
    ) -> None:
        self.machine = Machine(spec)
        if tracer is not None:
            self.machine.attach_observer(tracer)
        self.allocator = Allocator(spec.line_size)
        #: The run seed, public so workloads can derive deterministic
        #: auxiliary state (arrival schedules, client streams) from it.
        self.seed = seed
        self.streams = _default_streams() if streams is None else bool(streams)
        self._bodies: List[Iterator[Event]] = []
        self._contexts: List[ThreadCtx] = []
        self.work_items = 0

    def spawn(self, body: ThreadBodyFn, *args: object, **kwargs: object) -> ThreadCtx:
        """Register one thread running ``body(ctx, *args, **kwargs)``."""
        if len(self._bodies) >= self.machine.spec.num_cores:
            raise WorkloadError(
                f"cannot spawn more threads than cores ({self.machine.spec.num_cores})"
            )
        ctx = ThreadCtx(
            tid=len(self._bodies),
            allocator=self.allocator,
            line_size=self.machine.line_size,
            seed=self.seed + 7919 * len(self._bodies),
            emit_streams=self.streams,
            core=self.machine.cores[len(self._bodies)],
        )
        self._contexts.append(ctx)
        self._bodies.append(body(ctx, *args, **kwargs))
        return ctx

    @property
    def bodies(self) -> List[Iterator[Event]]:
        """The spawned thread generators, in spawn order.

        Consumers other than :meth:`run` — the crashcheck IR extractor
        drains these directly, without a machine — get the live iterators;
        a program whose bodies were consumed elsewhere cannot also run.
        """
        return list(self._bodies)

    def add_work(self, items: int = 1) -> None:
        """Count completed application-level work (for throughput)."""
        self.work_items += items

    def run(self) -> RunResult:
        """Run all spawned threads; returns the machine's statistics."""
        if not self._bodies:
            raise WorkloadError("spawn at least one thread before run()")
        result = self.machine.run(self._bodies)
        result.work_items = self.work_items
        return result
