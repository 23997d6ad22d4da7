"""The simulated core: executes event streams against the machine state.

Each :class:`Core` owns a clock and a private store buffer and shares the
cache hierarchy and memory device with its siblings.  The execution rules
implement the paper's cost model:

* loads hit the store buffer (forwarding) or walk the hierarchy; misses
  pay the device read latency;
* stores cost one cycle into the store buffer; the line is fetched into
  the cache (write-allocate) when its *visibility* round trip starts —
  immediately under TSO, lazily (fence / demote / overflow) under the weak
  model;
* fences and atomics block until every buffered store is globally
  visible, which is where delayed visibility hurts (Problem #2);
* dirty lines evicted from the last level, cleaned by ``clwb``-style
  pre-stores, or written non-temporally flow to the device, whose
  write-combiner and bandwidth queue turn eviction *order* into write
  amplification and backpressure (Problem #1).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Tuple

from repro.core.prestore import CYCLES_PER_PRESTORE, PrestoreOp
from repro.errors import SimulationError
from repro.sim.event import (
    ATOMIC,
    COMPUTE,
    FENCE,
    POST,
    PRESTORE,
    READ,
    STREAM_READ,
    STREAM_WRITE,
    WRITE,
    Event,
)
from repro.sim.replacement import _PLRU_LUT_MAX_WAYS, IntelLikePolicy, _plru_lut
from repro.sim.stats import CoreStats
from repro.sim.store_buffer import StoreBuffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine

__all__ = ["Core"]

#: Store-to-load forwarding latency, cycles.
FORWARD_LATENCY = 1
#: Base cost of executing one store into the buffer, cycles.
STORE_ISSUE_COST = 1
#: Base cost of a fence instruction itself (excluding visibility waits).
FENCE_ISSUE_COST = 2


class Core:
    """One simulated CPU core."""

    def __init__(self, core_id: int, machine: "Machine") -> None:
        self.machine = machine
        self.clock = 0.0
        self.stats = CoreStats(core_id=core_id)
        self.store_buffer = StoreBuffer(
            model=machine.spec.memory_model,
            capacity=machine.spec.store_buffer_capacity,
        )
        # Precomputed hot-path constants (DESIGN.md §11).  The directory
        # cost of a line transfer and the visibility latency of a cached
        # line depend only on the machine, not on the access.
        l1 = machine.hierarchy.levels[0]
        self._l1 = l1
        self._l1_hit_latency = float(l1.spec.hit_latency)
        #: Per-access references for :meth:`_do_read` and :meth:`_do_write`
        #: (none is ever rebound).
        self._line_size = machine.line_size
        self._line_owner = machine.line_owner
        self._pending = self.store_buffer._pending
        self._l1_index = l1._index
        self._l1_stats = l1.stats
        self._l1_pstate = l1._policy_state
        self._l1_on_access = l1.policy.on_access
        self._l1_touch_slots = l1.policy.touch_slots
        self._dir_latency = machine.device.directory_latency or machine.visibility.sram_directory_latency
        self._vis_cached = machine.visibility.visibility_latency(machine.device, True)
        self._vis_uncached = machine.visibility.visibility_latency(machine.device, False)
        #: Outer-level line indexes, innermost-but-one first — the fused
        #: store loop's residency probe (replaces hierarchy.contains).
        self._other_indexes = [lvl._index for lvl in machine.hierarchy.levels[1:]]
        #: Every level's ``(line index, invalidate)``, innermost first —
        #: the fused NT loop's invalidation walk.
        self._invalidators = tuple(
            (lvl._index, lvl.invalidate) for lvl in machine.hierarchy.levels
        )
        #: L1 recency-touch tables when L1 runs the LUT-encoded
        #: intel-like policy: ``(and_masks, or_masks)`` let the fused
        #: loops mark a hit way without a policy call (same state
        #: transition on_access computes).  None on other policies.
        self._l1_touch = None
        if type(l1.policy) is IntelLikePolicy and l1._ways <= _PLRU_LUT_MAX_WAYS:
            l1_and, l1_or, _ = _plru_lut(l1._ways)
            self._l1_touch = (l1_and, l1_or)
        #: Reusable writeback scratch for the fused miss walk.
        self._wb_scratch: list = []
        #: The fused stream loop collapses the reference interpreter's
        #: repeated same-way policy touches into one; only sound when the
        #: innermost policy declares on_access idempotent.
        self._fast_policy = l1._idempotent_policy

    # -- helpers -------------------------------------------------------------

    @property
    def core_id(self) -> int:
        return self.stats.core_id

    def _transfer_cost(self, line: int) -> int:
        """Cost of pulling a line out of another core's private copy.

        The directory resolving the transfer is device-resident on both
        evaluation platforms (Section 4.2), so the transfer pays a device
        round trip.  Demote/clean pre-stores push lines to the shared
        point of unification, which is exactly what removes this cost for
        consumers (the X9 case).
        """
        machine = self.machine
        owner = machine.line_owner.get(line)
        if owner is None or owner == self.core_id:
            return 0
        return machine.device.directory_latency or machine.visibility.sram_directory_latency

    def _visibility_latency(self, line: int) -> int:
        """Start a visibility round trip for a buffered store to ``line``.

        Side effect: the line is installed (dirty) into the hierarchy —
        this is the moment the write leaves private buffers and becomes a
        cache-resident modification.  Fill/eviction traffic triggered here
        is charged like any other fill.
        """
        machine = self.machine
        if line in self._l1_index:
            latency = self._vis_cached
        else:
            latency = self._vis_uncached
            for idx in self._other_indexes:
                if line in idx:
                    latency = self._vis_cached
                    break
        result = machine.hierarchy.access_line(line, is_write=True)
        if result.memory_access:
            # The read-for-ownership really fetches the line from the
            # device: it occupies media bandwidth (in the background, so
            # no core stall here) — the traffic non-temporal stores avoid.
            machine.device.read(line * machine.line_size, machine.line_size, self.clock)
        machine.line_owner[line] = self.stats.core_id
        self._emit_writebacks(result.writebacks)
        return latency

    def _emit_writebacks(self, lines: Iterable[int]) -> None:
        """Send dirty LLC evictions to the device.

        No stall here: demand reads have priority over the write backlog
        on real memory controllers, so eviction traffic triggered by a
        read does not block the reader.  The backlog is paid by the next
        *store* (see :meth:`_apply_backpressure`), which is also where
        perf attributes the time — "time issuing store instructions".
        """
        machine = self.machine
        for line in lines:
            machine.device.write_back(line * machine.line_size, machine.line_size, self.clock)
            self.store_buffer.evict_line(line)

    def _apply_backpressure(self) -> None:
        """Stall when the device write queue exceeds the allowed backlog.

        This is how write amplification becomes lost throughput: amplified
        media writes queue up, the backlog crosses the threshold, and the
        writer core waits (Figure 3's multi-thread regime).
        """
        machine = self.machine
        backlog = machine.device.backlog(self.clock)
        excess = backlog - machine.spec.backlog_limit_cycles
        if excess > 0:
            self.clock += excess
            self.stats.backpressure_stall_cycles += excess

    # -- event execution -------------------------------------------------------

    def execute(self, event: Event) -> None:
        """Run one instruction, advancing the core clock.

        Dispatch compares the kind by identity, most frequent first
        (``EventKind`` hashes through a Python-level ``__hash__``).
        """
        kind = event.kind
        if kind is READ:
            self.stats.instructions += 1
            self._do_read(event)
        elif kind is WRITE:
            self.stats.instructions += 1
            if event.nontemporal:
                self._do_nontemporal_write(event)
            else:
                self._do_write(event)
        elif kind is COMPUTE:
            self.stats.instructions += event.size
            self.clock += event.size * self.machine.spec.cycles_per_compute
        elif kind is FENCE:
            self.stats.instructions += 1
            self._do_fence(event)
        elif kind is PRESTORE:
            self.stats.instructions += 1
            self._do_prestore(event)
        elif kind is ATOMIC:
            self.stats.instructions += 1
            self._do_atomic(event)
        elif kind is POST:
            self.stats.instructions += 1
            self._do_post(event)
        elif kind is STREAM_READ or kind is STREAM_WRITE:
            # Direct callers get the whole run; the machine scheduler
            # expands streams itself so it can honour preemption.
            self.execute_stream(event)
        else:
            raise SimulationError(f"unknown event kind {kind!r}")

    def _do_post(self, event: Event) -> None:
        event.mailbox.post(event.sync_key, self.clock)
        self.clock += 1

    # -- stream execution (the fast interpretation path) -----------------------

    def execute_stream(
        self,
        event: Event,
        strict_limit: float = math.inf,
        loose_limit: float = math.inf,
        note: Optional[Callable[[float], None]] = None,
    ) -> Optional[Event]:
        """Execute a batched access run in a fused per-line loop.

        Semantics are bit-identical to executing one ``chunk``-byte
        READ/WRITE event every ``stride`` bytes through :meth:`execute`
        (DESIGN.md §11 lists the audited equivalences).  The loop yields
        back to the scheduler as soon as this core's clock would no
        longer win the time-ordered pick — it must stay strictly below
        every earlier-listed live thread and at-or-below every
        later-listed one, replicating
        ``min()``'s first-minimal tie-breaking — and then returns
        ``event`` mutated to the remaining ``[addr, addr+size)`` range;
        ``None`` once the run is complete.

        ``note``, when given, is called with the core clock at the start
        of each executed access, before it runs (observers replay
        per-access cycles from it, the fault injector bumps store
        versions); only the fused loops call it.
        """
        kind = event.kind
        if kind is STREAM_WRITE and event.nontemporal:
            return self._stream_nt_fast(event, strict_limit, loose_limit, note)
        if self._fast_policy:
            if kind is STREAM_WRITE:
                return self._stream_write_fast(event, strict_limit, loose_limit, note)
            if kind is STREAM_READ:
                return self._stream_read_fast(event, strict_limit, loose_limit, note)
        if kind is not STREAM_READ and kind is not STREAM_WRITE:
            raise SimulationError(f"execute_stream() got non-stream event {event!r}")
        if note is not None:
            raise SimulationError("a per-access hook needs a fused stream loop")
        # No fusion (cached accesses under a non-idempotent policy): every
        # access runs through the reference handlers.
        return self.unroll_stream(event, self.execute, strict_limit, loose_limit)

    def unroll_stream(
        self,
        event: Event,
        access: Callable[[Event], None],
        strict_limit: float = math.inf,
        loose_limit: float = math.inf,
    ) -> Optional[Event]:
        """Expand a stream into one READ/WRITE per stride, each run by ``access``.

        The one per-access unroll loop: :meth:`execute_stream` passes
        :meth:`execute` when no fused loop applies, and the machine
        passes its ``step`` when observers need per-access records.  It
        skips the per-access generator round trip and validation, stops
        under the same scheduler bounds as the fused loops, and returns
        ``event`` mutated to its unexecuted tail, or ``None`` when done.
        """
        access_kind = READ if event.kind is STREAM_READ else WRITE
        addr, size, chunk, stride = event.addr, event.size, event.chunk, event.stride
        nt, relaxed, site, chain = event.nontemporal, event.relaxed, event.site, event.callchain
        fast_access = Event.fast_access
        offset = 0
        while offset < size:
            clock = self.clock
            if not (clock < strict_limit and clock <= loose_limit):
                event.addr = addr + offset
                event.size = size - offset
                return event
            length = chunk if size - offset >= chunk else size - offset
            access(fast_access(access_kind, addr + offset, length, nt, relaxed, site, chain))
            offset += stride
        return None

    def _fused_store_miss_vis(self, line: int, base: float, now: float, tail: float) -> float:
        """Visibility round trip of an *uncached* buffered store, fused.

        Replicates ``StoreBuffer._start_visibility`` feeding
        :meth:`_visibility_latency` for a line resident nowhere: the
        write-allocate miss walk (:meth:`CacheHierarchy.fill`),
        the background read-for-ownership, ownership, and the dirty
        writebacks the fills push out — with device traffic stamped at
        ``now`` (the core clock, which under an overflow stall differs
        from the visibility base ``base``).  Returns the absolute cycle
        the store becomes visible, already clamped to the in-order
        pipeline ``tail``.
        """
        machine = self.machine
        wb = self._wb_scratch
        del wb[:]
        machine.hierarchy.fill(line, True, wb)
        line_size = machine.line_size
        machine.device.read(line * line_size, line_size, now)
        machine.line_owner[line] = self.core_id
        if wb:
            pending = self.store_buffer._pending
            write_back = machine.device.write_back
            pop = pending.pop
            for w in wb:
                write_back(w * line_size, line_size, now)
                pop(w, None)
            del wb[:]
        vt = base + self._vis_uncached
        if vt < tail:
            vt = tail
        return vt

    def _stream_write_fast(
        self,
        event: Event,
        strict_limit: float,
        loose_limit: float,
        note: Optional[Callable[[float], None]] = None,
    ) -> Optional[Event]:
        """Fused store loop, warm and cold.

        Per access this replicates, in order: ``execute``'s retirement
        accounting, ``_do_write``'s issue cost and resident-line dirtying,
        ``StoreBuffer.write``'s prune/coalesce/overflow/visibility logic
        (with the visibility latency of a cached line hoisted to a
        constant and the uncached miss walk fused via
        :meth:`_fused_store_miss_vis`), and ``_apply_backpressure`` —
        without allocating an event, a range, a result, or a writeback
        list.  Only line-straddling chunks fall back to the reference
        per-event path mid-stream.  Accesses advance by ``stride``; the
        line-increment branch needs an aligned ``stride == chunk ==
        line_size`` run.
        """
        machine = self.machine
        line_size = machine.line_size
        l1 = self._l1
        l1_index = l1._index
        l1_ways = l1._ways
        l1_dirty = l1._dirty
        l1_pstate = l1._policy_state
        on_access = l1.policy.on_access
        l1_touch = self._l1_touch
        if l1_touch is not None:
            l1_and, l1_or = l1_touch
        else:
            l1_and = l1_or = None  # type: ignore[assignment]
        other_indexes = self._other_indexes
        hierarchy = machine.hierarchy
        fill = hierarchy.fill
        fill_all = hierarchy._fill_all
        level_stats = hierarchy._level_stats
        wb = self._wb_scratch
        vis_uncached = self._vis_uncached
        sb = self.store_buffer
        pending = sb._pending
        sb_stats = sb.stats
        capacity = sb.capacity
        tso = sb.model == "tso"
        vis_cached = self._vis_cached
        # The device methods' completion times are unused here:
        # visibility is the hoisted ``vis_uncached`` constant.
        device = machine.device
        device_read = device.read
        device_write_back = device.write_back
        device_backlog = device.backlog
        backlog_limit = machine.spec.backlog_limit_cycles
        line_owner = machine.line_owner
        cid = self.stats.core_id
        stats = self.stats
        visibility = self._visibility_latency

        addr, size, chunk, stride = event.addr, event.size, event.chunk, event.stride
        relaxed, site, chain = event.relaxed, event.site, event.callchain
        offset = 0
        clock = self.clock
        tail = sb._pipeline_tail
        n_fast = 0  # fast-path accesses since the last flush
        n_coalesced = 0
        n_hits = 0  # L1 hit delta since the last flush
        n_miss = 0  # fused miss-everywhere fills since the last flush
        # False once a backpressure check found no excess; device work
        # queued after that sets it again (see MemoryDevice.backlog).
        check_backlog = True

        seq = chunk == line_size and stride == chunk and addr % line_size == 0
        line = addr // line_size - 1
        while offset < size:
            if not (clock < strict_limit and clock <= loose_limit):
                break
            if note is not None:
                note(clock)
            if seq:
                # Aligned line-granular stream (the common case): chunks
                # never straddle and the target line just increments.
                line += 1
            else:
                length = chunk if size - offset >= chunk else size - offset
                a = addr + offset
                line = a // line_size
                if (a + length - 1) // line_size != line:
                    # Line-straddling chunk: flush the accumulators and
                    # run this one access down the reference path.
                    self.clock = clock
                    sb._pipeline_tail = tail
                    if n_fast:
                        stats.instructions += n_fast
                        stats.writes += n_fast
                        sb_stats.stores_buffered += n_fast
                        n_fast = 0
                    if n_coalesced:
                        sb_stats.coalesced += n_coalesced
                        n_coalesced = 0
                    if n_hits:
                        l1.stats.hits += n_hits
                        n_hits = 0
                    if n_miss:
                        for lstats in level_stats:
                            lstats.misses += n_miss
                        n_miss = 0
                    self.execute(
                        Event.fast_access(
                            WRITE, a, length, False, relaxed, site, chain
                        )
                    )
                    clock = self.clock
                    tail = sb._pipeline_tail
                    check_backlog = True
                    offset += stride
                    continue
            n_fast += 1
            loc = l1_index.get(line)
            if loc is not None:
                # Warm: L1-resident line is dirtied in place.
                set_i = loc // l1_ways
                n_hits += 1
                way = loc - set_i * l1_ways
                if l1_touch is not None:
                    st = l1_pstate[set_i]
                    st[0] = (st[0] & l1_and[way]) | l1_or[way]
                else:
                    on_access(l1_pstate[set_i], way)
                l1_dirty[loc] = 1
                line_owner[line] = cid
                cached = True
            else:
                cached = False
                for idx in other_indexes:
                    if line in idx:
                        cached = True
                        break
                if cached:
                    # Resident in an outer level: promote and dirty it.
                    # Its writebacks are dropped, as _do_write drops
                    # them (see there).
                    fill(line, True, wb)
                    del wb[:]
                    line_owner[line] = cid
            clock += 1.0  # STORE_ISSUE_COST
            now = clock
            # Inline StoreBuffer._prune(now).
            while pending:
                oline = next(iter(pending))
                ovt = pending[oline]
                if ovt is None or ovt > now:
                    break
                del pending[oline]
            if line in pending:
                n_coalesced += 1
                vt0 = pending.pop(line)  # re-insert to refresh FIFO position
                pending[line] = vt0
            else:
                stall = 0.0
                if len(pending) >= capacity:
                    # oline/ovt are still the front entry: the prune loop
                    # above peeked it before breaking, and nothing has
                    # touched the buffer since.
                    if ovt is None:
                        # Weak model: the forced-out store's round trip
                        # starts now.
                        oloc = l1_index.get(oline)
                        if oloc is not None:
                            # Still in L1: one more write hit at the
                            # cached-line latency.
                            oset = oloc // l1_ways
                            n_hits += 1
                            on_access(l1_pstate[oset], oloc - oset * l1_ways)
                            l1_dirty[oloc] = 1
                            line_owner[oline] = cid
                            ovt = now + vis_cached
                            if ovt < tail:
                                ovt = tail
                            tail = ovt
                        else:
                            ocached = False
                            for idx in other_indexes:
                                if oline in idx:
                                    ocached = True
                                    break
                            if ocached:
                                # Cached in an outer level: the round
                                # trip runs the real callback (promote
                                # walk) with synced state.
                                self.clock = clock
                                sb._pipeline_tail = tail
                                ovt = sb._start_visibility(oline, now, visibility)
                                tail = sb._pipeline_tail
                            else:
                                # Left the caches entirely: fused
                                # write-allocate miss.
                                ovt = self._fused_store_miss_vis(oline, now, now, tail)
                                tail = ovt
                            check_backlog = True
                    stall = ovt - now
                    if stall < 0.0:
                        stall = 0.0
                    del pending[oline]
                    sb_stats.overflow_drains += 1
                if not tso:
                    pending[line] = None
                else:
                    # TSO: the round trip starts immediately (the parked
                    # None insert is skipped — nothing observes the
                    # buffer between insert and visibility start).
                    if cached:
                        # The line is L1-resident (warm, or just
                        # promoted): one more write hit, no fill, no
                        # device read, no writebacks.
                        if loc is None:
                            loc = l1_index[line]
                        set_i = loc // l1_ways
                        n_hits += 1
                        way = loc - set_i * l1_ways
                        if l1_touch is not None:
                            st = l1_pstate[set_i]
                            st[0] = (st[0] & l1_and[way]) | l1_or[way]
                        else:
                            on_access(l1_pstate[set_i], way)
                        l1_dirty[loc] = 1
                        vt = now + stall + vis_cached
                        if vt < tail:
                            vt = tail
                    else:
                        # Uncached: inline _fused_store_miss_vis — the
                        # write-allocate fill walk, the read-for-
                        # ownership, and the dirty writebacks the fills
                        # push out (level miss counters batched in
                        # n_miss).
                        loc = fill_all(line, wb)
                        n_miss += 1
                        if l1_touch is None:
                            set_i = loc // l1_ways
                            on_access(l1_pstate[set_i], loc - set_i * l1_ways)
                        # (LUT policies: the dirty-mark touch repeats the
                        # install touch bit-for-bit, so it is skipped.)
                        l1_dirty[loc] = 1
                        device_read(line * line_size, line_size, now)
                        check_backlog = True
                        line_owner[line] = cid
                        if wb:
                            for w in wb:
                                device_write_back(w * line_size, line_size, now)
                                pending.pop(w, None)
                            del wb[:]
                        vt = now + stall + vis_uncached
                        if vt < tail:
                            vt = tail
                    pending[line] = vt
                    tail = vt
                if stall > 0.0:
                    clock += stall
                    stats.store_buffer_stall_cycles += stall
            # Inline _apply_backpressure().
            if check_backlog:
                excess = device_backlog(clock) - backlog_limit
                if excess > 0:
                    clock += excess
                    stats.backpressure_stall_cycles += excess
                else:
                    check_backlog = False
            offset += stride

        self.clock = clock
        sb._pipeline_tail = tail
        if n_fast:
            stats.instructions += n_fast
            stats.writes += n_fast
            sb_stats.stores_buffered += n_fast
        if n_coalesced:
            sb_stats.coalesced += n_coalesced
        if n_hits:
            l1.stats.hits += n_hits
        if n_miss:
            for lstats in level_stats:
                lstats.misses += n_miss
        if offset < size:
            event.addr = addr + offset
            event.size = size - offset
            return event
        return None

    def _stream_read_fast(
        self,
        event: Event,
        strict_limit: float,
        loose_limit: float,
        note: Optional[Callable[[float], None]] = None,
    ) -> Optional[Event]:
        """Fused load loop, warm and cold.

        Warm single-line loads resolve to store-buffer forwarding or an
        L1 hit (plus an owner-transfer charge) without allocations; cold
        single-line loads call :meth:`CacheHierarchy.fill` (the generated
        fill kernels) and issue the device read and the writebacks it
        pushes out without the per-event dispatch.  Only line-straddling
        chunks fall back to the reference per-event path.  Accesses
        advance by ``stride``.  When no ``note`` hook runs and no access
        can straddle a line, runs of L1 hits (at the start and after each
        L1 hit) are resolved in one step by :meth:`_l1_hit_run`.
        """
        line_size = self._line_size
        addr, size, chunk, stride = event.addr, event.size, event.chunk, event.stride
        offset = 0
        clock = self.clock
        # The line the loop's last access hit in L1 (-1: none since the
        # last fill or fallback).  Only loads run in between, so another
        # load of it is an L1 hit again: not buffered, its owner
        # transfer already paid, and its policy touch a repeat, which
        # the idempotent policies fused loops require make a no-op.
        hit_line = -1
        # Access offsets within a line are congruent modulo
        # gcd(stride, line_size), so this bounds every access's end.
        align = math.gcd(stride, line_size)
        bulk = note is None and addr % align + chunk <= align
        hit_run = self._l1_hit_run
        if bulk and addr // line_size in self._l1_index:
            run, clock = hit_run(addr, size, stride, clock, strict_limit, loose_limit)
            if run:
                offset = run * stride
                if offset >= size:
                    self.clock = clock
                    return None
                hit_line = (addr + offset - stride) // line_size

        machine = self.machine
        l1 = self._l1
        l1_index = l1._index
        l1_ways = l1._ways
        l1_pstate = l1._policy_state
        on_access = l1.policy.on_access
        l1_touch = self._l1_touch
        if l1_touch is not None:
            l1_and, l1_or = l1_touch
        else:
            l1_and = l1_or = None  # type: ignore[assignment]
        l1_latency = self._l1_hit_latency
        dir_latency = self._dir_latency
        fill = machine.hierarchy.fill
        fill_latency = machine.hierarchy.fill_latency
        memory = len(fill_latency) - 1
        wb = self._wb_scratch
        device_read = machine.device.read
        device_write_back = machine.device.write_back
        pending = self.store_buffer._pending
        line_owner = machine.line_owner
        cid = self.stats.core_id
        stats = self.stats
        relaxed, site, chain = event.relaxed, event.site, event.callchain
        n_fast = 0
        n_hits = 0

        while offset < size:
            if not (clock < strict_limit and clock <= loose_limit):
                break
            if note is not None:
                note(clock)
            length = chunk if size - offset >= chunk else size - offset
            a = addr + offset
            line = a // line_size
            if (a + length - 1) // line_size == line:
                if line == hit_line:
                    n_fast += 1
                    n_hits += 1
                    clock += l1_latency
                    offset += stride
                    continue
                if line in pending:
                    # Store-to-load forwarding: FORWARD_LATENCY, no
                    # cache or device traffic.
                    n_fast += 1
                    clock += 1
                    offset += stride
                    continue
                owner = line_owner.get(line)
                if owner is None or owner == cid:
                    transfer = 0
                else:
                    # Pulling another core's private copy: directory
                    # round trip; the line becomes shared.
                    transfer = dir_latency
                    del line_owner[line]
                loc = l1_index.get(line)
                if loc is not None:
                    n_fast += 1
                    set_i = loc // l1_ways
                    n_hits += 1
                    way = loc - set_i * l1_ways
                    if l1_touch is not None:
                        st = l1_pstate[set_i]
                        st[0] = (st[0] & l1_and[way]) | l1_or[way]
                    else:
                        on_access(l1_pstate[set_i], way)
                    hit_line = line
                    clock += l1_latency + transfer
                    offset += stride
                    if bulk and offset < size:
                        run, clock = hit_run(
                            addr + offset, size - offset, stride, clock, strict_limit, loose_limit
                        )
                        if run:
                            offset += run * stride
                            hit_line = (addr + offset - stride) // line_size
                    continue
                # Cold: matches _do_read for a single non-forwarded
                # line: the fill, the (background) device read,
                # writebacks stamped at the pre-wait clock, then the
                # latency/occupancy wait.
                n_fast += 1
                hit_line = -1
                level = fill(line, False, wb)
                hit_lat = fill_latency[level] + transfer
                if level == memory:
                    done = device_read(line * line_size, line_size, clock)
                else:
                    done = clock
                if wb:
                    for w in wb:
                        device_write_back(w * line_size, line_size, clock)
                        pending.pop(w, None)
                    del wb[:]
                wait = done - clock
                if wait > 0.0:
                    stats.memory_read_cycles += wait
                if hit_lat > wait:
                    wait = hit_lat
                clock += wait
                offset += stride
                continue
            # Line-straddling chunk: reference path.
            hit_line = -1
            self.clock = clock
            if n_fast:
                stats.instructions += n_fast
                stats.reads += n_fast
                n_fast = 0
            if n_hits:
                l1.stats.hits += n_hits
                n_hits = 0
            self.execute(
                Event.fast_access(READ, a, length, False, relaxed, site, chain)
            )
            clock = self.clock
            offset += stride

        self.clock = clock
        if n_fast:
            stats.instructions += n_fast
            stats.reads += n_fast
        if n_hits:
            l1.stats.hits += n_hits
        if offset < size:
            event.addr = addr + offset
            event.size = size - offset
            return event
        return None

    def _l1_hit_run(
        self,
        a: int,
        left: int,
        stride: int,
        clock: float,
        strict_limit: float,
        loose_limit: float,
    ) -> Tuple[int, float]:
        """Resolve the L1 hits that lead a fused load run, in one step.

        ``a`` is the next access's address and ``left`` the run's bytes
        from there; no access may straddle a line.  The hits are the
        longest prefix of accesses whose lines are L1-resident, not in
        the store buffer and not owned by another core: exactly the
        accesses :meth:`_stream_read_fast` would serve as plain L1 hits.
        Each adds the L1 latency to the clock in order, under the same
        scheduler bounds, and each distinct line is touched once, in
        order, by :meth:`ReplacementPolicy.touch_slots` (a repeated
        touch of the line just touched is a no-op under the idempotent
        policies the fused loops require).  Lines are probed in doubling
        batches, and a first line that is no such hit returns at once.
        Counts the accesses in the core and L1 statistics and returns
        their number and the clock after them.
        """
        line_size = self._line_size
        l1_get = self._l1_index.get
        pending = self._pending
        line_owner = self._line_owner
        cid = self.stats.core_id
        first = a // line_size
        if l1_get(first) is None or first in pending:
            return 0, clock
        owner = line_owner.get(first)
        if owner is not None and owner != cid:
            return 0, clock
        lat = self._l1_hit_latency
        n = -(-left // stride)
        limit = strict_limit if strict_limit < loose_limit else loose_limit
        if limit < math.inf and lat > 0.0:
            # No more accesses than this can start below the bound.
            fit = int((limit - clock) / lat) + 2
            if fit < n:
                if fit <= 0:
                    return 0, clock
                n = fit
        if stride <= line_size:
            # Every line from the first to the last access's is visited.
            lines = range(first, (a + (n - 1) * stride) // line_size + 1)
        else:
            lines = range(a, a + n * stride, stride)  # one line per access
        total = len(lines)
        slots: list = []
        h = 0  # leading hit lines found
        batch = 64
        while h < total:
            part = lines[h : h + batch]
            if stride > line_size:
                part = list(map(line_size.__rfloordiv__, part))
            got = list(map(l1_get, part))
            k = got.index(None) if None in got else len(got)
            ahead = part[:k]
            if pending and not pending.keys().isdisjoint(ahead):
                k = next(i for i, line in enumerate(ahead) if line in pending)
                ahead = ahead[:k]
            if not line_owner.keys().isdisjoint(ahead):
                owners = list(map(line_owner.get, ahead))
                if owners.count(None) + owners.count(cid) != k:
                    k = next(i for i, o in enumerate(owners) if o is not None and o != cid)
            slots += got[:k]
            h += k
            if k < len(got):
                break
            batch += batch
        if stride > line_size:
            n = h
        elif h < total:
            # The accesses below the first line that is no hit.
            n = -(-((first + h) * line_size - a) // stride)
        clocks = list(accumulate(repeat(lat, n), initial=clock))
        n = bisect_right(clocks, loose_limit, 0, bisect_left(clocks, strict_limit, 0, n))
        if n:
            if stride <= line_size:
                h = (a + (n - 1) * stride) // line_size - first + 1
            else:
                h = n
            self._l1_touch_slots(self._l1_pstate, slots[:h], self._l1._ways)
            stats = self.stats
            stats.instructions += n
            stats.reads += n
            self._l1_stats.hits += n
        return n, clocks[n]

    def _stream_nt_fast(
        self,
        event: Event,
        strict_limit: float,
        loose_limit: float,
        note: Optional[Callable[[float], None]] = None,
    ) -> Optional[Event]:
        """Fused non-temporal store loop.

        Per access this replicates ``execute``'s retirement accounting
        and :meth:`_do_nontemporal_write`: ``STORE_ISSUE_COST``; for
        every line the access covers, its invalidation in every level
        and the drop of its owner and store-buffer entries; the device
        writeback; and ``_apply_backpressure``.  NT stores touch no
        replacement state, so the loop runs under any policy, and
        line-straddling chunks need no fallback.  Contending cores
        preempt NT streams after one or two accesses, so the loop binds
        only what every access uses.
        """
        line_size = self._line_size
        invalidators = self._invalidators
        line_owner = self._line_owner
        pending = self._pending
        device = self.machine.device
        device_write_back = device.write_back
        device_backlog = device.backlog
        backlog_limit = self.machine.spec.backlog_limit_cycles

        addr, size, chunk, stride = event.addr, event.size, event.chunk, event.stride
        offset = 0
        clock = self.clock
        while offset < size:
            if not (clock < strict_limit and clock <= loose_limit):
                break
            if note is not None:
                note(clock)
            length = chunk if size - offset >= chunk else size - offset
            a = addr + offset
            end = a + length - 1
            clock += 1.0  # STORE_ISSUE_COST
            line = a // line_size
            last = end // line_size
            while line <= last:
                for index, invalidate in invalidators:
                    if line in index:
                        invalidate(line)
                line_owner.pop(line, None)
                pending.pop(line, None)
                line += 1
            device_write_back(a, length, clock)
            # Inline _apply_backpressure().
            excess = device_backlog(clock) - backlog_limit
            if excess > 0:
                clock += excess
                self.stats.backpressure_stall_cycles += excess
            offset += stride

        self.clock = clock
        stats = self.stats
        executed = offset // stride
        stats.instructions += executed
        stats.writes += executed
        stats.nontemporal_writes += executed
        if offset < size:
            event.addr = addr + offset
            event.size = size - offset
            return event
        return None

    # -- loads -----------------------------------------------------------------

    def _do_read(self, event: Event) -> None:
        """Execute a load.

        A multi-line read event models a streamed access (vectorised loop
        body, value scan): its line fills pipeline — they serialise on
        media occupancy but pay the device latency only once, as hardware
        prefetchers and fill buffers achieve on real CPUs.  Single-line
        reads behave identically (one fill, one latency).

        Each line is served in one pass over locals: store-buffer
        forwarding, the owner-transfer charge, an inline L1 hit, else
        :meth:`CacheHierarchy.fill` followed by the line's device read
        and then the writebacks its fill pushed out, all stamped at the
        pre-load clock.  The lines are walked with a counter rather than
        a ``range`` (most loads touch one line), and the miss path's
        locals are bound on the first miss, so an L1-hit load never
        loads them.
        """
        stats = self.stats
        stats.reads += 1
        line_size = self._line_size
        addr = event.addr
        line = addr // line_size
        last = (addr + event.size - 1) // line_size
        pending = self._pending
        line_owner = self._line_owner
        l1_index = self._l1_index
        clock = self.clock
        hit_latency = 0.0
        mem_done = clock
        fill = None
        while line <= last:
            if line in pending:
                # Store-to-load forwarding.
                if hit_latency < FORWARD_LATENCY:
                    hit_latency = FORWARD_LATENCY
            else:
                owner = line_owner.get(line)
                if owner is None or owner == stats.core_id:
                    transfer = 0
                else:
                    # Reading another core's private copy: the line
                    # becomes shared once transferred.
                    transfer = self._dir_latency
                    del line_owner[line]
                slot = l1_index.get(line)
                if slot is not None:
                    ways = self._l1._ways
                    set_i = slot // ways
                    self._l1_stats.hits += 1
                    self._l1_on_access(self._l1_pstate[set_i], slot - set_i * ways)
                    latency = self._l1_hit_latency + transfer
                else:
                    if fill is None:
                        machine = self.machine
                        fill = machine.hierarchy.fill
                        fill_latency = machine.hierarchy.fill_latency
                        memory = len(fill_latency) - 1
                        device = machine.device
                        wb = self._wb_scratch
                    level = fill(line, False, wb)
                    latency = fill_latency[level] + transfer
                    if level == memory:
                        done = device.read(line * line_size, line_size, clock)
                        if done > mem_done:
                            mem_done = done
                    if wb:
                        for w in wb:
                            device.write_back(w * line_size, line_size, clock)
                            pending.pop(w, None)
                        del wb[:]
                if latency > hit_latency:
                    hit_latency = latency
            line += 1
        wait = mem_done - clock
        if wait > 0:
            stats.memory_read_cycles += wait
        if hit_latency > wait:
            wait = hit_latency
        self.clock = clock + wait

    # -- stores ----------------------------------------------------------------

    def _do_write(self, event: Event) -> None:
        machine = self.machine
        self.stats.writes += 1
        self.clock += STORE_ISSUE_COST
        line_size = self._line_size
        addr = event.addr
        l1_index = self._l1_index
        for line in range(addr // line_size, (addr + event.size - 1) // line_size + 1):
            cached = line in l1_index
            if not cached:
                for idx in self._other_indexes:
                    if line in idx:
                        cached = True
                        break
            if cached:
                # The line is already cache-resident: this store dirties it
                # now (a previous clean pre-store must not hide the new
                # modification).  Store latency itself is pipelined away.
                # The promotion's writebacks are dropped.  On a two-level
                # hierarchy it never has any: every L1 victim is resident
                # in the LLC, which takes its dirt.  On three levels an L1
                # victim that L2 no longer holds goes to memory, and that
                # writeback is lost here: a known model defect, kept so
                # recorded results stay bit-identical (DESIGN.md §15).
                machine.hierarchy.access_line(line, is_write=True)
                machine.line_owner[line] = self.stats.core_id
            stall = self.store_buffer.write(line, self.clock, self._visibility_latency)
            if stall > 0:
                self.clock += stall
                self.stats.store_buffer_stall_cycles += stall
        self._apply_backpressure()

    def _do_nontemporal_write(self, event: Event) -> None:
        """A cache-skipping store: straight to the device, in program order.

        Because non-temporal stores arrive at the device in the order the
        program issued them, sequential NT streams merge perfectly in the
        device combiner.  The cached copy (if any) is invalidated, so a
        later read of this data pays a full device round trip — the
        re-read penalty the paper observes when skipping re-used data.
        """
        machine = self.machine
        self.stats.writes += 1
        self.stats.nontemporal_writes += 1
        self.clock += STORE_ISSUE_COST
        for line in event.lines(machine.line_size):
            machine.hierarchy.invalidate_line(line)
            machine.line_owner.pop(line, None)
            self.store_buffer.evict_line(line)
        machine.device.write_back(event.addr, event.size, self.clock)
        self._apply_backpressure()

    # -- ordering ----------------------------------------------------------------

    def _do_fence(self, event: Event) -> None:
        self.stats.fences += 1
        self.clock += FENCE_ISSUE_COST
        if event.fence_scope == "load":
            # Acquire fence: orders reads only.  Our loads execute in
            # order already, so the issue cost is the whole story.
            return
        done = self.store_buffer.drain(self.clock, self._visibility_latency)
        self._stall_for_ordering(done)

    def _stall_for_ordering(self, visible_at: float) -> None:
        """Block until ``visible_at``, paying the pipeline-drain tax.

        A fence that has to *wait* does more damage than the wait itself:
        retirement blocks, the ROB fills, and the front end restarts once
        drained.  The multiplier models that restart cost growing with the
        stall — it is what makes last-minute publication (Figure 4a) more
        expensive than the early, overlapped round trip of a demote.
        """
        stall = visible_at - self.clock
        if stall > 0:
            stall *= self.machine.spec.fence_stall_multiplier
            self.clock += stall
            self.stats.fence_stall_cycles += stall

    def _do_atomic(self, event: Event) -> None:
        """RMW with fence semantics (cmpxchg and friends, Section 6.2.2).

        The store-buffer drain and the exclusive acquisition of the
        target line overlap, as they do in hardware: the RFO for the CAS
        target is issued while earlier stores become visible.  This is
        why pre-storing ahead of the atomic removes the drain from the
        critical path (Section 7.3.1's "reducing the time spent in the
        atomic instructions of the lock by 74%").
        """
        machine = self.machine
        self.stats.atomics += 1
        # All prior stores must be visible before the RMW completes.
        done = self.store_buffer.drain(self.clock, self._visibility_latency)
        drain_stall = max(0.0, done - self.clock) * machine.spec.fence_stall_multiplier
        # Acquire the target line exclusively (concurrently).
        line = machine.hierarchy.line_of(event.addr)
        transfer = self._transfer_cost(line)
        result = machine.hierarchy.access_line(line, is_write=True)
        machine.line_owner[line] = self.core_id
        acquire = float(result.latency) + transfer
        if result.memory_access:
            read_done = machine.device.read(line * machine.line_size, machine.line_size, self.clock)
            acquire += read_done - self.clock
        self._emit_writebacks(result.writebacks)
        wait = max(drain_stall, acquire)
        if drain_stall > acquire:
            self.stats.fence_stall_cycles += drain_stall - acquire
        self.clock += wait + machine.spec.atomic_base_cost

    # -- pre-stores ----------------------------------------------------------------

    def _do_prestore(self, event: Event) -> None:
        machine = self.machine
        self.stats.prestores += 1
        if event.op is PrestoreOp.DEMOTE:
            for line in event.lines(machine.line_size):
                self.clock += CYCLES_PER_PRESTORE
                started = self.store_buffer.demote(line, self.clock, self._visibility_latency)
                if not started:
                    # Nothing parked: demote the cached copy down-hierarchy.
                    # Re-installing into the last level can evict a victim
                    # whose dirty data must reach the device like any other
                    # LLC eviction's.
                    wbs = self._wb_scratch
                    del wbs[:]
                    machine.hierarchy.demote_line(line, wbs)
                    if wbs:
                        self._emit_writebacks(wbs)
                        del wbs[:]
                # Demotion pushes the line to the point of unification:
                # other cores can now pull it without a transfer.
                machine.line_owner.pop(line, None)
        elif event.op is PrestoreOp.CLEAN:
            wrote = False
            for line in event.lines(machine.line_size):
                self.clock += CYCLES_PER_PRESTORE
                # A parked private store must become cache-resident before
                # its line can be cleaned to memory.
                self.store_buffer.demote(line, self.clock, self._visibility_latency)
                machine.line_owner.pop(line, None)
                if machine.hierarchy.clean_line(line):
                    machine.device.write_back(
                        line * machine.line_size, machine.line_size, self.clock
                    )
                    wrote = True
            if wrote:
                self._apply_backpressure()
        else:  # pragma: no cover - exhaustive
            raise SimulationError(f"unknown prestore op {event.op!r}")
