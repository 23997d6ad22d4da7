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
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.prestore import CYCLES_PER_PRESTORE, PrestoreOp
from repro.errors import SimulationError
from repro.sim.event import STREAM_KINDS, Event, EventKind
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
        self._dir_latency = machine.device.directory_latency or machine.visibility.sram_directory_latency
        self._vis_cached = machine.visibility.visibility_latency(machine.device, True)
        self._vis_uncached = machine.visibility.visibility_latency(machine.device, False)
        #: Outer-level line indexes, innermost-but-one first — the fused
        #: store loop's residency probe (replaces hierarchy.contains).
        self._other_indexes = [lvl._index for lvl in machine.hierarchy.levels[1:]]
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
        #: Kind -> bound handler, replacing the enum if-chain.  COMPUTE,
        #: WAIT and the stream kinds are handled before/around dispatch.
        self._handlers = {
            EventKind.READ: self._do_read,
            EventKind.WRITE: self._do_any_write,
            EventKind.FENCE: self._do_fence,
            EventKind.ATOMIC: self._do_atomic,
            EventKind.PRESTORE: self._do_prestore,
            EventKind.POST: self._do_post,
        }

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
        cached = machine.hierarchy.contains(line)
        latency = machine.visibility.visibility_latency(machine.device, cached)
        result = machine.hierarchy.access_line(line, is_write=True)
        if result.memory_access:
            # The read-for-ownership really fetches the line from the
            # device: it occupies media bandwidth (in the background, so
            # no core stall here) — the traffic non-temporal stores avoid.
            machine.device.read(line * machine.line_size, machine.line_size, self.clock)
        machine.line_owner[line] = self.core_id
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
        """Run one instruction, advancing the core clock."""
        kind = event.kind
        if kind is EventKind.COMPUTE:
            self.stats.instructions += event.size
            self.clock += event.size * self.machine.spec.cycles_per_compute
            return
        handler = self._handlers.get(kind)
        if handler is None:
            if kind in STREAM_KINDS:
                # Direct callers get the whole run; the machine scheduler
                # expands streams itself so it can honour preemption.
                self.execute_stream(event)
                return
            raise SimulationError(f"unknown event kind {kind!r}")
        self.stats.instructions += 1
        handler(event)

    def _do_any_write(self, event: Event) -> None:
        if event.nontemporal:
            self._do_nontemporal_write(event)
        else:
            self._do_write(event)

    def _do_post(self, event: Event) -> None:
        event.mailbox.post(event.sync_key, self.clock)
        self.clock += 1

    # -- stream execution (the fast interpretation path) -----------------------

    def execute_stream(
        self,
        event: Event,
        strict_limit: float = math.inf,
        loose_limit: float = math.inf,
    ) -> Optional[Event]:
        """Execute a batched access run in a fused per-line loop.

        Semantics are bit-identical to executing one READ/WRITE event per
        ``chunk`` bytes through :meth:`execute` (DESIGN.md §11 lists the
        audited equivalences).  The loop yields back to the scheduler as
        soon as this core's clock would no longer win the time-ordered
        pick — it must stay strictly below every earlier-listed live
        thread and at-or-below every later-listed one, replicating
        ``min()``'s first-minimal tie-breaking — and then returns
        ``event`` mutated to the remaining ``[addr, addr+size)`` range;
        ``None`` once the run is complete.
        """
        kind = event.kind
        if self._fast_policy:
            if kind is EventKind.STREAM_WRITE and not event.nontemporal:
                return self._stream_write_fast(event, strict_limit, loose_limit)
            if kind is EventKind.STREAM_READ:
                return self._stream_read_fast(event, strict_limit, loose_limit)
        if kind not in STREAM_KINDS:
            raise SimulationError(f"execute_stream() got non-stream event {event!r}")
        return self._stream_generic(event, strict_limit, loose_limit)

    def _stream_generic(
        self, event: Event, strict_limit: float, loose_limit: float
    ) -> Optional[Event]:
        """Per-access expansion without fusion (NT writes, exotic policies).

        Still skips the per-access generator round trip and validation,
        but runs every access through the reference handlers.
        """
        access_kind = EventKind.READ if event.kind is EventKind.STREAM_READ else EventKind.WRITE
        addr, size, chunk = event.addr, event.size, event.chunk
        nt, relaxed, site, chain = event.nontemporal, event.relaxed, event.site, event.callchain
        execute = self.execute
        offset = 0
        while offset < size:
            clock = self.clock
            if not (clock < strict_limit and clock <= loose_limit):
                event.addr = addr + offset
                event.size = size - offset
                return event
            length = chunk if size - offset >= chunk else size - offset
            execute(Event.fast_access(access_kind, addr + offset, length, nt, relaxed, site, chain))
            offset += length
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
        self, event: Event, strict_limit: float, loose_limit: float
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
        per-event path mid-stream.
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
        device = machine.device
        device_read = device.read
        device_write_back = device.write_back
        # Device state as loop locals (DESIGN.md §15): the bus/media
        # horizons are read by the per-store backpressure check and
        # advanced by every cold fill, so holding them in locals — synced
        # around the rare out-of-line calls — removes the device's
        # attribute traffic from the loop.  The inline read/write-back
        # bodies below replicate MemoryDevice.read/write_back
        # float-for-float; their returned completion times are unused on
        # this path (visibility is the hoisted ``vis_uncached`` constant),
        # so the trailing latency adds are dropped.
        dstats = device.stats
        combiner = device.combiner
        c_open = combiner._open
        c_cap = combiner.capacity
        c_on_close = combiner.on_close
        read_buf = device._read_buffer
        rb_cap = device._combiner_entries
        d_bw = device._bw
        d_read_bw = device._read_bw
        d_gran = device._gran
        # Line-aligned, line-sized traffic stays within one internal
        # block whenever lines are no wider than the device granularity
        # (true for every preset); otherwise fall back to the bound
        # methods, re-synced per call.
        inline_dev = line_size <= d_gran
        bus_nf = device._bus_next_free
        media_nf = device._media_next_free
        rr_nf = device._read_return_next_free
        n_wb = 0  # inline writebacks since the last flush
        n_cmerge = 0  # combiner merges since the last flush
        n_cclose = 0  # combiner closes (= media writes) since the last flush
        backlog_limit = machine.spec.backlog_limit_cycles
        line_owner = machine.line_owner
        cid = self.stats.core_id
        stats = self.stats
        visibility = self._visibility_latency

        addr, size, chunk = event.addr, event.size, event.chunk
        relaxed, site, chain = event.relaxed, event.site, event.callchain
        offset = 0
        clock = self.clock
        tail = sb._pipeline_tail
        n_fast = 0  # fast-path accesses since the last flush
        n_coalesced = 0
        n_hits = 0  # L1 hit delta since the last flush
        n_miss = 0  # fused miss-everywhere fills since the last flush

        seq = chunk == line_size and addr % line_size == 0
        line = addr // line_size - 1
        while offset < size:
            if not (clock < strict_limit and clock <= loose_limit):
                break
            if seq:
                # Aligned line-granular stream (the common case): chunks
                # never straddle and the target line just increments.
                line += 1
                rem = size - offset
                length = line_size if rem >= line_size else rem
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
                        if inline_dev:
                            dstats.reads += n_miss
                            dstats.bytes_read += n_miss * line_size
                        n_miss = 0
                    if n_wb:
                        dstats.writebacks_received += n_wb
                        dstats.bytes_received += n_wb * line_size
                        n_wb = 0
                    if n_cmerge:
                        combiner.merges += n_cmerge
                        n_cmerge = 0
                    if n_cclose:
                        combiner.closes += n_cclose
                        dstats.media_writes += n_cclose
                        dstats.media_bytes_written += n_cclose * d_gran
                        n_cclose = 0
                    device._bus_next_free = bus_nf
                    device._media_next_free = media_nf
                    device._read_return_next_free = rr_nf
                    self.execute(
                        Event.fast_access(
                            EventKind.WRITE, a, length, False, relaxed, site, chain
                        )
                    )
                    clock = self.clock
                    tail = sb._pipeline_tail
                    bus_nf = device._bus_next_free
                    media_nf = device._media_next_free
                    rr_nf = device._read_return_next_free
                    offset += length
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
                            # Both arms run out-of-line device traffic:
                            # sync the horizon locals around the call.
                            device._bus_next_free = bus_nf
                            device._media_next_free = media_nf
                            device._read_return_next_free = rr_nf
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
                            bus_nf = device._bus_next_free
                            media_nf = device._media_next_free
                            rr_nf = device._read_return_next_free
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
                        # push out (miss counters batched in n_miss).
                        loc = fill_all(line, wb)
                        n_miss += 1
                        if l1_touch is None:
                            set_i = loc // l1_ways
                            on_access(l1_pstate[set_i], loc - set_i * l1_ways)
                        # (LUT policies: the dirty-mark touch repeats the
                        # install touch bit-for-bit, so it is skipped.)
                        l1_dirty[loc] = 1
                        if inline_dev:
                            # Inline MemoryDevice.read (stats batched in
                            # n_miss): the read-for-ownership occupies
                            # the media unless the block was just read,
                            # then returns over the shared link.
                            block = line * line_size // d_gran
                            if block in read_buf:
                                del read_buf[block]  # refresh LRU position
                                read_buf[block] = True
                                media_bytes = 0
                            else:
                                media_bytes = d_gran
                                read_buf[block] = True
                                if len(read_buf) > rb_cap:
                                    del read_buf[next(iter(read_buf))]
                            start = now if now >= media_nf else media_nf
                            media_nf = start + media_bytes / d_read_bw
                            start = media_nf
                            if bus_nf > start:
                                start = bus_nf
                            if rr_nf > start:
                                start = rr_nf
                            rr_nf = start + line_size / d_bw
                        else:
                            device._bus_next_free = bus_nf
                            device._media_next_free = media_nf
                            device._read_return_next_free = rr_nf
                            device_read(line * line_size, line_size, now)
                            bus_nf = device._bus_next_free
                            media_nf = device._media_next_free
                            rr_nf = device._read_return_next_free
                        line_owner[line] = cid
                        if wb:
                            if inline_dev:
                                for w in wb:
                                    # Inline MemoryDevice.write_back +
                                    # the single-block combiner add
                                    # (stats batched in n_wb/n_cmerge/
                                    # n_cclose).
                                    n_wb += 1
                                    start = now if now >= bus_nf else bus_nf
                                    bus_done = start + line_size / d_bw
                                    bus_nf = bus_done
                                    block = w * line_size // d_gran
                                    if block in c_open:
                                        merged = c_open[block] + line_size
                                        del c_open[block]  # refresh LRU
                                        c_open[block] = (
                                            d_gran if merged > d_gran else merged
                                        )
                                        n_cmerge += 1
                                    else:
                                        if len(c_open) >= c_cap:
                                            evicted = next(iter(c_open))
                                            del c_open[evicted]
                                            n_cclose += 1
                                            if c_on_close is not None:
                                                c_on_close(evicted)
                                            # The closed entry's media
                                            # write queues behind the
                                            # payload delivery.
                                            start = (
                                                bus_done
                                                if bus_done >= media_nf
                                                else media_nf
                                            )
                                            media_nf = start + d_gran / d_bw
                                        c_open[block] = line_size
                                    pending.pop(w, None)
                            else:
                                device._bus_next_free = bus_nf
                                device._media_next_free = media_nf
                                device._read_return_next_free = rr_nf
                                for w in wb:
                                    device_write_back(w * line_size, line_size, now)
                                    pending.pop(w, None)
                                bus_nf = device._bus_next_free
                                media_nf = device._media_next_free
                                rr_nf = device._read_return_next_free
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
            horizon = bus_nf if bus_nf > media_nf else media_nf
            if horizon > clock:
                excess = (horizon - clock) - backlog_limit
                if excess > 0:
                    clock += excess
                    stats.backpressure_stall_cycles += excess
            offset += length

        self.clock = clock
        sb._pipeline_tail = tail
        device._bus_next_free = bus_nf
        device._media_next_free = media_nf
        device._read_return_next_free = rr_nf
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
            if inline_dev:
                dstats.reads += n_miss
                dstats.bytes_read += n_miss * line_size
        if n_wb:
            dstats.writebacks_received += n_wb
            dstats.bytes_received += n_wb * line_size
        if n_cmerge:
            combiner.merges += n_cmerge
        if n_cclose:
            combiner.closes += n_cclose
            dstats.media_writes += n_cclose
            dstats.media_bytes_written += n_cclose * d_gran
        if offset < size:
            event.addr = addr + offset
            event.size = size - offset
            return event
        return None

    def _stream_read_fast(
        self, event: Event, strict_limit: float, loose_limit: float
    ) -> Optional[Event]:
        """Fused load loop, warm and cold.

        Warm single-line loads resolve to store-buffer forwarding or an
        L1 hit (plus an owner-transfer charge) without allocations; cold
        single-line loads call :meth:`CacheHierarchy.fill` (the generated
        fill kernels) and issue the device read and the writebacks it
        pushes out without the per-event dispatch.  Only line-straddling
        chunks fall back to the reference per-event path.
        """
        machine = self.machine
        line_size = machine.line_size
        l1 = self._l1
        l1_index = l1._index
        l1_ways = l1._ways
        l1_pstate = l1._policy_state
        on_access = l1.policy.on_access
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

        addr, size, chunk = event.addr, event.size, event.chunk
        relaxed, site, chain = event.relaxed, event.site, event.callchain
        offset = 0
        clock = self.clock
        n_fast = 0
        n_hits = 0

        while offset < size:
            if not (clock < strict_limit and clock <= loose_limit):
                break
            length = chunk if size - offset >= chunk else size - offset
            a = addr + offset
            line = a // line_size
            if (a + length - 1) // line_size == line:
                if line in pending:
                    # Store-to-load forwarding: FORWARD_LATENCY, no
                    # cache or device traffic.
                    n_fast += 1
                    clock += 1
                    offset += length
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
                    on_access(l1_pstate[set_i], loc - set_i * l1_ways)
                    clock += l1_latency + transfer
                    offset += length
                    continue
                # Cold: matches _do_read for a single non-forwarded
                # line: the fill, the (background) device read,
                # writebacks stamped at the pre-wait clock, then the
                # latency/occupancy wait.
                n_fast += 1
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
                offset += length
                continue
            # Line-straddling chunk: reference path.
            self.clock = clock
            if n_fast:
                stats.instructions += n_fast
                stats.reads += n_fast
                n_fast = 0
            if n_hits:
                l1.stats.hits += n_hits
                n_hits = 0
            self.execute(
                Event.fast_access(EventKind.READ, a, length, False, relaxed, site, chain)
            )
            clock = self.clock
            offset += length

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
        pre-load clock.
        """
        machine = self.machine
        stats = self.stats
        stats.reads += 1
        line_size = machine.line_size
        pending = self.store_buffer._pending
        line_owner = machine.line_owner
        cid = stats.core_id
        l1 = self._l1
        l1_index = l1._index
        fill = machine.hierarchy.fill
        fill_latency = machine.hierarchy.fill_latency
        memory = len(fill_latency) - 1
        device = machine.device
        wb = self._wb_scratch
        clock = self.clock
        hit_latency = 0.0
        mem_done = clock
        for line in event.lines(line_size):
            if line in pending:
                # Store-to-load forwarding.
                if hit_latency < FORWARD_LATENCY:
                    hit_latency = FORWARD_LATENCY
                continue
            owner = line_owner.get(line)
            transfer = 0 if owner is None or owner == cid else self._dir_latency
            if transfer:
                # Reading another core's private copy: the line becomes
                # shared once transferred.
                del line_owner[line]
            slot = l1_index.get(line)
            if slot is not None:
                ways = l1._ways
                set_i = slot // ways
                l1.stats.hits += 1
                l1.policy.on_access(l1._policy_state[set_i], slot - set_i * ways)
                latency = self._l1_hit_latency + transfer
                if latency > hit_latency:
                    hit_latency = latency
                continue
            level = fill(line, False, wb)
            latency = fill_latency[level] + transfer
            if latency > hit_latency:
                hit_latency = latency
            if level == memory:
                done = device.read(line * line_size, line_size, clock)
                if done > mem_done:
                    mem_done = done
            if wb:
                for w in wb:
                    device.write_back(w * line_size, line_size, clock)
                    pending.pop(w, None)
                del wb[:]
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
        for line in event.lines(machine.line_size):
            if machine.hierarchy.contains(line):
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
                machine.line_owner[line] = self.core_id
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
