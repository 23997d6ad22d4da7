"""Memory device models: DRAM, Optane PMEM, CXL SSD, FPGA-attached DRAM.

Devices differ in three paper-relevant ways (Table 1 and Section 3):

* **Internal write granularity** — the unit the medium actually writes.
  A 64 B cache-line writeback landing on a 256 B-granularity device forces
  a 256 B read-modify-write unless it can be merged with neighbouring
  writebacks: that is write amplification.
* **Latency** — cycles for a round trip; on Machine B the coherence
  directory also lives on the device, so *visibility* operations pay this
  latency too.
* **Bandwidth** — bytes per cycle the medium sustains; amplified writes
  consume it, which is what turns WA into lost throughput once enough
  threads contend (Figure 3).

The write combiner models the device-side buffering (e.g. Optane's
XPBuffer): a bounded set of open ``granularity``-sized entries.  Writebacks
that land in an open entry merge for free; closing an entry costs one
internal write of the full granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError

__all__ = [
    "DeviceSpec",
    "DeviceStats",
    "WriteCombiner",
    "MemoryDevice",
    "dram_spec",
    "optane_pmem_spec",
    "cxl_ssd_spec",
    "fpga_spec",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a memory device."""

    name: str
    #: Round-trip read latency in CPU cycles.
    read_latency: int
    #: Additional latency of a write reaching the medium, in cycles.
    write_latency: int
    #: Internal read/write unit of the medium, in bytes (Table 1).
    internal_granularity: int
    #: Sustained internal write bandwidth in bytes per CPU cycle.
    bandwidth_bytes_per_cycle: float
    #: Media read bandwidth; defaults to the write bandwidth.  Optane
    #: reads are ~3x faster than writes, but both occupy the same media,
    #: which is how write amplification slows reads down too.
    read_bandwidth_bytes_per_cycle: Optional[float] = None
    #: Number of open write-combining entries on the device.
    combiner_entries: int = 64
    #: True when the coherence directory is resident on this device
    #: (Section 4.2: Intel stores it in DRAM/PMEM, Enzian in the FPGA).
    hosts_directory: bool = True

    def validate(self) -> None:
        if self.read_latency < 0 or self.write_latency < 0:
            raise ConfigurationError(f"{self.name}: latencies must be non-negative")
        if self.internal_granularity <= 0 or self.internal_granularity & (self.internal_granularity - 1):
            raise ConfigurationError(
                f"{self.name}: internal granularity must be a positive power of two, "
                f"got {self.internal_granularity}"
            )
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be positive")
        if self.read_bandwidth_bytes_per_cycle is not None and self.read_bandwidth_bytes_per_cycle <= 0:
            raise ConfigurationError(f"{self.name}: read bandwidth must be positive")
        if self.combiner_entries <= 0:
            raise ConfigurationError(f"{self.name}: combiner needs at least one entry")


@dataclass
class DeviceStats:
    """Counters matching what ``ipmctl`` exposes on real PMEM.

    ``bytes_received`` counts cache-line bytes arriving from the CPU;
    ``media_bytes_written`` counts what the medium actually wrote.  Their
    ratio is the write amplification the paper measures with ipmctl.
    """

    writebacks_received: int = 0
    bytes_received: int = 0
    media_writes: int = 0
    media_bytes_written: int = 0
    reads: int = 0
    bytes_read: int = 0
    combiner_merges: int = 0

    def write_amplification(self) -> float:
        """Media bytes written per cache byte evicted.

        NaN when nothing has been received yet (DESIGN.md §9: a ratio
        with a zero denominator has no data, not a neutral value).
        """
        if self.bytes_received == 0:
            return float("nan")
        return self.media_bytes_written / self.bytes_received


class WriteCombiner:
    """Bounded set of open internal-granularity write entries.

    Tracks, per open entry, which bytes have arrived.  An entry closes
    (costing one full-granularity media write) when it is evicted to make
    room or at :meth:`flush`.  Sequential writeback streams keep hitting
    the same open entry and merge perfectly; scrambled streams thrash.
    """

    def __init__(
        self,
        granularity: int,
        entries: int,
        on_close: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.granularity = granularity
        self.capacity = entries
        #: block number -> bytes merged so far.  A plain dict: insertion
        #: order is the LRU order, refreshed by delete-and-reinsert.
        self._open: dict = {}
        self.merges = 0
        self.closes = 0
        #: Optional hook fired with the block number of every entry that
        #: closes (eviction or flush).  The fault-injection tracker uses
        #: it to learn exactly when pending bytes become media-durable;
        #: timing and statistics are unaffected when unset.
        self.on_close = on_close

    def _close_entry(self, block: int) -> None:
        self.closes += 1
        if self.on_close is not None:
            self.on_close(block)

    def block_of(self, addr: int) -> int:
        return addr // self.granularity

    def add(self, addr: int, size: int) -> int:
        """Absorb a writeback; returns the number of entries closed."""
        gran = self.granularity
        if size > 0 and (addr + size - 1) // gran == addr // gran:
            # Single-block arrival — every line-sized writeback, since
            # lines divide the granularity.  Same bookkeeping as the
            # general walk below, without the chunking loop.
            block = addr // gran
            open_ = self._open
            if block in open_:
                merged = open_[block] + size
                del open_[block]  # re-insert to refresh LRU position
                open_[block] = gran if merged > gran else merged
                self.merges += 1
                return 0
            closed = 0
            if len(open_) >= self.capacity:
                evicted = next(iter(open_))
                del open_[evicted]
                self.closes += 1
                if self.on_close is not None:
                    self.on_close(evicted)
                closed = 1
            open_[block] = size
            return closed
        closed = 0
        remaining = size
        offset = addr
        while remaining > 0:
            block = self.block_of(offset)
            block_end = (block + 1) * self.granularity
            chunk = min(remaining, block_end - offset)
            if block in self._open:
                # Re-merges of the same line arrive repeatedly (hot-line
                # writebacks); the entry can never hold more than the
                # block's granularity worth of distinct bytes, so clamp
                # instead of accumulating unboundedly.
                merged = min(self.granularity, self._open[block] + chunk)
                del self._open[block]
                self._open[block] = merged
                self.merges += 1
            else:
                if len(self._open) >= self.capacity:
                    evicted = next(iter(self._open))
                    del self._open[evicted]
                    self._close_entry(evicted)
                    closed += 1
                self._open[block] = chunk
            offset += chunk
            remaining -= chunk
        return closed

    def flush(self) -> int:
        """Close all open entries; returns how many closed."""
        closed = len(self._open)
        for block in list(self._open):
            self._close_entry(block)
        self._open.clear()
        return closed

    @property
    def open_entries(self) -> int:
        return len(self._open)


class MemoryDevice:
    """A memory device with a shared link, a media queue and write combining.

    Time is passed in by callers (the CPU clocks).  The device keeps three
    horizons, each the cycle its resource next falls idle:

    * the *bus* (``_bus_next_free``): every writeback payload crossing the
      link advances it, in :meth:`write_back`;
    * *read returns* (``_read_return_next_free``): every line fill in
      :meth:`read` advances it, queued behind the bus;
    * the *media* (``_media_next_free``): media reads in :meth:`read`,
      combiner entries closed by :meth:`write_back` and the end-of-run
      :meth:`flush` advance it.

    Only these three methods move the horizons, and callers never read
    them: ``backlog(now)`` tells them how many cycles of bus or media work
    are queued — the CPU uses it to apply store backpressure — and
    ``quiesce_time(now)`` when all of it is done.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        spec.validate()
        self.spec = spec
        self.stats = DeviceStats()
        self.combiner = WriteCombiner(spec.internal_granularity, spec.combiner_entries)
        # Hot-path copies of the (frozen) spec fields: read/write_back
        # run once per cold miss, and the attribute chains dominate
        # otherwise (DESIGN.md §15).
        self._bw = spec.bandwidth_bytes_per_cycle
        self._read_bw = spec.read_bandwidth_bytes_per_cycle or spec.bandwidth_bytes_per_cycle
        self._gran = spec.internal_granularity
        self._read_latency = spec.read_latency
        self._write_latency = spec.write_latency
        self._combiner_entries = spec.combiner_entries
        #: The *bus* queue: every writeback's payload crosses the link to
        #: the device, merged or not — this is what makes cleaning a hot
        #: line expensive (Listing 3) even though the media dedupes it.
        self._bus_next_free = 0.0
        #: The *media* queue: internal granularity-sized writes.  Under
        #: write amplification this queue carries WA× the bus bytes and
        #: becomes the bottleneck.
        self._media_next_free = 0.0
        #: Read-return horizon: line-fill payloads share the link with
        #: writeback traffic (they wait behind ``_bus_next_free``) and
        #: serialise among themselves, but — like a real memory
        #: controller that slots prioritised reads into gaps — they do
        #: not push the writers' horizon back.
        self._read_return_next_free = 0.0
        #: Recently read media blocks: consecutive line fills within one
        #: internal-granularity block cost one media read, not four (the
        #: device buffers the block it just read).  Plain dict in
        #: insertion = LRU order, refreshed by delete-and-reinsert.
        self._read_buffer: dict = {}

    # -- time/bandwidth helpers -------------------------------------------

    def backlog(self, now: float) -> float:
        """Cycles of queued work not yet started at ``now``.

        The bus and the media pipeline in parallel; the backlog seen by a
        writer is whichever stage is further behind.  Only :meth:`read`,
        :meth:`write_back` and :meth:`flush` move the horizons, so between
        their calls the backlog can only shrink as ``now`` advances: a
        caller that found it within bounds need not ask again until it
        has sent the device more work.
        """
        bus = self._bus_next_free
        media = self._media_next_free
        horizon = bus if bus > media else media
        return horizon - now if horizon > now else 0.0

    def _media_occupancy_bytes(self, now: float, nbytes: int) -> int:
        """Fault-injection seam: the media work one access costs at ``now``.

        The base device returns ``nbytes`` unchanged; the fault-tracking
        device multiplies it inside degraded-bandwidth phases."""
        return nbytes

    # -- CPU-visible operations ---------------------------------------------

    def read(self, addr: int, size: int, now: float) -> float:
        """A demand read (line fill); returns its completion time.

        Reads occupy the same media as writes (an internal-granularity
        read-modify-read), so a large writeback backlog delays them —
        this is how write amplification slows down GET-heavy phases on
        real PMEM.  The CPU-side backpressure limit bounds how far behind
        the media can be, so reads never starve.

        The fill payload then crosses the shared link, so a writeback
        backlog on the *bus* delays reads too — even when the media
        itself is idle (e.g. a merge-friendly writeback stream that
        closes no combiner entries).
        """
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += size
        gran = self._gran
        media_bytes = 0
        block = addr // gran
        last = (addr + (size if size > 1 else 1) - 1) // gran
        read_buffer = self._read_buffer
        # A line fill covers one internal-granularity block, so this walk
        # runs its body once and builds no range.
        while True:
            if block in read_buffer:
                del read_buffer[block]  # re-insert to refresh LRU position
                read_buffer[block] = True
            else:
                media_bytes += gran
                read_buffer[block] = True
                if len(read_buffer) > self._combiner_entries:
                    del read_buffer[next(iter(read_buffer))]
            if block == last:
                break
            block += 1
        if media_bytes:
            media_bytes = self._media_occupancy_bytes(now, media_bytes)
        media = self._media_next_free
        start = now if now >= media else media
        media_done = start + media_bytes / self._read_bw
        self._media_next_free = media_done
        # The line fill is delivered over the same link writeback payloads
        # arrive on; it cannot start before the media produced the data.
        start = media_done
        bus = self._bus_next_free
        if bus > start:
            start = bus
        rr = self._read_return_next_free
        if rr > start:
            start = rr
        bus_done = start + size / self._bw
        self._read_return_next_free = bus_done
        return bus_done + self._read_latency

    def write_back(self, addr: int, size: int, now: float) -> float:
        """A cache-line writeback arriving from the CPU.

        The payload lands in the combiner; any entries the arrival closes
        become media writes of the full internal granularity, queued on
        the bandwidth horizon.  Returns the time the writeback is durable
        on the medium (== enqueue time when it merely merged).
        """
        stats = self.stats
        stats.writebacks_received += 1
        stats.bytes_received += size
        bus = self._bus_next_free
        start = now if now >= bus else bus
        bus_done = start + size / self._bw
        self._bus_next_free = bus_done
        closed = self.combiner.add(addr, size)
        if not closed:
            return bus_done
        gran = self._gran
        stats.media_writes += closed
        stats.media_bytes_written += gran * closed
        # A closed entry's media write cannot start before the bus has
        # delivered the payload that triggered the close; each write
        # serialises on the media horizon, so the last one dominates.
        media = self._media_next_free
        for _ in range(closed):
            start = bus_done if bus_done >= media else media
            media = start + self._media_occupancy_bytes(start, gran) / self._bw
        self._media_next_free = media
        return media + self._write_latency

    def flush(self, now: float) -> float:
        """Close every open combiner entry (end of run / ``wbinvd``)."""
        closed = self.combiner.flush()
        if not closed:
            return float(now)
        gran = self._gran
        stats = self.stats
        stats.media_writes += closed
        stats.media_bytes_written += gran * closed
        # Each closed entry is one media write, serialised on the media
        # horizon, so the last one dominates.
        media = self._media_next_free
        for _ in range(closed):
            start = now if now >= media else media
            media = start + self._media_occupancy_bytes(now, gran) / self._bw
        self._media_next_free = media
        return media

    def quiesce_time(self, now: float) -> float:
        """When all queued bus/media work will have finished."""
        return max(now, self._bus_next_free, self._media_next_free)

    @property
    def directory_latency(self) -> int:
        """Latency of one coherence-directory update.

        Zero when the directory is not device-resident (then its cost is
        folded into the cache latencies).
        """
        return self.spec.read_latency if self.spec.hosts_directory else 0

    def write_amplification(self) -> float:
        return self.stats.write_amplification()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryDevice {self.spec.name} gran={self.spec.internal_granularity}B>"


# -- presets (Table 1 and Section 3) ----------------------------------------


def dram_spec(read_latency: int = 90, bandwidth: float = 12.0) -> DeviceSpec:
    """Directly attached DDR DRAM: 64 B granularity, no amplification."""
    return DeviceSpec(
        name="DRAM",
        read_latency=read_latency,
        write_latency=30,
        internal_granularity=64,
        bandwidth_bytes_per_cycle=bandwidth,
        combiner_entries=64,
        hosts_directory=False,
    )


def optane_pmem_spec(
    read_latency: int = 170,
    bandwidth: float = 1.1,
    combiner_entries: int = 24,
) -> DeviceSpec:
    """Intel Optane persistent memory (Machine A's cached medium).

    256 B internal granularity (Table 1); a small on-DIMM combining
    buffer; write bandwidth well below DRAM.  The default bandwidth
    (~2.2 GB/s/DIMM-group at 2.1 GHz) is scaled to our simulator units;
    only ratios matter for the reproduced claims.
    """
    return DeviceSpec(
        name="Optane-PMEM",
        read_latency=read_latency,
        write_latency=60,
        internal_granularity=256,
        bandwidth_bytes_per_cycle=bandwidth,
        read_bandwidth_bytes_per_cycle=3.0 * bandwidth,
        combiner_entries=combiner_entries,
        hosts_directory=True,
    )


def cxl_ssd_spec(granularity: int = 512, read_latency: int = 400, bandwidth: float = 0.8) -> DeviceSpec:
    """Byte-addressable CXL-attached SSD: 256/512 B internal granularity."""
    if granularity not in (256, 512):
        raise ConfigurationError("CXL SSDs use 256B or 512B internal granularity (Table 1)")
    return DeviceSpec(
        name=f"CXL-SSD-{granularity}B",
        read_latency=read_latency,
        write_latency=200,
        internal_granularity=granularity,
        bandwidth_bytes_per_cycle=bandwidth,
        combiner_entries=32,
        hosts_directory=True,
    )


def fpga_spec(read_latency: int, bandwidth: float, line_size: int = 128) -> DeviceSpec:
    """Enzian-style cache-coherent FPGA memory (Machine B).

    Granularity equals the CPU line size, so no write amplification is
    possible — matching Section 6.2.3's note that Machine B gains nothing
    from sequentiality.  The coherence directory is FPGA-resident, so
    visibility operations pay the FPGA latency (Section 4.2).
    """
    return DeviceSpec(
        name=f"FPGA-mem({read_latency}cyc)",
        read_latency=read_latency,
        write_latency=read_latency // 2,
        internal_granularity=line_size,
        bandwidth_bytes_per_cycle=bandwidth,
        # The FPGA fronts ordinary DRAM: reads are cheap and highly
        # parallel compared to the coherent-write path.
        read_bandwidth_bytes_per_cycle=4.0 * bandwidth,
        combiner_entries=64,
        hosts_directory=True,
    )
