"""The time-series sampler: turns a run into a :class:`Timeline`.

:class:`TimelineSampler` is an observer in the
:class:`~repro.sim.machine.Machine` observer list (the same interface
DirtBuster tracers and sanitizers use).  On every recorded event it
advances its notion of machine time — the maximum core clock observed —
and whenever at least ``interval`` simulated cycles have elapsed since
the previous sample it snapshots *deltas* of the device / cache / core
counters into a :class:`~repro.obs.timeline.TimelineSample`.

Because the event stream is deterministic for a given seed, so are the
sample timestamps and contents: two identical seeded runs produce
identical timelines (asserted by ``tests/test_obs_timeline.py``).

A final tail sample is emitted from the machine's ``finish`` hook so the
end-of-run cache drain and combiner flush are captured; that is what
makes the integrated per-interval device bytes equal the final ipmctl
counters exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.timeline import DEFAULT_CAPACITY, DEFAULT_INTERVAL, Timeline, TimelineSample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.event import Event
    from repro.sim.machine import Machine
    from repro.sim.stats import RunResult

__all__ = ["TimelineSampler"]


class TimelineSampler:
    """Ring-buffered per-interval sampler of simulator internals.

    One instance observes one run (like a Machine, single-use).  All
    state lives in plain attributes; a ``record`` call that does not
    cross an interval boundary costs two attribute reads and a compare.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.timeline = Timeline(interval=interval, capacity=capacity)
        #: The observed machine, from ``attach`` until ``finish``.
        self._machine: Optional["Machine"] = None
        self._attached = False
        #: Machine time: max core clock observed so far.
        self._now = 0.0
        #: End of the last emitted sample's interval.
        self._last_t = 0.0
        # Cumulative baselines for delta computation.
        self._bytes_received = 0
        self._media_bytes_written = 0
        self._bytes_read = 0
        self._combiner_closes = 0
        self._cache_accesses = 0
        self._cache_hits = 0
        self._fence_stall = 0.0
        self._backpressure_stall = 0.0
        self.samples_taken = 0

    # -- observer interface -------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        if self._attached:
            raise RuntimeError("TimelineSampler instances observe a single run")
        self._attached = True
        self._machine = machine

    def record(self, core_id: int, event: "Event", instr_index: int, cycles: float) -> None:
        machine = self._machine
        if machine is None:  # pragma: no cover - attach() always precedes run
            return
        clock = machine.cores[core_id].clock
        if clock > self._now:
            self._now = clock
        if self._now - self._last_t >= self.timeline.interval:
            self._take_sample(self._now)

    def finish(self, machine: "Machine", result: "RunResult") -> None:
        """Capture the tail interval (incl. drain) and publish the timeline."""
        end = max(result.cycles_with_drain, self._now)
        if end > self._last_t or not self.timeline:
            # Guarantee strictly increasing timestamps even for
            # degenerate zero-length runs.
            self._take_sample(end if end > self._last_t else self._last_t + 1e-9)
        result.timeline = self.timeline
        self._machine = None

    # -- sampling -----------------------------------------------------------

    def _take_sample(self, t: float) -> None:
        machine = self._machine
        assert machine is not None
        dev = machine.device.stats
        combiner = machine.device.combiner
        accesses = 0
        hits = 0
        for level in machine.hierarchy.levels:
            stats = level.stats
            accesses += stats.hits + stats.misses
            hits += stats.hits
        fence = 0.0
        backpressure = 0.0
        occupancy = []
        for core in machine.cores:
            fence += core.stats.fence_stall_cycles
            backpressure += core.stats.backpressure_stall_cycles
            occupancy.append(core.store_buffer.occupancy())
        sample = TimelineSample(
            t=t,
            dt=t - self._last_t,
            device_bytes_received=dev.bytes_received - self._bytes_received,
            device_media_bytes_written=dev.media_bytes_written - self._media_bytes_written,
            device_bytes_read=dev.bytes_read - self._bytes_read,
            store_buffer_occupancy=tuple(occupancy),
            combiner_open_entries=combiner.open_entries,
            combiner_closes=combiner.closes - self._combiner_closes,
            cache_accesses=accesses - self._cache_accesses,
            cache_hits=hits - self._cache_hits,
            fence_stall_cycles=fence - self._fence_stall,
            backpressure_stall_cycles=backpressure - self._backpressure_stall,
            running_write_amplification=dev.write_amplification(),
        )
        self.timeline.append(sample)
        self.samples_taken += 1
        self._last_t = t
        self._bytes_received = dev.bytes_received
        self._media_bytes_written = dev.media_bytes_written
        self._bytes_read = dev.bytes_read
        self._combiner_closes = combiner.closes
        self._cache_accesses = accesses
        self._cache_hits = hits
        self._fence_stall = fence
        self._backpressure_stall = backpressure
