"""The obs facade: one observer bundling sampler, trace, profile, metrics.

:class:`ObsCollector` follows the same opt-in pattern as
:class:`repro.sanitize.Sanitizer`: attach it with
``Program(..., obs=True)``, ``Workload.run(..., obs=True)`` or
``Machine(..., observers=[ObsCollector()])`` and it observes the run
without touching simulated time.  Off (the default) is genuinely free —
the machine then iterates an empty observer tuple, which is a single
falsy check per event.

One collector observes one run (like a Machine, single-use).  After the
run, read:

* ``collector.timeline`` — the sampled :class:`~repro.obs.timeline.Timeline`
  (also published as ``RunResult.timeline``);
* ``collector.trace`` — a :class:`~repro.obs.trace.TraceBuilder`, ready
  to ``write("out.trace.json")`` for Perfetto / ``chrome://tracing``;
* ``collector.registry`` — event/run metrics
  (:class:`~repro.obs.metrics.MetricsRegistry`);
* ``collector.profiler`` — wall-clock span stats for the simulator's
  hot loops, when constructed with ``profile=True``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.log import SpanProfiler, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import TimelineSampler
from repro.obs.timeline import DEFAULT_CAPACITY, DEFAULT_INTERVAL, Timeline
from repro.obs.trace import TraceBuilder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.event import Event
    from repro.sim.machine import Machine
    from repro.sim.stats import RunResult

__all__ = ["ObsCollector"]

_log = get_logger("collector")


class ObsCollector:
    """Fan-out observer: timeline sampling + trace building + metrics.

    ``trace=False`` skips slice collection (cheaper for long sweeps
    where only the timeline matters); ``profile=True`` additionally
    wraps the simulator's hot methods — event dispatch
    (``Machine.step``), cache lookup (``CacheHierarchy.access_line``),
    the L1-miss fill every load and store miss takes
    (``CacheHierarchy.fill``), store-buffer drain (``StoreBuffer.drain``)
    and device reads and writebacks (``MemoryDevice.read`` /
    ``write_back``) — in wall-clock span timers on *this machine
    instance only*.
    """

    #: The collector needs per-access records (timeline samples weight
    #: individual events); the machine therefore unrolls batched stream
    #: events before fan-out whenever one is attached.
    accepts_streams = False

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        trace: bool = True,
        profile: bool = False,
    ) -> None:
        self.sampler = TimelineSampler(interval=interval, capacity=capacity)
        self.trace: Optional[TraceBuilder] = TraceBuilder() if trace else None
        self.profiler: Optional[SpanProfiler] = SpanProfiler() if profile else None
        self.registry = MetricsRegistry()
        self._event_counts: Dict[str, int] = {}
        self._finished = False

    @property
    def timeline(self) -> Timeline:
        return self.sampler.timeline

    # -- observer interface -------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        self.sampler.attach(machine)
        if self.trace is not None:
            self.trace.attach(machine)
        if self.profiler is not None:
            self._instrument(machine)

    def _instrument(self, machine: "Machine") -> None:
        profiler = self.profiler
        assert profiler is not None
        profiler.wrap(machine, "step", "sim.dispatch")
        profiler.wrap(machine.hierarchy, "access_line", "sim.cache_lookup")
        profiler.wrap(machine.hierarchy, "fill", "sim.cache_fill")
        profiler.wrap(machine.device, "write_back", "sim.device_writeback")
        profiler.wrap(machine.device, "read", "sim.device_read")
        for core in machine.cores:
            profiler.wrap(core.store_buffer, "drain", "sim.store_drain")

    def record(self, core_id: int, event: "Event", instr_index: int, cycles: float) -> None:
        kind = event.kind.value
        self._event_counts[kind] = self._event_counts.get(kind, 0) + 1
        self.sampler.record(core_id, event, instr_index, cycles)
        if self.trace is not None:
            self.trace.record(core_id, event, instr_index, cycles)

    def finish(self, machine: "Machine", result: "RunResult") -> None:
        if self._finished:  # pragma: no cover - machines are single-use
            return
        self._finished = True
        self.sampler.finish(machine, result)
        if self.trace is not None:
            self.trace.finish(machine, result)
        if self.profiler is not None:
            self.profiler.unwrap_all()
        self._publish_metrics(machine, result)
        _log.debug(
            "run finished: %s cycles=%.0f samples=%d",
            result.machine_name, result.cycles, len(self.timeline),
        )

    # -- metrics ------------------------------------------------------------

    def _publish_metrics(self, machine: "Machine", result: "RunResult") -> None:
        reg = self.registry
        for kind, count in sorted(self._event_counts.items()):
            reg.counter(f"events.{kind}", help="executed events of this kind").value = float(count)
        reg.gauge("run.cycles").set(result.cycles)
        reg.gauge("run.cycles_with_drain").set(result.cycles_with_drain)
        reg.counter("run.instructions").value = float(result.instructions)
        reg.gauge("device.write_amplification").set(result.write_amplification)
        reg.counter("device.bytes_received").value = float(result.device_bytes_received)
        reg.counter("device.media_bytes_written").value = float(result.device_media_bytes_written)
        reg.counter("device.bytes_read").value = float(result.device_bytes_read)
        reg.gauge("stalls.fence_cycles").set(result.total_fence_stall_cycles)
        reg.gauge("stalls.backpressure_cycles").set(result.total_backpressure_stall_cycles)
        occupancy = reg.histogram("store_buffer.occupancy", bounds=(0, 1, 2, 4, 8, 16, 32, 56, 128))
        for sample in self.timeline:
            for occ in sample.store_buffer_occupancy:
                occupancy.observe(occ)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Timeline aggregates (see :meth:`Timeline.summary`)."""
        return self.timeline.summary()

    def write_trace(self, path: str) -> None:
        if self.trace is None:
            raise RuntimeError("collector was built with trace=False")
        self.trace.write(path)
