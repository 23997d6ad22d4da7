"""Chrome trace-viewer / Perfetto export of a simulated run.

:class:`TraceBuilder` is a machine observer that renders the run in the
Trace Event Format (the JSON dialect both ``chrome://tracing`` and
https://ui.perfetto.dev load directly):

* **pid 0 — "cores"**: one thread track per simulated core.  Every
  executed event with a nonzero duration becomes a complete ("X") slice;
  consecutive events inside one ``ThreadCtx.function`` region are rolled
  up into phase slices named after the function, so scrubbing shows the
  workload's structure, not just instruction soup.
* **pid 1 — "device"**: counter ("C") tracks fed from the sampled
  timeline — media write bandwidth, open combiner entries, running
  write amplification — plus a per-core store-buffer occupancy counter
  on the cores process.
* **flow events** ("s"/"f"): store→visibility edges from a write to the
  fence/atomic that publishes it, the picture behind Figure 4's
  "last-minute visibility" cost.

Simulated cycles are written as microseconds (the format's time unit);
only relative magnitudes matter for scrubbing.

The builder bounds memory: beyond ``max_events`` slices further events
are dropped (counted in ``dropped_events``); counter events from the
timeline are never dropped.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.event import Event
    from repro.sim.machine import Machine
    from repro.sim.stats import RunResult

__all__ = ["TraceBuilder", "CORES_PID", "DEVICE_PID"]

CORES_PID = 0
DEVICE_PID = 1

#: Slice cap: pure-Python runs execute millions of events; a scrubbable
#: artifact needs only the first stretch plus the counter tracks.
DEFAULT_MAX_EVENTS = 20000
DEFAULT_MAX_FLOWS = 512


class TraceBuilder:
    """Collects trace events during a run; serialise with :meth:`to_dict`."""

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        max_flows: int = DEFAULT_MAX_FLOWS,
    ) -> None:
        self.max_events = max_events
        self.max_flows = max_flows
        self._events: List[dict] = []
        #: The observed machine, from ``attach`` until ``finish``.
        self._machine: Optional["Machine"] = None
        self._machine_name = "<detached>"
        self.dropped_events = 0
        self._flow_ids = 0
        #: Per-core list of flow ids started by stores, closed at the
        #: next fence/atomic on the same core.
        self._open_flows: Dict[int, List[int]] = {}
        #: Per-core (function name, start ts) of the current phase span.
        self._phase: Dict[int, tuple] = {}

    # -- observer interface -------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        self._machine = machine
        self._machine_name = machine.spec.name
        self._meta("process_name", CORES_PID, 0, name="cores")
        self._meta("process_name", DEVICE_PID, 0, name=f"device {machine.device.spec.name}")
        for core in machine.cores:
            self._meta("thread_name", CORES_PID, core.core_id, name=f"core {core.core_id}")

    def _meta(self, kind: str, pid: int, tid: int, **args: object) -> None:
        self._events.append(
            {"name": kind, "ph": "M", "pid": pid, "tid": tid, "ts": 0, "args": args}
        )

    def record(self, core_id: int, event: "Event", instr_index: int, cycles: float) -> None:
        machine = self._machine
        if machine is None:  # pragma: no cover - attach() always precedes run
            return
        end = machine.cores[core_id].clock
        start = end - cycles
        self._update_phase(core_id, event, start, end)
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        kind = event.kind
        if cycles > 0:
            self._events.append(
                {
                    "name": kind.value,
                    "cat": "sim",
                    "ph": "X",
                    "pid": CORES_PID,
                    "tid": core_id,
                    "ts": start,
                    "dur": cycles,
                    "args": {
                        "addr": f"{event.addr:#x}" if event.is_memory_access else None,
                        "size": event.size or None,
                        "site": event.site.function,
                    },
                }
            )
        self._record_flow(core_id, event, end)

    def _record_flow(self, core_id: int, event: "Event", ts: float) -> None:
        """Store→visibility edges: write starts a flow, fence/atomic ends it."""
        if event.is_store and not event.nontemporal:
            if self._flow_ids < self.max_flows:
                flow_id = self._flow_ids
                self._flow_ids += 1
                self._open_flows.setdefault(core_id, []).append(flow_id)
                self._events.append(
                    {
                        "name": "store-visibility",
                        "cat": "visibility",
                        "ph": "s",
                        "id": flow_id,
                        "pid": CORES_PID,
                        "tid": core_id,
                        "ts": ts,
                    }
                )
        if event.has_fence_semantics:
            for flow_id in self._open_flows.pop(core_id, ()):  # publish point
                self._events.append(
                    {
                        "name": "store-visibility",
                        "cat": "visibility",
                        "ph": "f",
                        "bp": "e",
                        "id": flow_id,
                        "pid": CORES_PID,
                        "tid": core_id,
                        "ts": ts,
                    }
                )

    def _update_phase(self, core_id: int, event: "Event", start: float, end: float) -> None:
        """Roll consecutive same-function events into one phase slice."""
        function = event.site.function
        current = self._phase.get(core_id)
        if current is not None and current[0] == function:
            self._phase[core_id] = (function, current[1], end)
            return
        if current is not None:
            self._emit_phase(core_id, current)
        self._phase[core_id] = (function, start, end)

    def _emit_phase(self, core_id: int, phase: tuple) -> None:
        function, start, end = phase
        if end <= start or function == "<unlabelled>":
            return
        self._events.append(
            {
                "name": function,
                "cat": "phase",
                "ph": "X",
                "pid": CORES_PID,
                "tid": core_id,
                "ts": start,
                "dur": end - start,
                "args": {},
            }
        )

    def instant(
        self,
        name: str,
        ts: float,
        pid: int = DEVICE_PID,
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """Emit an instant ("i") marker — crash points, injected faults.

        Markers are process-scoped so they render as full-height lines in
        the viewer; they are never dropped by the slice cap (a handful of
        faults must stay visible however long the run).
        """
        self._events.append(
            {
                "name": name,
                "cat": "fault",
                "ph": "i",
                "s": "p",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "args": args or {},
            }
        )

    def finish(self, machine: "Machine", result: "RunResult") -> None:
        for core_id, phase in sorted(self._phase.items()):
            self._emit_phase(core_id, phase)
        self._phase.clear()
        timeline = result.timeline
        if timeline is not None:
            self.add_counter_tracks(timeline)
        self._machine = None

    # -- counters from the timeline -----------------------------------------

    def add_counter_tracks(self, timeline: Timeline) -> None:
        """Emit device/core counter events from sampled intervals."""
        for sample in timeline:
            ts = sample.t - sample.dt
            bandwidth = sample.device_media_bytes_written / sample.dt if sample.dt > 0 else 0.0
            self._events.append(
                {
                    "name": "media write bandwidth (B/cyc)",
                    "ph": "C", "pid": DEVICE_PID, "tid": 0, "ts": ts,
                    "args": {"bytes_per_cycle": round(bandwidth, 4)},
                }
            )
            self._events.append(
                {
                    "name": "write combiner",
                    "ph": "C", "pid": DEVICE_PID, "tid": 0, "ts": ts,
                    "args": {
                        "open_entries": sample.combiner_open_entries,
                        "closes": sample.combiner_closes,
                    },
                }
            )
            # No WA counter point before the first writeback: the running
            # WA is NaN then (DESIGN.md §9), and NaN is not valid JSON.
            if not math.isnan(sample.running_write_amplification):
                self._events.append(
                    {
                        "name": "write amplification",
                        "ph": "C", "pid": DEVICE_PID, "tid": 0, "ts": ts,
                        "args": {"wa": round(sample.running_write_amplification, 4)},
                    }
                )
            self._events.append(
                {
                    "name": "store-buffer occupancy",
                    "ph": "C", "pid": CORES_PID, "tid": 0, "ts": ts,
                    "args": {
                        f"core{i}": occ
                        for i, occ in enumerate(sample.store_buffer_occupancy)
                    },
                }
            )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "machine": self._machine_name,
                "time_unit": "simulated cycles (written as us)",
                "dropped_events": self.dropped_events,
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str, indent: Optional[int] = None) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=indent))
