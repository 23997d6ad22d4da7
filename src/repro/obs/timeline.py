"""Time-resolved run telemetry: the sample record and its ring buffer.

Every aggregate the paper reports (write amplification via ipmctl
counters, fence-stall totals, mean cycles) is the *integral* of a
time-resolved signal: per-interval device bandwidth, store-buffer
fill/drain, write-combining-buffer churn, backpressure waves after a
fence.  A :class:`Timeline` keeps that signal — a bounded ring of
:class:`TimelineSample` interval records captured by
:class:`~repro.obs.sampler.TimelineSampler` during ``Machine.run``.

Per-interval fields are *deltas* over the covered interval, so summing a
field across samples re-derives the run total (the cross-check the obs
CLI's ``self-check`` performs against the simulated ipmctl counters).
Instantaneous fields (store-buffer occupancy, open combiner entries) are
gauges read at the sample instant.

This module is intentionally dependency-free (no simulator imports) so
that :mod:`repro.sim.stats` can attach a timeline to :class:`RunResult`
without an import cycle.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

__all__ = ["TimelineSample", "Timeline", "DEFAULT_INTERVAL", "DEFAULT_CAPACITY"]

#: Default sampling interval in simulated cycles.
DEFAULT_INTERVAL = 1000.0
#: Default ring capacity.  Runs longer than ``capacity * interval``
#: cycles drop their *oldest* samples (counted in ``dropped``); totals
#: in :attr:`Timeline.cumulative` stay exact regardless.
DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class TimelineSample:
    """Telemetry for one sampling interval ``(t - dt, t]``.

    ``t`` is the machine time (max core clock observed so far) at the
    sample instant, in simulated cycles; ``dt`` is the stretch of
    simulated time the delta fields cover.
    """

    t: float
    dt: float
    #: Cache-line bytes that arrived at the device this interval.
    device_bytes_received: int
    #: Bytes the medium actually wrote this interval (amplified).
    device_media_bytes_written: int
    #: Demand-read bytes served by the device this interval.
    device_bytes_read: int
    #: Per-core store-buffer occupancy at the sample instant (gauge).
    store_buffer_occupancy: Tuple[int, ...]
    #: Open write-combining entries on the device at the instant (gauge).
    combiner_open_entries: int
    #: Combiner entries closed (evicted to media) this interval.
    combiner_closes: int
    #: Cache accesses / hits summed over all levels this interval.
    cache_accesses: int
    cache_hits: int
    #: Fence-stall cycles accrued across all cores this interval.
    fence_stall_cycles: float
    #: Backpressure-stall cycles accrued across all cores this interval.
    backpressure_stall_cycles: float
    #: *Running* write amplification: cumulative media bytes written per
    #: cumulative byte received, up to and including this interval.
    running_write_amplification: float

    @property
    def device_write_bandwidth(self) -> float:
        """Media bytes written per cycle over this interval (NaN if dt=0)."""
        if self.dt <= 0:
            return float("nan")
        return self.device_media_bytes_written / self.dt

    @property
    def cache_hit_rate(self) -> float:
        """Interval hit rate over all levels; NaN when nothing was accessed."""
        if self.cache_accesses == 0:
            return float("nan")
        return self.cache_hits / self.cache_accesses

    def to_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["store_buffer_occupancy"] = list(self.store_buffer_occupancy)
        # NaN (running WA before any writeback) is not valid strict JSON;
        # archive it as null and restore on load.
        if math.isnan(self.running_write_amplification):
            d["running_write_amplification"] = None
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TimelineSample":
        kwargs = dict(d)
        kwargs["store_buffer_occupancy"] = tuple(kwargs["store_buffer_occupancy"])  # type: ignore[arg-type]
        if kwargs.get("running_write_amplification") is None:
            kwargs["running_write_amplification"] = float("nan")
        return cls(**kwargs)  # type: ignore[arg-type]


class Timeline:
    """A bounded, append-only ring of :class:`TimelineSample` records.

    Appending past ``capacity`` drops the oldest sample (``dropped``
    counts them); :attr:`cumulative` accumulates the delta fields of
    *every* sample ever appended, so run totals survive ring eviction.
    """

    _DELTA_FIELDS = (
        "device_bytes_received",
        "device_media_bytes_written",
        "device_bytes_read",
        "combiner_closes",
        "cache_accesses",
        "cache_hits",
        "fence_stall_cycles",
        "backpressure_stall_cycles",
    )

    def __init__(self, interval: float = DEFAULT_INTERVAL, capacity: int = DEFAULT_CAPACITY) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        if capacity <= 0:
            raise ValueError(f"timeline capacity must be positive, got {capacity}")
        self.interval = float(interval)
        self.capacity = int(capacity)
        self._samples: Deque[TimelineSample] = deque(maxlen=capacity)
        self.dropped = 0
        #: Exact run totals of every delta field (survive ring eviction).
        self.cumulative: Dict[str, float] = {name: 0 for name in self._DELTA_FIELDS}

    # -- collection --------------------------------------------------------

    def append(self, sample: TimelineSample) -> None:
        if self._samples and sample.t <= self._samples[-1].t:
            raise ValueError(
                f"timeline timestamps must be strictly increasing: "
                f"{sample.t} after {self._samples[-1].t}"
            )
        if len(self._samples) == self.capacity:
            self.dropped += 1
        self._samples.append(sample)
        for name in self._DELTA_FIELDS:
            self.cumulative[name] += getattr(sample, name)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[TimelineSample]:
        return iter(self._samples)

    def __getitem__(self, index: int) -> TimelineSample:
        return self._samples[index]

    @property
    def samples(self) -> List[TimelineSample]:
        return list(self._samples)

    def integrated(self, field_name: str) -> float:
        """Sum a delta field over the *retained* samples.

        Equals ``cumulative[field_name]`` when nothing was dropped — the
        property the obs self-check verifies against the ipmctl counters.
        """
        if field_name not in self._DELTA_FIELDS:
            raise KeyError(f"{field_name!r} is not an integrable delta field")
        return sum(getattr(s, field_name) for s in self._samples)

    def peak(self, field_name: str) -> float:
        """Largest per-sample value of a delta/gauge field (NaN if empty)."""
        values = [getattr(s, field_name) for s in self._samples]
        return max(values) if values else float("nan")

    def summary(self) -> Dict[str, float]:
        """Aggregate metrics over the whole timeline (empty without samples)."""
        if not self._samples:
            return {}
        span = self._samples[-1].t - self._samples[0].t + self._samples[0].dt
        total_media = self.cumulative["device_media_bytes_written"]
        received = self.cumulative["device_bytes_received"]
        accesses = self.cumulative["cache_accesses"]
        occupancies = [
            occ for s in self._samples for occ in s.store_buffer_occupancy
        ]
        return {
            "samples": float(len(self._samples)),
            "span_cycles": span,
            "mean_write_bandwidth": total_media / span if span > 0 else float("nan"),
            "peak_write_bandwidth": max(
                (s.device_write_bandwidth for s in self._samples if not math.isnan(s.device_write_bandwidth)),
                default=float("nan"),
            ),
            "mean_store_buffer_occupancy": (
                sum(occupancies) / len(occupancies) if occupancies else float("nan")
            ),
            "peak_combiner_open_entries": self.peak("combiner_open_entries"),
            "cache_hit_rate": (
                self.cumulative["cache_hits"] / accesses if accesses else float("nan")
            ),
            "write_amplification": (
                total_media / received if received else float("nan")
            ),
            "fence_stall_cycles": self.cumulative["fence_stall_cycles"],
            "backpressure_stall_cycles": self.cumulative["backpressure_stall_cycles"],
        }

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "cumulative": dict(self.cumulative),
            "samples": [s.to_dict() for s in self._samples],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Timeline":
        timeline = cls(interval=float(d["interval"]), capacity=int(d["capacity"]))  # type: ignore[arg-type]
        for sample in d.get("samples", ()):  # type: ignore[union-attr]
            timeline.append(TimelineSample.from_dict(sample))  # type: ignore[arg-type]
        # Restore exact totals (ring-evicted samples are gone from the
        # dict, so recomputing from samples would under-count).
        timeline.cumulative = dict(d.get("cumulative", timeline.cumulative))  # type: ignore[arg-type]
        timeline.dropped = int(d.get("dropped", 0))  # type: ignore[arg-type]
        return timeline

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Timeline":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Timeline {len(self._samples)} samples @ {self.interval:g}cyc"
            f"{f', {self.dropped} dropped' if self.dropped else ''}>"
        )
