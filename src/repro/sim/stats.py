"""Aggregated run statistics.

One :class:`RunResult` is produced per simulation; experiments compare
results across patch configurations (baseline vs. clean vs. demote vs.
skip) to produce the paper's speedup / write-amplification numbers.

Derived-ratio convention (DESIGN.md §9): a ratio whose denominator is
zero — IPC of a zero-cycle run, hit rate with no accesses, throughput of
a zero-cycle run, write amplification with no bytes received — returns
``float("nan")``, never a fake sentinel.  NaN propagates loudly through
arithmetic and comparisons instead of silently skewing means; callers
that want a sentinel must opt in explicitly.

:class:`RunResult` round-trips through JSON (:meth:`RunResult.to_json` /
:meth:`RunResult.from_json`) so experiment results and sampled timelines
can be archived as artifacts instead of dying with the process.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import Diagnostic
from repro.obs.timeline import Timeline

__all__ = ["CoreStats", "RunResult"]


@dataclass
class CoreStats:
    """Per-core cycle and instruction accounting."""

    core_id: int = 0
    cycles: float = 0.0
    instructions: int = 0
    reads: int = 0
    writes: int = 0
    nontemporal_writes: int = 0
    fences: int = 0
    atomics: int = 0
    prestores: int = 0
    #: Cycles stalled waiting for fences/atomics to observe visibility.
    fence_stall_cycles: float = 0.0
    #: Cycles stalled on device write backpressure.
    backpressure_stall_cycles: float = 0.0
    #: Cycles stalled on store-buffer overflow.
    store_buffer_stall_cycles: float = 0.0
    #: Demand-read cycles spent waiting on the memory device.
    memory_read_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        """Instructions per cycle; NaN for a zero-cycle core (no data)."""
        if self.cycles <= 0:
            return float("nan")
        return self.instructions / self.cycles


@dataclass
class RunResult:
    """Everything measured during one simulated run."""

    machine_name: str
    cycles: float
    #: ``cycles`` plus the time to drain all dirty data to the device at
    #: the end of the run.  Short write-heavy runs park dirty lines in
    #: the cache; steady-state throughput comparisons should use this.
    cycles_with_drain: float
    instructions: int
    cores: List[CoreStats]
    #: Per-cache-level stat snapshots keyed by level name.
    cache_hits: Dict[str, int]
    cache_misses: Dict[str, int]
    cache_evictions: Dict[str, int]
    cache_dirty_evictions: Dict[str, int]
    #: Device counters (the simulated ipmctl view).
    device_writebacks: int
    device_bytes_received: int
    device_media_bytes_written: int
    device_reads: int
    device_bytes_read: int
    #: Units of application work completed (set by the workload; used for
    #: throughput).
    work_items: int = 0
    #: Free-form extra metrics workloads want to expose.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Sanitizer findings for this run (empty unless a sanitizer was
    #: attached via the ``sanitize=`` hooks; see :mod:`repro.sanitize`).
    diagnostics: List["Diagnostic"] = field(default_factory=list)
    #: Sampled time-series telemetry (None unless an obs collector was
    #: attached via the ``obs=`` hooks; see :mod:`repro.obs`).
    timeline: Optional[Timeline] = None

    @property
    def write_amplification(self) -> float:
        """Media bytes written per cache byte evicted (>= ~1.0).

        NaN when the run evicted nothing (zero-denominator convention).
        """
        if self.device_bytes_received == 0:
            return float("nan")
        return self.device_media_bytes_written / self.device_bytes_received

    @property
    def total_fence_stall_cycles(self) -> float:
        return sum(c.fence_stall_cycles for c in self.cores)

    @property
    def total_backpressure_stall_cycles(self) -> float:
        return sum(c.backpressure_stall_cycles for c in self.cores)

    def throughput(self, work_items: Optional[int] = None, with_drain: bool = True) -> float:
        """Completed work items per kilocycle (higher is better).

        ``with_drain`` (default) also charges the end-of-run writeback
        drain: a roughly fixed cost that a short run does not amortise,
        so it can dominate a short write-heavy run's rate.  For the run
        alone, compare ``cycles`` (:meth:`speedup_over`).  NaN for a
        zero-cycle run (rate of nothing over no time — see the module
        docstring's derived-ratio convention).
        """
        items = self.work_items if work_items is None else work_items
        cycles = self.cycles_with_drain if with_drain else self.cycles
        if cycles <= 0:
            return float("nan")
        return 1000.0 * items / cycles

    def drained_speedup_over(self, baseline: "RunResult") -> float:
        """Like :meth:`speedup_over` but drain-inclusive."""
        if self.cycles_with_drain <= 0:
            return float("inf")
        return baseline.cycles_with_drain / self.cycles_with_drain

    def speedup_over(self, baseline: "RunResult") -> float:
        """Baseline cycles / our cycles (>1 means we are faster)."""
        if self.cycles <= 0:
            return float("inf")
        return baseline.cycles / self.cycles

    def summary(self) -> str:
        """A compact human-readable digest."""
        return (
            f"{self.machine_name}: {self.cycles:,.0f} cycles, "
            f"{self.instructions:,} instrs, WA={self.write_amplification:.2f}x, "
            f"fence stalls={self.total_fence_stall_cycles:,.0f}cyc, "
            f"backpressure={self.total_backpressure_stall_cycles:,.0f}cyc"
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data view of the whole result (JSON-serialisable)."""
        return {
            "machine_name": self.machine_name,
            "cycles": self.cycles,
            "cycles_with_drain": self.cycles_with_drain,
            "instructions": self.instructions,
            "cores": [asdict(c) for c in self.cores],
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
            "cache_evictions": dict(self.cache_evictions),
            "cache_dirty_evictions": dict(self.cache_dirty_evictions),
            "device_writebacks": self.device_writebacks,
            "device_bytes_received": self.device_bytes_received,
            "device_media_bytes_written": self.device_media_bytes_written,
            "device_reads": self.device_reads,
            "device_bytes_read": self.device_bytes_read,
            "work_items": self.work_items,
            "extra": dict(self.extra),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "timeline": self.timeline.to_dict() if self.timeline is not None else None,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "RunResult":
        data = dict(d)
        data["cores"] = [CoreStats(**c) for c in data.get("cores", ())]  # type: ignore[union-attr]
        data["diagnostics"] = [
            Diagnostic.from_dict(diag) for diag in data.get("diagnostics", ())  # type: ignore[union-attr]
        ]
        timeline = data.get("timeline")
        data["timeline"] = Timeline.from_dict(timeline) if timeline is not None else None  # type: ignore[arg-type]
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))
