"""Trace capture: the sampling and instrumentation front ends.

DirtBuster uses two observation mechanisms (paper Figure 6):

* :class:`SamplingTracer` — the ``perf``-equivalent.  It keeps one memory
  access in every ``period``, with its IP and callchain.  Cheap and
  imprecise: exactly what step 1 needs to rank write-intensive functions,
  and exactly why it cannot compute strides or distances (Section 6.1,
  "sampling one memory access every 10K instructions is too coarse
  grain").
* :class:`FullTracer` — the PIN-equivalent.  It records every load and
  store of the selected functions plus *all* fence-semantics
  instructions, preserving per-core program order.  This is the input to
  steps 2 and 3.

Both implement :class:`repro.sim.machine.Tracer` and attach to a machine,
and both take fused stream runs in bulk through ``record_stream``, so a
traced run keeps the simulator's fast path (DESIGN.md §18).
:class:`~repro.dirtbuster.runner.DirtBuster` attaches both, the full
tracer unfiltered, to one run of the application.

Each traced access becomes one :class:`AccessRecord`, a named tuple the
hot paths build without keyword handling, and :func:`owning_function`
is the one rule deciding which selected function an access belongs to
(DESIGN.md §18, "Trace records").
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.errors import TraceError
from repro.sim.event import PRESTORE, READ, WRITE, CodeSite, Event, EventKind
from repro.sim.machine import Tracer

__all__ = ["AccessRecord", "SamplingTracer", "FullTracer", "owning_function"]


class AccessRecord(NamedTuple):
    """One traced instruction.

    ``instr_index`` is the global retired-instruction counter at the time
    the instruction executed — the unit all DirtBuster distances are
    measured in.

    A named tuple, because a DirtBuster run keeps every access of the
    application: no per-instance ``__dict__``, native pickling, and the
    tracers build one with ``tuple.__new__`` at a quarter of a frozen
    dataclass's constructor cost.
    """

    instr_index: int
    core_id: int
    kind: EventKind
    addr: int
    size: int
    site: CodeSite
    callchain: Tuple[CodeSite, ...]

    @property
    def is_store(self) -> bool:
        return self.kind in (EventKind.WRITE, EventKind.ATOMIC)

    @property
    def is_load(self) -> bool:
        return self.kind is EventKind.READ

    @property
    def has_fence_semantics(self) -> bool:
        return self.kind in (EventKind.FENCE, EventKind.ATOMIC)

    @property
    def function(self) -> str:
        return self.site.function


_new = tuple.__new__


def _record_of(core_id: int, event: Event, instr_index: int) -> AccessRecord:
    return _new(
        AccessRecord,
        (instr_index, core_id, event.kind, event.addr, event.size, event.site, event.callchain),
    )


def owning_function(
    site: CodeSite, callchain: Tuple[CodeSite, ...], functions: Optional[Set[str]]
) -> Optional[str]:
    """The selected function an access at ``site`` belongs to, or None.

    ``functions=None`` selects everything.  Otherwise an access belongs to
    its own function when selected, else to the innermost selected caller
    on its callchain: writes routinely happen inside generic helpers
    (memcpy-alikes), and perf callchains let DirtBuster attribute them to
    the instrumented caller, which is where the patch will go (Section
    6.2.1).  ``FullTracer``'s record-time filter and the
    :class:`~repro.dirtbuster.instrument.Instrumenter` share this rule.
    """
    function = site.function
    if functions is None or function in functions:
        return function
    for caller in reversed(callchain):
        if caller.function in functions:
            return caller.function
    return None


class SamplingTracer(Tracer):
    """Timer-based sampler: one sample per ``period`` cycles (perf-style).

    Each executed event is weighted by the cycles it consumed, so the
    sampled store share approximates "time spent issuing store
    instructions" — the paper's Section 7.1 metric.  Samples falling on
    compute are counted (they dilute the store share) but carry no
    address; fences and pre-stores are attributed like compute.

    An event long enough to take several samples appends the same
    :class:`AccessRecord` once per sample: ``samples`` still has one entry
    per timer hit, but consecutive entries may be one shared object
    (:class:`~repro.dirtbuster.sampling.SampleProfile` folds such runs).
    """

    def __init__(self, period: int = 229) -> None:
        if period < 1:
            raise TraceError(f"sampling period must be >= 1, got {period}")
        self.period = period
        self.samples: List[AccessRecord] = []
        #: Samples that landed on non-memory work (compute/fences); they
        #: count towards the time denominator only.
        self.other_samples = 0
        self._countdown: dict = {}

    def record(self, core_id: int, event: Event, instr_index: int, cycles: float) -> None:
        remaining = self._countdown.get(core_id, float(self.period)) - cycles
        if remaining > 0:
            self._countdown[core_id] = remaining
            return
        hits = 0
        while remaining <= 0:
            hits += 1
            remaining += self.period
        self._countdown[core_id] = remaining
        if event.is_memory_access:
            self.samples.extend([_record_of(core_id, event, instr_index)] * hits)
        else:
            self.other_samples += hits

    def record_stream(
        self,
        core_id: int,
        kind: EventKind,
        addr: int,
        size: int,
        chunk: int,
        stride: int,
        nontemporal: bool,
        index: int,
        clocks: List[float],
        site: CodeSite,
        callchain: Tuple[CodeSite, ...],
    ) -> None:
        """A fused run's accesses, counted down one access at a time.

        Subtracting each access's ``clocks`` delta in turn keeps the
        countdown's float rounding — and so every sample — identical to
        the unrolled path's; subtracting the run's total would not.
        """
        period = self.period
        remaining = self._countdown.get(core_id, float(period))
        before = clocks[0]
        for k in range(1, len(clocks)):
            after = clocks[k]
            remaining -= after - before
            before = after
            if remaining <= 0:
                hits = 0
                while remaining <= 0:
                    hits += 1
                    remaining += period
                offset = (k - 1) * stride
                sample = _new(
                    AccessRecord,
                    (
                        index + k - 1,
                        core_id,
                        kind,
                        addr + offset,
                        min(chunk, size - offset),
                        site,
                        callchain,
                    ),
                )
                self.samples.extend([sample] * hits)
        self._countdown[core_id] = remaining

    def __len__(self) -> int:
        return len(self.samples) + self.other_samples


class FullTracer(Tracer):
    """Record every load/store of selected functions, and every fence.

    ``functions=None`` records everything (the paper's fully instrumented
    mode); otherwise only accesses that :func:`owning_function` attributes
    to a function of the set — their own or a caller's — are kept.
    Fence-semantics instructions are always kept regardless of location,
    because fences relevant to a write-intensive function routinely live
    in other libraries (Section 6.1: "the atomic instructions of locks
    are generally called from the pthread library").
    """

    def __init__(self, functions: Optional[Iterable[str]] = None) -> None:
        self.functions: Optional[Set[str]] = set(functions) if functions is not None else None
        self.records: List[AccessRecord] = []

    def record(self, core_id: int, event: Event, instr_index: int, cycles: float = 0.0) -> None:
        kind = event.kind
        if kind is READ or kind is WRITE or kind is PRESTORE:
            if owning_function(event.site, event.callchain, self.functions) is None:
                return
        elif not event.has_fence_semantics:
            return
        self.records.append(_record_of(core_id, event, instr_index))

    def record_stream(
        self,
        core_id: int,
        kind: EventKind,
        addr: int,
        size: int,
        chunk: int,
        stride: int,
        nontemporal: bool,
        index: int,
        clocks: List[float],
        site: CodeSite,
        callchain: Tuple[CodeSite, ...],
    ) -> None:
        """A fused run's accesses: one filter test, one record per access."""
        if owning_function(site, callchain, self.functions) is None:
            return
        self.records.extend(
            [
                _new(
                    AccessRecord,
                    (
                        index + k,
                        core_id,
                        kind,
                        addr + offset,
                        min(chunk, size - offset),
                        site,
                        callchain,
                    ),
                )
                for k, offset in enumerate(range(0, (len(clocks) - 1) * stride, stride))
            ]
        )

    def per_core(self) -> dict:
        """Records grouped by core, preserving program order."""
        by_core: dict = {}
        for rec in self.records:
            by_core.setdefault(rec.core_id, []).append(rec)
        return by_core

    def __len__(self) -> int:
        return len(self.records)
