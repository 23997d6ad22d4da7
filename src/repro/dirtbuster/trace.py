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

The full trace is a :class:`Trace`: typed columns with no Python object
per access, 33 bytes a record where a list of named tuples took 141
(tracemalloc, a small tensorflow trace).  The sampler folds each timer
hit into per-``(site, callchain)`` counts as it happens.
:func:`owning_function` is the one rule deciding which selected function
an access belongs to (DESIGN.md §18, "Trace records").
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.errors import TraceError
from repro.sim.event import ATOMIC, PRESTORE, READ, WRITE, CodeSite, Event, EventKind
from repro.sim.machine import Tracer

__all__ = [
    "AccessRecord",
    "KINDS",
    "KIND_CODES",
    "SamplingTracer",
    "FullTracer",
    "Trace",
    "owning_function",
]


class AccessRecord(NamedTuple):
    """One traced instruction: a row of a :class:`Trace`.

    ``instr_index`` is the global retired-instruction counter at the time
    the instruction executed — the unit all DirtBuster distances are
    measured in.  A trace builds rows only when it is iterated or
    indexed (export, tests); the analyses read its columns.
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


#: A trace's ``kind`` column holds each access's position in ``KINDS``.
KINDS: Tuple[EventKind, ...] = tuple(EventKind)
KIND_CODES: Dict[EventKind, int] = {kind: code for code, kind in enumerate(KINDS)}

_new = tuple.__new__


class Trace:
    """Traced accesses in execution order, one typed column per field.

    Row ``i`` is ``index[i]`` (instruction index), ``core[i]``,
    ``KINDS[kind[i]]``, ``addr[i]``, ``size[i]`` and
    ``pairs[pair[i]]``, the ``(site, callchain)`` it executed at.  The
    workload layer shares one site object per label and one callchain
    tuple per open function block, so a whole application has a handful
    of pairs; the table is keyed by the two objects' ids and holds both,
    so an id cannot be reused while the trace lives.
    """

    def __init__(self) -> None:
        self.index = array("q")
        self.core = array("H")
        self.kind = array("B")
        self.addr = array("q")
        self.size = array("q")
        self.pair = array("I")
        self.pairs: List[Tuple[CodeSite, Tuple[CodeSite, ...]]] = []
        self._pair_of: Dict[Tuple[int, int], int] = {}

    @classmethod
    def from_records(cls, records: Iterable[AccessRecord]) -> "Trace":
        """A trace holding ``records``, in their order."""
        trace = cls()
        for record in records:
            trace.append(*record)
        return trace

    def _pair(self, site: CodeSite, callchain: Tuple[CodeSite, ...]) -> int:
        key = (id(site), id(callchain))
        pair = self._pair_of.get(key)
        if pair is None:
            pair = self._pair_of[key] = len(self.pairs)
            self.pairs.append((site, callchain))
        return pair

    def append(
        self,
        instr_index: int,
        core_id: int,
        kind: EventKind,
        addr: int,
        size: int,
        site: CodeSite,
        callchain: Tuple[CodeSite, ...],
    ) -> None:
        """Add one access."""
        self.index.append(instr_index)
        self.core.append(core_id)
        self.kind.append(KIND_CODES[kind])
        self.addr.append(addr)
        self.size.append(size)
        self.pair.append(self._pair(site, callchain))

    def extend_run(
        self,
        core_id: int,
        kind: EventKind,
        addr: int,
        size: int,
        chunk: int,
        stride: int,
        index: int,
        count: int,
        site: CodeSite,
        callchain: Tuple[CodeSite, ...],
    ) -> None:
        """Add the first ``count`` accesses of a stream.

        Access ``k`` has instruction index ``index + k`` and covers
        ``min(chunk, size - k*stride)`` bytes at ``addr + k*stride``.
        Only a stream's last access can be short, so every access but
        the ``count``-th covers ``chunk`` bytes.
        """
        if count <= 0:
            return
        self.index.extend(range(index, index + count))
        self.core.extend(repeat(core_id, count))
        self.kind.extend(repeat(KIND_CODES[kind], count))
        self.addr.extend(range(addr, addr + count * stride, stride))
        self.size.extend(repeat(chunk, count - 1))
        self.size.append(min(chunk, size - (count - 1) * stride))
        self.pair.extend(repeat(self._pair(site, callchain), count))

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i: int) -> AccessRecord:
        site, callchain = self.pairs[self.pair[i]]
        return _new(
            AccessRecord,
            (self.index[i], self.core[i], KINDS[self.kind[i]], self.addr[i], self.size[i],
             site, callchain),
        )

    def __iter__(self) -> Iterator[AccessRecord]:
        pairs = self.pairs
        for instr_index, core_id, kind, addr, size, pair in zip(
            self.index, self.core, self.kind, self.addr, self.size, self.pair
        ):
            site, callchain = pairs[pair]
            yield _new(
                AccessRecord, (instr_index, core_id, KINDS[kind], addr, size, site, callchain)
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


#: Where a sampled kind's hits go in a ``SamplingTracer.hits`` entry.
_LOADS, _STORES, _ATOMICS = 2, 3, 4
_SLOT = {WRITE: _STORES, ATOMIC: _ATOMICS}


class SamplingTracer(Tracer):
    """Timer-based sampler: one sample per ``period`` cycles (perf-style).

    Each executed event is weighted by the cycles it consumed, so the
    sampled store share approximates "time spent issuing store
    instructions" — the paper's Section 7.1 metric.  Samples falling on
    compute are counted (they dilute the store share) but carry no
    address; fences and pre-stores are attributed like compute.

    An event long enough to take several samples is one sample of weight
    ``hits``.  Each sample is folded at once into ``hits``, keyed by the
    ids of its site and callchain objects: ``[site, callchain, loads,
    stores, atomics]`` in first-sample order, which is all
    :class:`~repro.dirtbuster.sampling.SampleProfile` reads.  The
    ``sample_core``, ``sample_index`` and ``sample_weight`` columns say
    which accesses were sampled, and how many timer hits each took.
    """

    def __init__(self, period: int = 229) -> None:
        if period < 1:
            raise TraceError(f"sampling period must be >= 1, got {period}")
        self.period = period
        self.hits: Dict[Tuple[int, int], list] = {}
        self.sample_core = array("H")
        self.sample_index = array("q")
        self.sample_weight = array("I")
        #: Samples that landed on non-memory work (compute/fences); they
        #: count towards the time denominator only.
        self.other_samples = 0
        self._countdown: dict = {}

    def _count(
        self, site: CodeSite, callchain: Tuple[CodeSite, ...], kind: EventKind, hits: int
    ) -> None:
        key = (id(site), id(callchain))
        entry = self.hits.get(key)
        if entry is None:
            entry = self.hits[key] = [site, callchain, 0, 0, 0]
        entry[_SLOT.get(kind, _LOADS)] += hits

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
            self.sample_core.append(core_id)
            self.sample_index.append(instr_index)
            self.sample_weight.append(hits)
            self._count(event.site, event.callchain, event.kind, hits)
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
        the unrolled path's; subtracting the run's total would not.  The
        run's site and callchain are one pair, so its hits fold once.
        """
        period = self.period
        remaining = self._countdown.get(core_id, float(period))
        total = 0
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
                self.sample_core.append(core_id)
                self.sample_index.append(index + k - 1)
                self.sample_weight.append(hits)
                total += hits
        self._countdown[core_id] = remaining
        if total:
            self._count(site, callchain, kind, total)

    def __len__(self) -> int:
        return sum(self.sample_weight) + self.other_samples


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
        self.trace = Trace()

    def record(self, core_id: int, event: Event, instr_index: int, cycles: float = 0.0) -> None:
        kind = event.kind
        if kind is READ or kind is WRITE or kind is PRESTORE:
            if owning_function(event.site, event.callchain, self.functions) is None:
                return
        elif not event.has_fence_semantics:
            return
        self.trace.append(
            instr_index, core_id, kind, event.addr, event.size, event.site, event.callchain
        )

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
        """A fused run's accesses: one filter test, the columns extended in bulk."""
        if owning_function(site, callchain, self.functions) is None:
            return
        self.trace.extend_run(
            core_id, kind, addr, size, chunk, stride, index, len(clocks) - 1, site, callchain
        )

    def __len__(self) -> int:
        return len(self.trace)
