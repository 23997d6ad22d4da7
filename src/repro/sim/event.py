"""Memory event model: the instruction stream seen by the simulator.

Workloads are generators of :class:`Event` objects.  The simulated CPU
consumes them, advancing its clock and mutating cache / store-buffer /
device state; DirtBuster's tracer observes the very same stream, which is
what makes the "PIN instrumentation" substitution faithful — both the
machine and the analysis see every load and store the program performs.

Each non-``COMPUTE`` event counts as exactly one retired instruction;
``COMPUTE(n)`` stands for ``n`` arithmetic instructions between memory
operations.  DirtBuster's re-read / re-write / fence distances (paper
Section 6.2.3) are measured in these instruction counts.

Two event representations exist for sequential access runs:

* the **reference** vocabulary — one READ/WRITE event per access, yielded
  individually by the workload generator; and
* the **batched** vocabulary — a single ``STREAM_READ``/``STREAM_WRITE``
  event (built with :meth:`Event.stream`) describing a whole run of
  same-site accesses, back to back or at a fixed stride.  The machine
  expands a stream inside its scheduler loop, one ``chunk``-byte access
  every ``stride`` bytes, with semantics bit-identical to the per-event
  form (DESIGN.md §11).

``Event`` is a ``__slots__`` class with a validating constructor and
non-validating :meth:`Event.fast` / :meth:`Event.fast_access` factories
for the simulator's hot paths; workload-authored events should use the
normal constructor (or the :class:`~repro.workloads.memapi.ThreadCtx`
helpers), which still checks its arguments.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.core.prestore import PrestoreOp
from repro.errors import SimulationError

__all__ = ["EventKind", "CodeSite", "Event", "Mailbox", "UNKNOWN_SITE", "STREAM_KINDS"]


class EventKind(enum.Enum):
    """The vocabulary of simulated instructions."""

    READ = "read"
    WRITE = "write"
    #: ``n`` non-memory instructions (ALU work); advances time and the
    #: instruction counter but touches no cache state.
    COMPUTE = "compute"
    #: Memory fence.  ``fence_scope`` distinguishes a full/store fence
    #: (``mfence`` / ``dmb ish``: prior stores must be globally visible)
    #: from a load/acquire fence (``dmb ishld``: orders reads only and
    #: does not drain the store buffer).
    FENCE = "fence"
    #: Atomic read-modify-write (e.g. ``cmpxchg``, ``ldaxr``/``stlxr``
    #: pairs).  Has fence semantics, as the paper notes in Section 6.2.2.
    ATOMIC = "atomic"
    #: A ``prestore(addr, size, op)`` call.
    PRESTORE = "prestore"
    #: Publish a synchronisation timestamp (models the *effect* of a
    #: flag store the partner spins on).
    POST = "post"
    #: Spin until a POSTed key is available (models a spin-wait loop).
    WAIT = "wait"
    #: A batched run of loads: one READ of ``chunk`` bytes every
    #: ``stride`` bytes, expanded by the machine scheduler (DESIGN.md §11).
    STREAM_READ = "stream_read"
    #: A batched run of stores: one WRITE of ``chunk`` bytes every
    #: ``stride`` bytes.
    STREAM_WRITE = "stream_write"


#: The batched (stream) kinds; the scheduler expands these inline.
STREAM_KINDS = (EventKind.STREAM_READ, EventKind.STREAM_WRITE)

#: Stream kind -> the per-access kind its expansion produces.
_STREAM_ACCESS_KIND = {
    EventKind.STREAM_READ: EventKind.READ,
    EventKind.STREAM_WRITE: EventKind.WRITE,
}

# Module-level aliases for identity dispatch.  ``EventKind.__hash__`` is
# a Python-level function, so enum-keyed dict and frozenset lookups cost
# one interpreted call each; the hot paths compare kinds with ``is``
# instead (DESIGN.md §11, "Single events").
READ = EventKind.READ
WRITE = EventKind.WRITE
COMPUTE = EventKind.COMPUTE
FENCE = EventKind.FENCE
ATOMIC = EventKind.ATOMIC
PRESTORE = EventKind.PRESTORE
POST = EventKind.POST
WAIT = EventKind.WAIT
STREAM_READ = EventKind.STREAM_READ
STREAM_WRITE = EventKind.STREAM_WRITE


class Mailbox:
    """Cross-thread synchronisation channel for workloads.

    A POST event records the posting core's clock under a key; a WAIT
    event blocks its core until the key exists, then advances the waiting
    core's clock to the post time (it could not have observed the flag
    earlier).  This models spin-wait handshakes (X9's inbox ring, barrier
    phases) without simulating every spin iteration.
    """

    def __init__(self) -> None:
        self._times: dict = {}

    def post(self, key, time: float) -> None:
        existing = self._times.get(key)
        if existing is None or time < existing:
            self._times[key] = time

    def get(self, key):
        return self._times.get(key)

    def __contains__(self, key) -> bool:
        return key in self._times


_ip_counter = itertools.count(0x400000)


@dataclass(frozen=True)
class CodeSite:
    """A synthetic program location: function, file, line, and a fake IP.

    Plays the role of the instruction pointer + debug info that perf and
    PIN report.  Sites are interned by the workload layer so that pointer
    equality works for grouping, but value equality is also defined.
    """

    function: str
    file: str = "<unknown>"
    line: int = 0
    ip: int = field(default_factory=lambda: next(_ip_counter))

    def __str__(self) -> str:
        return f"{self.function} at {self.file}:{self.line} (ip={self.ip:#x})"


#: Default site for events emitted outside any labelled function.
UNKNOWN_SITE = CodeSite(function="<unlabelled>", file="<unknown>", line=0)

_EVENT_FIELDS = (
    "kind",
    "addr",
    "size",
    "op",
    "nontemporal",
    "relaxed",
    "fence_scope",
    "mailbox",
    "sync_key",
    "site",
    "callchain",
    "chunk",
    "stride",
)


class Event:
    """One simulated instruction (or, for stream kinds, a run of them).

    ``addr``/``size`` describe the touched byte range for memory events.
    ``site`` and ``callchain`` carry the provenance DirtBuster needs;
    ``callchain`` is the tuple of caller sites, innermost last, exactly
    like a perf callchain.  ``chunk`` and ``stride`` are only meaningful
    for stream events: access *k* of a stream is at ``addr + k*stride``
    and covers ``min(chunk, size - k*stride)`` bytes.  ``stride`` defaults
    to ``chunk`` (a contiguous run) and is 0 on every other event.

    The class uses ``__slots__`` and a hand-written constructor instead
    of a dataclass: the simulator allocates millions of these, and the
    dataclass machinery (``__post_init__`` dispatch, ``__dict__``
    storage) was a measurable share of interpreter time.
    """

    __slots__ = _EVENT_FIELDS

    def __init__(
        self,
        kind: EventKind,
        addr: int = 0,
        size: int = 0,
        op: Optional[PrestoreOp] = None,
        nontemporal: bool = False,
        relaxed: bool = False,
        fence_scope: str = "full",
        mailbox: Optional[Mailbox] = None,
        sync_key: object = None,
        site: CodeSite = UNKNOWN_SITE,
        callchain: Tuple[CodeSite, ...] = (),
        chunk: int = 0,
        stride: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.addr = addr
        self.size = size
        self.op = op
        self.nontemporal = nontemporal
        self.relaxed = relaxed
        self.fence_scope = fence_scope
        self.mailbox = mailbox
        self.sync_key = sync_key
        self.site = site
        self.callchain = callchain
        self.chunk = chunk
        self.stride = chunk if stride is None else stride
        self._validate()

    def _validate(self) -> None:
        kind = self.kind
        if kind is READ or kind is WRITE or kind is PRESTORE or kind is ATOMIC:
            if self.size <= 0:
                raise SimulationError(f"{kind.value} event requires size > 0, got {self.size}")
            if self.addr < 0:
                raise SimulationError(f"{kind.value} event requires addr >= 0, got {self.addr}")
        if kind is EventKind.COMPUTE and self.size <= 0:
            raise SimulationError(f"compute event requires a positive instruction count, got {self.size}")
        if kind is EventKind.PRESTORE and self.op is None:
            raise SimulationError("prestore event requires an op (DEMOTE or CLEAN)")
        if self.nontemporal and kind not in (EventKind.WRITE, EventKind.STREAM_WRITE):
            raise SimulationError("only WRITE events can be non-temporal")
        if self.relaxed and kind not in (
            EventKind.READ,
            EventKind.WRITE,
            EventKind.STREAM_READ,
            EventKind.STREAM_WRITE,
        ):
            raise SimulationError("only READ/WRITE events can be marked relaxed")
        if kind in (EventKind.POST, EventKind.WAIT) and self.mailbox is None:
            raise SimulationError(f"{kind.value} event requires a mailbox")
        if kind in STREAM_KINDS:
            if self.size <= 0 or self.addr < 0:
                raise SimulationError(f"{kind.value} event requires addr >= 0 and size > 0")
            if self.chunk <= 0:
                raise SimulationError(f"{kind.value} event requires a positive chunk")
            if self.stride < self.chunk:
                raise SimulationError(
                    f"{kind.value} event requires stride >= chunk, got stride "
                    f"{self.stride} < chunk {self.chunk}"
                )

    # -- fast constructors (simulator-internal hot paths) ------------------

    @classmethod
    def fast(
        cls,
        kind: EventKind,
        addr: int = 0,
        size: int = 0,
        op: Optional[PrestoreOp] = None,
        nontemporal: bool = False,
        relaxed: bool = False,
        fence_scope: str = "full",
        mailbox: Optional[Mailbox] = None,
        sync_key: object = None,
        site: CodeSite = UNKNOWN_SITE,
        callchain: Tuple[CodeSite, ...] = (),
        chunk: int = 0,
    ) -> "Event":
        """Build an event without validation (trusted, machine-built input).

        A stream built here is contiguous (``stride == chunk``).
        """
        ev = object.__new__(cls)
        ev.kind = kind
        ev.addr = addr
        ev.size = size
        ev.op = op
        ev.nontemporal = nontemporal
        ev.relaxed = relaxed
        ev.fence_scope = fence_scope
        ev.mailbox = mailbox
        ev.sync_key = sync_key
        ev.site = site
        ev.callchain = callchain
        ev.chunk = chunk
        ev.stride = chunk
        return ev

    @classmethod
    def fast_access(
        cls,
        kind: EventKind,
        addr: int,
        size: int,
        nontemporal: bool,
        relaxed: bool,
        site: CodeSite,
        callchain: Tuple[CodeSite, ...],
    ) -> "Event":
        """Skip-validation READ/WRITE constructor for stream expansion."""
        ev = object.__new__(cls)
        ev.kind = kind
        ev.addr = addr
        ev.size = size
        ev.op = None
        ev.nontemporal = nontemporal
        ev.relaxed = relaxed
        ev.fence_scope = "full"
        ev.mailbox = None
        ev.sync_key = None
        ev.site = site
        ev.callchain = callchain
        ev.chunk = 0
        ev.stride = 0
        return ev

    @classmethod
    def stream(
        cls,
        kind: EventKind,
        addr: int,
        size: int,
        chunk: int,
        nontemporal: bool = False,
        relaxed: bool = False,
        site: CodeSite = UNKNOWN_SITE,
        callchain: Tuple[CodeSite, ...] = (),
        stride: Optional[int] = None,
    ) -> "Event":
        """A batched run of accesses spanning ``[addr, addr+size)``.

        ``kind`` may be the per-access kind (READ/WRITE) or the stream
        kind directly.  The machine expands the run into one ``chunk``-
        byte access every ``stride`` bytes (default ``chunk``: back to
        back; the last access may be shorter), each counting as one
        retired instruction — exactly the sequence
        ``ThreadCtx.write_block``/``read_block``/``read_strided`` would
        have yielded event-by-event.
        """
        if kind is EventKind.READ:
            kind = EventKind.STREAM_READ
        elif kind is EventKind.WRITE:
            kind = EventKind.STREAM_WRITE
        if kind not in STREAM_KINDS:
            raise SimulationError(f"stream events must be READ or WRITE runs, got {kind!r}")
        return cls(
            kind,
            addr=addr,
            size=size,
            chunk=chunk,
            nontemporal=nontemporal,
            relaxed=relaxed,
            site=site,
            callchain=callchain,
            stride=stride,
        )

    @property
    def access_kind(self) -> EventKind:
        """The per-access kind a stream expands to (identity otherwise)."""
        return _STREAM_ACCESS_KIND.get(self.kind, self.kind)

    def accesses(self) -> "Iterator[Event]":
        """Expand a stream into its per-access events (identity otherwise).

        Yields exactly the READ/WRITE sequence the machine scheduler
        executes for this event: one ``chunk``-byte access every
        ``stride`` bytes, the last possibly shorter, all carrying the
        stream's provenance.  Analyses that keep per-access state without
        a machine (the crashcheck extractor) iterate this instead of
        special-casing stream kinds.
        """
        if self.kind not in STREAM_KINDS:
            yield self
            return
        kind = _STREAM_ACCESS_KIND[self.kind]
        chunk, stride, size = self.chunk, self.stride, self.size
        for offset in range(0, size, stride):
            yield Event.fast_access(
                kind,
                self.addr + offset,
                min(chunk, size - offset),
                self.nontemporal,
                self.relaxed,
                self.site,
                self.callchain,
            )

    @property
    def access_count(self) -> int:
        """Retired instructions this event stands for (streams: one per stride)."""
        if self.kind in STREAM_KINDS:
            return -(-self.size // self.stride)
        if self.kind is EventKind.COMPUTE:
            return self.size
        return 1

    # -- equality / repr ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _EVENT_FIELDS)

    def __hash__(self) -> int:
        return hash((self.kind, self.addr, self.size, self.fence_scope, self.chunk, self.stride))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.kind.name]
        for name in _EVENT_FIELDS[1:]:
            value = getattr(self, name)
            if value not in (0, None, False, (), "full", UNKNOWN_SITE):
                parts.append(f"{name}={value!r}")
        return f"Event({', '.join(parts)})"

    # -- classification -----------------------------------------------------

    @property
    def is_memory_access(self) -> bool:
        """True for events that read or write program data."""
        kind = self.kind
        return kind is READ or kind is WRITE or kind is ATOMIC

    @property
    def is_store(self) -> bool:
        """True for events that dirty program data (writes and atomics)."""
        return self.kind in (EventKind.WRITE, EventKind.ATOMIC)

    @property
    def has_fence_semantics(self) -> bool:
        """True for instructions that order *writes* (Section 6.2.2).

        Load/acquire fences order reads only; they neither drain the
        store buffer nor count as the paper's "instructions with fence
        semantics" for write-before-fence detection.
        """
        if self.kind is EventKind.ATOMIC:
            return True
        return self.kind is EventKind.FENCE and self.fence_scope == "full"

    def lines(self, line_size: int) -> range:
        """The cache-line numbers this event's byte range covers.

        For a strided stream this is the whole span, gaps included;
        :meth:`accesses` gives the lines each access touches.
        """
        kind = self.kind
        if (
            kind is READ
            or kind is WRITE
            or kind is ATOMIC
            or kind is PRESTORE
            or kind is STREAM_READ
            or kind is STREAM_WRITE
        ):
            addr = self.addr
            return range(addr // line_size, (addr + self.size - 1) // line_size + 1)
        return range(0)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is EventKind.COMPUTE:
            return f"compute({self.size})"
        if self.kind is EventKind.FENCE:
            # Scope matters for diagnostics: a load/acquire fence neither
            # drains the store buffer nor orders writes.
            return f"fence({self.fence_scope})"
        extra = f", op={self.op}" if self.op else ""
        nt = ", nt" if self.nontemporal else ""
        rl = ", relaxed" if self.relaxed else ""
        if self.kind in STREAM_KINDS:
            stride = f", stride={self.stride}" if self.stride != self.chunk else ""
            return (
                f"{self.kind.value}(addr={self.addr:#x}, size={self.size}, "
                f"chunk={self.chunk}{stride}{nt}{rl})"
            )
        return f"{self.kind.value}(addr={self.addr:#x}, size={self.size}{extra}{nt}{rl})"
