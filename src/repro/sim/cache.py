"""Set-associative write-back caches and the inclusive cache hierarchy.

The hierarchy is the centrepiece of Problem #1 (Section 4.1): even when an
application writes sequentially, pseudo-random replacement scrambles the
order in which dirty lines reach memory, and a device with a write
granularity larger than the CPU line suffers write amplification.

Model choices (documented in DESIGN.md):

* The last level is **inclusive**: a line present in an inner level is
  present in the last level.  Evicting a line from the last level
  back-invalidates the upper levels, collecting dirtiness on the way (the
  victim's most recent data must reach memory).  Middle levels are not:
  L2 may evict a line L1 still holds.
* Dirtiness lives at the *innermost* level holding the line; when an inner
  level evicts a dirty line, the dirt moves one level out, or to memory
  when that level no longer holds the line.
* The hierarchy is shared by all simulated cores.  Private L1s would only
  change constants; the eviction-order scrambling the paper measures comes
  from the shared last level, which this models directly.

Storage layout (DESIGN.md §15): each level keeps its tags and dirty bits
as flat structure-of-arrays — one tags array and one dirty byte array of
``num_sets * ways`` slots, plus a ``line -> slot`` index — instead of
per-way objects.  The flat slot number (``set * ways + way``) is the only
handle the hot paths pass around, and the end-of-run drain reads the dirty
column in one scan.  The module needs only the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.replacement import (
    _PLRU_LUT_MAX_WAYS,
    IntelLikePolicy,
    ReplacementPolicy,
    _plru_lut,
)

__all__ = ["CacheLevelSpec", "CacheStats", "CacheLevel", "Eviction", "CacheHierarchy"]

#: Tag value of an empty slot (line numbers are non-negative).
EMPTY = -1


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    #: Load-to-use latency of a hit at this level, in cycles.
    hit_latency: int
    #: Use hashed (slice-style) set indexing at this level.
    hashed_index: bool = False

    def validate(self, line_size: int) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.hit_latency < 0:
            raise ConfigurationError(f"{self.name}: sizes, ways and latency must be positive")
        if self.size_bytes % (self.ways * line_size) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line_size = {self.ways * line_size}"
            )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    cleans: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per access; NaN when the level was never accessed (see
        the derived-ratio convention in :mod:`repro.sim.stats`)."""
        if self.accesses == 0:
            return float("nan")
        return self.hits / self.accesses


@dataclass(frozen=True)
class Eviction:
    """A line pushed out of a cache level."""

    line: int
    dirty: bool


class CacheLevel:
    """One set-associative, write-back, write-allocate cache level.

    ``hashed_index`` spreads lines across sets with a multiplicative hash
    instead of simple modulo, modelling the slice/set hashing of modern
    last-level caches.  Hashing matters for Problem #1: it decouples the
    sets of the (consecutive) lines that make up one device-granularity
    block, so their evictions are *not* naturally co-scheduled — which is
    part of why hardware eviction order looks random to the device.

    State is structure-of-arrays: ``_tags[slot]`` holds the resident line
    (:data:`EMPTY` for a free way), ``_dirty[slot]`` its dirty bit, and
    ``_index`` maps a line to its flat slot.  ``slot = set * ways + way``.
    """

    def __init__(
        self,
        spec: CacheLevelSpec,
        line_size: int,
        policy: ReplacementPolicy,
    ) -> None:
        spec.validate(line_size)
        self.spec = spec
        self.line_size = line_size
        self.policy = policy
        # Read from the spec — a separate constructor argument used to
        # shadow ``spec.hashed_index``, silently dropping LLC hashing for
        # direct constructions that forgot to pass it twice.
        self.hashed_index = spec.hashed_index
        self.num_sets = spec.size_bytes // (spec.ways * line_size)
        self._ways = spec.ways
        slots = self.num_sets * spec.ways
        self._tags: List[int] = [EMPTY] * slots
        self._dirty = bytearray(slots)
        #: Occupied ways per set; lets installs skip the empty-way scan
        #: once a set is full (the steady state of every miss stream).
        self._set_fill: List[int] = [0] * self.num_sets
        self._policy_state = [policy.new_set(spec.ways) for _ in range(self.num_sets)]
        # line -> flat slot; the fast path for lookups.
        self._index: Dict[int, int] = {}
        #: Whether repeated ``on_access`` calls may be collapsed to one
        #: (see ReplacementPolicy.idempotent_on_access).
        self._idempotent_policy = bool(getattr(policy, "idempotent_on_access", False))
        self.stats = CacheStats()

    # -- queries ---------------------------------------------------------

    def set_index(self, line: int) -> int:
        """The set a line maps to (modulo, or hashed when configured)."""
        if self.hashed_index:
            # Fibonacci hashing: cheap, deterministic, well spread.  The
            # generated fill kernels emit the same expression.
            return ((line * 0x9E3779B97F4A7C15) >> 17) % self.num_sets
        return line % self.num_sets

    def contains(self, line: int) -> bool:
        return line in self._index

    def is_dirty(self, line: int) -> bool:
        slot = self._index.get(line)
        if slot is None:
            return False
        return bool(self._dirty[slot])

    def resident_lines(self) -> Iterator[int]:
        """All lines currently cached at this level."""
        return iter(self._index)

    def walk_lines(self) -> Iterator[int]:
        """Resident lines in physical (set, way) order.

        This is the order a ``wbinvd``-style walk pushes dirty lines out
        in — *not* address order.  With hashed set indexing consecutive
        addresses land in unrelated sets, so a flush stream is as
        scrambled as ordinary evictions; draining in sorted address order
        would fabricate merging the hardware cannot do.
        """
        for tag in self._tags:
            if tag != EMPTY:
                yield tag

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.spec.ways

    def occupancy(self) -> int:
        return len(self._index)

    # -- mutations -------------------------------------------------------

    def access(self, line: int, is_write: bool) -> bool:
        """Look up ``line``; on a hit, update recency and dirtiness.

        Returns True on hit.  Misses are *not* filled here — the hierarchy
        decides fill order; see :meth:`install`.
        """
        slot = self._index.get(line)
        if slot is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        ways = self._ways
        set_i = slot // ways
        self.policy.on_access(self._policy_state[set_i], slot - set_i * ways)
        if is_write:
            self._dirty[slot] = 1
        return True

    def install(self, line: int, dirty: bool = False) -> Optional[Eviction]:
        """Bring ``line`` in, evicting a victim if its set is full.

        Returns the eviction (if any).  Installing an already-present line
        just refreshes recency and ORs in the dirty bit.
        """
        ways = self._ways
        slot = self._index.get(line)
        if slot is not None:
            set_i = slot // ways
            self.policy.on_access(self._policy_state[set_i], slot - set_i * ways)
            if dirty:
                self._dirty[slot] = 1
            return None
        set_i = self.set_index(line)
        tags = self._tags
        base = set_i * ways
        evicted: Optional[Eviction] = None
        way_i = -1
        if self._set_fill[set_i] < ways:
            for i in range(ways):
                if tags[base + i] == EMPTY:
                    way_i = i
                    break
            self._set_fill[set_i] += 1
        if way_i < 0:
            way_i = self.policy.victim(self._policy_state[set_i])
            vslot = base + way_i
            victim_line = tags[vslot]
            if victim_line == EMPTY:
                # The empty-way scan above ran first, so a full set is an
                # invariant here: every way the policy may rank holds a
                # resident line.  Tested in tests/test_cache_invariants.py.
                raise SimulationError(f"{self.spec.name}: policy chose an empty way as victim")
            victim_dirty = self._dirty[vslot]
            evicted = Eviction(victim_line, bool(victim_dirty))
            del self._index[victim_line]
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
        slot = base + way_i
        tags[slot] = line
        self._dirty[slot] = 1 if dirty else 0
        self._index[line] = slot
        self.policy.on_insert(self._policy_state[set_i], way_i)
        return evicted

    def clean(self, line: int) -> bool:
        """Clear the dirty bit, keeping the line resident.

        Returns True if the line was present and dirty (i.e. a writeback
        is owed to the next level).  This is the cache-state effect of a
        *clean* pre-store (``clwb``): data stays cached.
        """
        slot = self._index.get(line)
        if slot is None:
            return False
        was_dirty = bool(self._dirty[slot])
        self._dirty[slot] = 0
        if was_dirty:
            self.stats.cleans += 1
        return was_dirty

    def invalidate(self, line: int) -> Tuple[bool, bool]:
        """Drop ``line``; returns ``(was_present, was_dirty)``."""
        slot = self._index.pop(line, None)
        if slot is None:
            return (False, False)
        was_dirty = bool(self._dirty[slot])
        self._tags[slot] = EMPTY
        self._dirty[slot] = 0
        self._set_fill[slot // self._ways] -= 1
        self.stats.invalidations += 1
        return (True, was_dirty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CacheLevel {self.spec.name}: {self.spec.size_bytes}B, "
            f"{self.num_sets}x{self.spec.ways} ways, line={self.line_size}B>"
        )


def _build_fill_all(levels: Sequence["CacheLevel"], start: int):
    """Generate the fused fill walk for lines missing at ``levels[:start + 1]``
    (DESIGN.md §15).

    Emits one specialised ``fill_<start>(line, wb) -> int`` that installs
    ``line`` into levels ``start`` down to 0, outermost first —
    first-empty-way scan, else the policy's fused ``evict_insert`` —
    propagating evictions the way the object walk does: an inner victim
    pushes its dirt one level out when that level holds it (and goes to
    memory when it does not), the last-level victim back-invalidates the
    inner columns, and dirt that reaches memory is appended to ``wb``.
    Returns the innermost (L1) slot the line landed in.  The kernel for
    ``start = len(levels) - 1`` is the miss-everywhere fill; a kernel with
    a smaller ``start`` serves a line that hit at ``levels[start + 1]``,
    so it also binds that level's columns for the dirt push.

    The source is generated per hierarchy and ``exec``-compiled once
    (the ``collections.namedtuple`` technique), so every per-level
    constant — way count, set count, hash choice, policy flavour — is
    baked in as a literal and every column is a plain name binding: a
    three-level cold fill runs without a single Python call beyond the
    policy's RNG draw.  Levels running :class:`IntelLikePolicy` on
    LUT-sized sets get the victim pick and recency touch emitted as the
    table lookups ``evict_insert``/``on_access`` would perform —
    identical RNG draws, identical state transitions — while any other
    policy keeps its bound method calls, so seeded runs are
    bit-identical to the object walk either way.
    """
    last = len(levels) - 1
    ns: dict = {"SimulationError": SimulationError}
    intel = [
        type(lvl.policy) is IntelLikePolicy and lvl._ways <= _PLRU_LUT_MAX_WAYS
        for lvl in levels
    ]
    for i in range(min(start + 1, last) + 1):
        lvl = levels[i]
        ns[f"t{i}"] = lvl._tags
        ns[f"d{i}"] = lvl._dirty
        ns[f"x{i}"] = lvl._index
        ns[f"p{i}"] = lvl._policy_state
        ns[f"fl{i}"] = lvl._set_fill
        ns[f"st{i}"] = lvl.stats
        policy = lvl.policy
        if intel[i]:
            ns[f"a{i}"], ns[f"o{i}"], ns[f"v{i}"] = _plru_lut(lvl._ways)
            ns[f"r{i}"] = policy._rand
        else:
            ns[f"oi{i}"] = policy.on_insert
            ns[f"ei{i}"] = policy.evict_insert
            ns[f"oa{i}"] = policy.on_access
    src = [f"def fill_{start}(line, wb):"]
    for i in range(start, -1, -1):
        lvl = levels[i]
        ways = lvl._ways
        src.append(f"    # -- {lvl.spec.name} --")
        if lvl.hashed_index:
            src.append(f"    set_i = ((line * 0x9E3779B97F4A7C15) >> 17) % {lvl.num_sets}")
        else:
            src.append(f"    set_i = line % {lvl.num_sets}")
        src.append(f"    base = set_i * {ways}")
        src.append(f"    if fl{i}[set_i] < {ways}:")
        src.append(f"        slot = base")
        src.append(f"        while t{i}[slot] != {EMPTY}:")
        src.append( "            slot += 1")
        src.append(f"        t{i}[slot] = line")
        src.append(f"        d{i}[slot] = 0")
        src.append(f"        x{i}[line] = slot")
        src.append(f"        fl{i}[set_i] += 1")
        if intel[i]:
            src.append( "        w = slot - base")
            src.append(f"        s = p{i}[set_i]")
            src.append(f"        s[0] = (s[0] & a{i}[w]) | o{i}[w]")
        else:
            src.append(f"        oi{i}(p{i}[set_i], slot - base)")
        if i == 0:
            src.append("        return slot")
            E = "    "
        else:
            src.append("    else:")
            E = "        "
        if intel[i]:
            src.append(E + f"s = p{i}[set_i]")
            src.append(E + "si = s[0]")
            src.append(E + f"if r{i}() < {lvl.policy.random_prob!r}:")
            src.append(E + f"    w = int(r{i}() * {ways})")
            src.append(E + "else:")
            src.append(E + f"    w = v{i}[si]")
            src.append(E + f"s[0] = (si & a{i}[w]) | o{i}[w]")
        else:
            src.append(E + f"w = ei{i}(p{i}[set_i])")
        src.append(E + "vslot = base + w")
        src.append(E + f"victim = t{i}[vslot]")
        src.append(E + f"if victim == {EMPTY}:")
        # The set is full here (set_fill == ways), so every way the
        # policy may rank holds a resident line; a miss means the policy
        # state desynced from the tag column.
        src.append(E + f"    raise SimulationError({lvl.spec.name!r} + ': policy chose an empty way as victim')")
        src.append(E + f"vd = d{i}[vslot]")
        src.append(E + f"del x{i}[victim]")
        src.append(E + f"st{i}.evictions += 1")
        src.append(E + "if vd:")
        src.append(E + f"    st{i}.dirty_evictions += 1")
        src.append(E + f"t{i}[vslot] = line")
        src.append(E + f"d{i}[vslot] = 0")
        src.append(E + f"x{i}[line] = vslot")
        if i == last:
            src.append(E + "owed = vd != 0")
            for j in range(last):
                src.append(E + f"islot = x{j}.pop(victim, None)")
                src.append(E + "if islot is not None:")
                src.append(E + f"    if d{j}[islot]:")
                src.append(E + "        owed = True")
                src.append(E + f"        d{j}[islot] = 0")
                src.append(E + f"    t{j}[islot] = {EMPTY}")
                src.append(E + f"    fl{j}[islot // {levels[j]._ways}] -= 1")
                src.append(E + f"    st{j}.invalidations += 1")
            src.append(E + "if owed:")
            src.append(E + "    wb.append(victim)")
        else:
            b = i + 1
            b_ways = levels[b]._ways
            src.append(E + f"bslot = x{b}.get(victim)")
            src.append(E + "if bslot is None:")
            src.append(E + "    if vd:")
            src.append(E + "        wb.append(victim)")
            src.append(E + "elif vd:")
            src.append(E + f"    bset = bslot // {b_ways}")
            if intel[b]:
                src.append(E + f"    bw = bslot - bset * {b_ways}")
                src.append(E + f"    bs = p{b}[bset]")
                src.append(E + f"    bs[0] = (bs[0] & a{b}[bw]) | o{b}[bw]")
            else:
                src.append(E + f"    oa{b}(p{b}[bset], bslot - bset * {b_ways})")
            src.append(E + f"    d{b}[bslot] = 1")
        if i == 0:
            src.append(E + "return vslot")
    exec(compile("\n".join(src), "<fused-fill>", "exec"), ns)
    # Popped, not looked up: the namespace is the kernel's globals, so
    # a namespace that kept the kernel would be a reference cycle
    # holding every bound column until a full collection.
    return ns.pop(f"fill_{start}")


@dataclass
class HierarchyAccessResult:
    """Outcome of one hierarchy access."""

    #: Name of the level that hit, or ``"memory"``.
    hit_level: str
    #: Load-to-use latency in cycles, excluding device queueing.
    latency: int
    #: Dirty lines pushed out to memory by fills along the way.
    writebacks: List[int] = field(default_factory=list)
    #: True when the request had to go to the memory device.
    memory_access: bool = False


class CacheHierarchy:
    """An inclusive multi-level cache hierarchy.

    ``levels`` are ordered innermost (L1) to outermost (LLC).  The memory
    device itself lives outside this class: the hierarchy reports which
    dirty lines fall out of the last level and the CPU forwards them to
    the device (where write-combining and amplification happen).
    """

    def __init__(self, levels: Sequence[CacheLevel], line_size: int) -> None:
        if not levels:
            raise ConfigurationError("hierarchy requires at least one cache level")
        sizes = [lvl.spec.size_bytes for lvl in levels]
        if sizes != sorted(sizes):
            raise ConfigurationError(
                "inclusive hierarchy requires monotonically growing level sizes; "
                f"got {sizes}"
            )
        for lvl in levels:
            if lvl.line_size != line_size:
                raise ConfigurationError("all levels must share the machine line size")
        self.levels = list(levels)
        self.line_size = line_size
        # Allocation-free fast path: innermost-level hits are by far the
        # most common outcome, need no fills or writebacks, and have a
        # constant latency — so they share one preallocated result.  The
        # shared result is read-only by convention (its writebacks
        # container is an empty tuple, so accidental mutation raises) and
        # only valid until the next access, which every caller satisfies.
        l1 = self.levels[0]
        self._l1_index = l1._index
        self._l1_hit = HierarchyAccessResult(l1.spec.name, l1.spec.hit_latency, (), False)  # type: ignore[arg-type]
        # Fused miss walk (DESIGN.md §15): one generated kernel per start
        # level, specialised to the hierarchy's geometry and policies.
        # ``_fill_kernels[k]`` installs a line into levels k..0; the last
        # one is the miss-everywhere fill.  All referenced containers are
        # mutated in place and never reassigned, so the generated code
        # stays valid for the hierarchy's life.
        self._level_stats = [lvl.stats for lvl in self.levels]
        self._fill_kernels = [_build_fill_all(self.levels, k) for k in range(len(self.levels))]
        self._fill_all = self._fill_kernels[-1]
        #: Probe columns of the levels outside L1, innermost first.
        self._outer = [
            (lvl._index, lvl.stats, lvl._dirty, lvl._policy_state, lvl.policy.on_access, lvl._ways)
            for lvl in self.levels[1:]
        ]
        self._l1_mark = (l1.stats, l1._dirty, l1._policy_state, l1.policy.on_access, l1._ways)
        #: Load-to-use latency of an access served by level ``i`` (the
        #: hit latencies of every level probed on the way); index
        #: ``len(levels)`` is memory, which pays every level's probe.
        latency = 0
        self.fill_latency: List[int] = []
        for lvl in self.levels:
            latency += lvl.spec.hit_latency
            self.fill_latency.append(latency)
        self.fill_latency.append(latency)
        self._level_names = [lvl.spec.name for lvl in self.levels] + ["memory"]

    @property
    def last_level(self) -> CacheLevel:
        return self.levels[-1]

    def line_of(self, addr: int) -> int:
        return addr // self.line_size

    # -- the main access path ---------------------------------------------

    def access_line(self, line: int, is_write: bool) -> HierarchyAccessResult:
        """Access one line, filling and evicting as needed.

        Latency is the hit latency of the level that hit (memory latency
        is added by the CPU, which owns the device clock).
        """
        slot = self._l1_index.get(line)
        if slot is not None:
            # Innermost hit: bump stats/recency/dirtiness in place and
            # return the shared result — no list or result allocation.
            # A write touches the policy twice (the access, then the
            # dirty-marking re-access), which idempotent policies
            # collapse to one touch.
            l1 = self.levels[0]
            ways = l1._ways
            set_i = slot // ways
            way_i = slot - set_i * ways
            l1.stats.hits += 1
            l1.policy.on_access(l1._policy_state[set_i], way_i)
            if is_write:
                l1._dirty[slot] = 1
                if not l1._idempotent_policy:
                    l1.policy.on_access(l1._policy_state[set_i], way_i)
            return self._l1_hit
        writebacks: List[int] = []
        level = self.fill(line, is_write, writebacks)
        return HierarchyAccessResult(
            self._level_names[level],
            self.fill_latency[level],
            writebacks,
            memory_access=level == len(self.levels),
        )

    def fill(self, line: int, is_write: bool, wb: List[int]) -> int:
        """Serve an access that missed L1; returns the level that hit.

        The return value indexes :attr:`levels`, with ``len(levels)``
        meaning memory; :attr:`fill_latency` maps it to the load-to-use
        latency.  The outer levels are probed innermost first — misses
        counted, the hit counted, touched and (on a write) dirtied —
        then the generated kernel for that depth installs the line in
        every level inside the hit, outermost first, appending the dirty
        lines that reach memory to ``wb``.  A write finally touches and
        dirties the new L1 copy: dirtiness lives at the innermost level.

        Callers must have established that L1 does not hold ``line``.
        """
        l1_stats, l1_dirty, l1_pstates, l1_on_access, l1_ways = self._l1_mark
        l1_stats.misses += 1
        level = 1
        for index, stats, dirty, pstates, on_access, ways in self._outer:
            slot = index.get(line)
            if slot is not None:
                stats.hits += 1
                set_i = slot // ways
                on_access(pstates[set_i], slot - set_i * ways)
                if is_write:
                    dirty[slot] = 1
                break
            stats.misses += 1
            level += 1
        slot = self._fill_kernels[level - 1](line, wb)
        if is_write:
            set_i = slot // l1_ways
            l1_on_access(l1_pstates[set_i], slot - set_i * l1_ways)
            l1_dirty[slot] = 1
        return level

    # -- pre-store support -------------------------------------------------

    def clean_line(self, line: int) -> bool:
        """Clean a line at every level; True if a writeback is owed.

        This is ``clwb``: modifications propagate to memory, the cached
        copies stay valid (Section 2: "cleaning the data propagates the
        modifications to memory but does not invalidate the cache").
        """
        owed = False
        for lvl in self.levels:
            owed = lvl.clean(line) or owed
        return owed

    def demote_line(self, line: int, writebacks: Optional[List[int]] = None) -> bool:
        """Demote a line from the innermost level towards the last level.

        Moves dirtiness (and recency priority) down: the line is dropped
        from inner levels and installed dirty in the last level, mirroring
        ``cldemote``.  Returns True if the line was present anywhere.

        Re-installing into the last level can evict a victim; the
        eviction is propagated (back-invalidations included) like any
        fill's, and dirty lines that reach memory are appended to
        ``writebacks`` when a list is given.  Dropping the eviction
        here — as this method used to — left the victim resident in the
        inner levels' indexes while gone from the LLC: exactly the stale
        state the install-path victim invariant exists to catch.
        """
        present = False
        dirty = False
        for lvl in self.levels[:-1]:
            was_present, was_dirty = lvl.invalidate(line)
            present = present or was_present
            dirty = dirty or was_dirty
        last = self.last_level
        if last.contains(line):
            present = True
            if dirty:
                last.access(line, is_write=True)
                last.stats.hits -= 1
        elif present:
            evicted = last.install(line, dirty=dirty)
            if evicted is not None:
                # Back-invalidate the inner levels (inclusion), collecting
                # their dirt: the victim's newest data must reach memory.
                owed = evicted.dirty
                for inner in self.levels[:-1]:
                    owed = inner.invalidate(evicted.line)[1] or owed
                if owed and writebacks is not None:
                    writebacks.append(evicted.line)
        return present

    def invalidate_line(self, line: int) -> bool:
        """Drop a line everywhere; True if any copy was dirty."""
        dirty = False
        for lvl in self.levels:
            __, was_dirty = lvl.invalidate(line)
            dirty = dirty or was_dirty
        return dirty

    def contains(self, line: int) -> bool:
        return any(lvl.contains(line) for lvl in self.levels)

    def is_dirty(self, line: int) -> bool:
        return any(lvl.is_dirty(line) for lvl in self.levels)

    def drain_dirty_lines(self) -> List[int]:
        """Flush: clean every level, returning dirty lines owed to memory.

        Used at end of run so devices see all outstanding writebacks (like
        powering down a machine with ``wbinvd``).  Lines come out level
        by level, outermost first, each in physical walk order — see
        :meth:`CacheLevel.walk_lines` for why sorted order would cheat.
        The walk covers every dirty slot of every level, so a dirty line
        an inner level holds without its outer copies is owed too.

        Each level's dirty column is scanned once with ``bytearray.find``
        stepping (dirty bytes are only ever 0 or 1): ascending slot order
        *is* physical walk order, and a level's clean stretches are
        skipped in C, so the cost follows the dirty slots rather than the
        level's size.
        """
        owed: List[int] = []
        seen = set()
        for lvl in reversed(self.levels):
            stats = lvl.stats
            tags = lvl._tags
            dirty = lvl._dirty
            slot = dirty.find(1)
            while slot >= 0:
                line = tags[slot]
                dirty[slot] = 0
                stats.cleans += 1
                if line not in seen:
                    seen.add(line)
                    owed.append(line)
                slot = dirty.find(1, slot + 1)
        return owed
