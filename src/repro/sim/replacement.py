"""Cache replacement policies.

The paper's Problem #1 hinges on the fact that modern caches do *not*
evict in strict LRU order: "Intel CPUs rely on a pseudo-LRU and 'random'
evictions to reduce the cost of maintaining LRU.  Similarly, ARM CPUs
implement a mix of LRU, FIFO, and random evictions" (Section 4.1).

Each policy manages per-set metadata of its own shape; the cache gives it
way indices on insert/access and asks for a victim way on conflict.  All
randomised policies draw from a seeded :class:`random.Random` owned by the
policy so that simulations are reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, List

from repro.errors import ConfigurationError

__all__ = [
    "ReplacementPolicy",
    "TrueLRU",
    "FIFO",
    "RandomReplacement",
    "TreePLRU",
    "IntelLikePolicy",
    "ArmLikePolicy",
    "make_policy",
]


class ReplacementPolicy(ABC):
    """Per-set victim selection strategy.

    The cache calls :meth:`new_set` once per set, then feeds accesses and
    insertions through :meth:`on_access` / :meth:`on_insert` and asks
    :meth:`victim` for the way index to evict when the set is full.
    """

    name: str = "abstract"

    #: Contract: calling :meth:`on_access` repeatedly with the same way
    #: (and no interleaved insert/victim) leaves the metadata in the same
    #: state as calling it once, and draws no randomness.  All built-in
    #: policies satisfy this (recency updates are absorbing; RNG is only
    #: consumed by :meth:`victim`), which lets the simulator's fast paths
    #: collapse the reference interpreter's repeated same-way touches
    #: into one.  A subclass that counts accesses or randomises recency
    #: must set this to False; the fast paths then replay every touch.
    idempotent_on_access: bool = True

    @abstractmethod
    def new_set(self, ways: int) -> Any:
        """Create the metadata object for one ``ways``-wide set."""

    @abstractmethod
    def on_insert(self, state: Any, way: int) -> None:
        """A line was installed into ``way``."""

    @abstractmethod
    def on_access(self, state: Any, way: int) -> None:
        """The line in ``way`` was hit by a load or store."""

    @abstractmethod
    def victim(self, state: Any) -> int:
        """The way index to evict from a full set."""

    def evict_insert(self, state: Any) -> int:
        """Pick a victim and register the replacement insert, fused.

        Exactly equivalent to ``victim(state)`` followed by
        ``on_insert(state, way)`` — including randomness draw order — in
        one call.  The simulator's fused miss walk uses this to halve the
        per-eviction policy call count; built-in policies override it
        with fully inlined implementations.
        """
        way = self.victim(state)
        self.on_insert(state, way)
        return way

    def touch_slots(self, states: List[Any], slots: List[int], ways: int) -> None:
        """Touch the ways at flat ``slots`` (``set * ways + way``), in order.

        Exactly equivalent to ``on_access(states[slot // ways], slot %
        ways)`` for each slot in turn.  The simulator's fused load loop
        resolves runs of L1 hits in bulk and touches their lines through
        this one call; ``TrueLRU`` and the intel-like and arm-like
        policies override it with inlined loops.
        """
        on_access = self.on_access
        for slot in slots:
            on_access(states[slot // ways], slot % ways)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class TrueLRU(ReplacementPolicy):
    """Strict least-recently-used: the textbook baseline.

    Under true LRU, an application that writes arrays one after the other
    sees them evicted in the order they were written — the ideal the
    paper's Figure 2 contrasts real hardware against.
    """

    name = "lru"

    def new_set(self, ways: int) -> List[int]:
        # Recency stack: index 0 = LRU, last = MRU.
        return list(range(ways))

    def on_insert(self, state: List[int], way: int) -> None:
        self.on_access(state, way)

    def on_access(self, state: List[int], way: int) -> None:
        state.remove(way)
        state.append(way)

    def victim(self, state: List[int]) -> int:
        return state[0]

    def evict_insert(self, state: List[int]) -> int:
        way = state.pop(0)  # victim = LRU; insert makes it MRU
        state.append(way)
        return way

    def touch_slots(self, states: List[Any], slots: List[int], ways: int) -> None:
        for slot in slots:
            state = states[slot // ways]
            way = slot % ways
            state.remove(way)
            state.append(way)


class FIFO(ReplacementPolicy):
    """First-in first-out: eviction order ignores hits entirely."""

    name = "fifo"

    def new_set(self, ways: int) -> List[int]:
        return list(range(ways))

    def on_insert(self, state: List[int], way: int) -> None:
        state.remove(way)
        state.append(way)

    def on_access(self, state: List[int], way: int) -> None:
        # Hits do not change FIFO order.
        pass

    def victim(self, state: List[int]) -> int:
        return state[0]

    def evict_insert(self, state: List[int]) -> int:
        way = state.pop(0)  # victim = oldest; insert re-queues it last
        state.append(way)
        return way


class RandomReplacement(ReplacementPolicy):
    """Uniformly random victim selection."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def new_set(self, ways: int) -> int:
        return ways

    def on_insert(self, state: int, way: int) -> None:
        pass

    def on_access(self, state: int, way: int) -> None:
        pass

    def victim(self, state: int) -> int:
        return self._rng.randrange(state)

    def evict_insert(self, state: int) -> int:
        return self._rng.randrange(state)  # on_insert is a no-op


#: Memoised tree-PLRU lookup tables keyed by way count.  A PLRU *touch*
#: writes fixed bits along a path determined only by the touched way —
#: never by the current state — so it collapses to
#: ``state & and_mask[way] | or_mask[way]`` on an integer-encoded tree
#: (bit ``i`` of the state is tree node ``i``).  The victim walk *is*
#: state-dependent, so it is tabulated over all ``2**(ways-1)`` states.
#: Table-driven and walk-based forms compute the same function, so mixing
#: them (e.g. a LUT-capable level next to a legacy one) cannot diverge.
_PLRU_LUTS: dict = {}
#: Beyond 16 ways the victim table (``2**(ways-1)`` entries) stops being
#: worth materialising; callers fall back to the walking form.
_PLRU_LUT_MAX_WAYS = 16


def _plru_lut(ways: int):
    """``(and_masks, or_masks, victim_table)`` for a ``ways``-way tree."""
    lut = _PLRU_LUTS.get(ways)
    if lut is not None:
        return lut
    nodes = ways - 1
    full = (1 << nodes) - 1
    and_masks: List[int] = []
    or_masks: List[int] = []
    for way in range(ways):
        clear = 0
        setv = 0
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bit = 1 << node
            clear |= bit
            if way < mid:
                setv |= bit
                node = 2 * node + 1
                hi = mid
            else:
                node = 2 * node + 2
                lo = mid
        and_masks.append(full & ~clear)
        or_masks.append(setv)
    victim_table: List[int] = []
    for state in range(1 << nodes):
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (state >> node) & 1:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        victim_table.append(lo)
    lut = (and_masks, or_masks, victim_table)
    _PLRU_LUTS[ways] = lut
    return lut


class TreePLRU(ReplacementPolicy):
    """Tree pseudo-LRU: the classic 1-bit-per-node approximation.

    For a ``w``-way set (``w`` a power of two) a binary tree of ``w - 1``
    bits points away from recently used ways.  Pseudo-LRU approximates LRU
    well but diverges under exactly the interleaved access patterns the
    paper cares about, producing out-of-order evictions.
    """

    name = "tree-plru"

    def new_set(self, ways: int) -> List[int]:
        if ways & (ways - 1):
            raise ConfigurationError(f"TreePLRU requires power-of-two ways, got {ways}")
        # bits[0] is the root; children of node i are 2i+1 and 2i+2.
        return [0] * (ways - 1)

    def _touch(self, bits: List[int], way: int) -> None:
        ways = len(bits) + 1
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits[node] = 1  # point away: right subtree is "older"
                node = 2 * node + 1
                hi = mid
            else:
                bits[node] = 0
                node = 2 * node + 2
                lo = mid
        del node  # fully descended

    def on_insert(self, state: List[int], way: int) -> None:
        self._touch(state, way)

    def on_access(self, state: List[int], way: int) -> None:
        self._touch(state, way)

    def victim(self, state: List[int]) -> int:
        ways = len(state) + 1
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if state[node] == 1:
                node = 2 * node + 2  # bit points right = right is older
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        return lo

    def evict_insert(self, state: List[int]) -> int:
        # victim walk and touch, fused (both loops inlined: this runs
        # once per conflict miss in the simulator's fused paths).
        ways = len(state) + 1
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if state[node] == 1:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        way = lo
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                state[node] = 1
                node = 2 * node + 1
                hi = mid
            else:
                state[node] = 0
                node = 2 * node + 2
                lo = mid
        return way


class IntelLikePolicy(ReplacementPolicy):
    """Tree-PLRU with a random-victim component, as on Intel cores.

    With probability ``random_prob`` the victim is chosen uniformly at
    random instead of by the PLRU tree, modelling the adaptive/random
    behaviour documented for Ivy Bridge and later (paper ref. [45]).
    """

    name = "intel-like"

    def __init__(self, random_prob: float = 0.25, seed: int = 0) -> None:
        if not 0.0 <= random_prob <= 1.0:
            raise ConfigurationError(f"random_prob must be in [0, 1], got {random_prob}")
        self.random_prob = random_prob
        self._plru = TreePLRU()
        self._rng = random.Random(seed)
        # Bound RNG draw: victim runs once per conflict miss in the
        # simulator's fused loops, so shave the attribute chains.  The
        # uniform way pick is ``int(random() * ways)`` — one C-level draw
        # instead of randrange's Python-level rejection loop; for the
        # power-of-two way counts the tree supports the float has bits to
        # spare, so the pick stays uniform.
        self._rand = self._rng.random

    def new_set(self, ways: int) -> Any:
        # Validate via TreePLRU (power-of-two ways), then prefer the
        # integer-encoded LUT state: the tree becomes one int, a touch
        # becomes two table lookups and a mask op, and the victim walk a
        # single indexed read.  Identical victims and identical RNG draw
        # order to the walking form — only the representation changes.
        bits = self._plru.new_set(ways)
        if ways > _PLRU_LUT_MAX_WAYS:
            return (ways, bits)
        and_masks, or_masks, victim_table = _plru_lut(ways)
        return [0, and_masks, or_masks, victim_table, ways]

    def on_access(self, state: Any, way: int) -> None:
        # This is the hottest policy call in the simulator: every hit
        # and every fill.
        if type(state) is list:
            state[0] = (state[0] & state[1][way]) | state[2][way]
            return
        # Legacy wide-set state: TreePLRU._touch on state[1], inlined.
        bits = state[1]
        node = 0
        lo, hi = 0, len(bits) + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits[node] = 1
                node = 2 * node + 1
                hi = mid
            else:
                bits[node] = 0
                node = 2 * node + 2
                lo = mid

    on_insert = on_access

    def touch_slots(self, states: List[Any], slots: List[int], ways: int) -> None:
        if ways > _PLRU_LUT_MAX_WAYS:
            super().touch_slots(states, slots, ways)
            return
        and_masks, or_masks, _ = _plru_lut(ways)
        for slot in slots:
            state = states[slot // ways]
            way = slot % ways
            state[0] = (state[0] & and_masks[way]) | or_masks[way]

    def victim(self, state: Any) -> int:
        if type(state) is list:
            if self._rand() < self.random_prob:
                return int(self._rand() * state[4])
            return state[3][state[0]]
        ways, bits = state
        if self._rand() < self.random_prob:
            return int(self._rand() * ways)
        # TreePLRU.victim on bits, inlined.
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bits[node] == 1:
                node = 2 * node + 2
                lo = mid
            else:
                node = 2 * node + 1
                hi = mid
        return lo

    def evict_insert(self, state: Any) -> int:
        if type(state) is list:
            s = state[0]
            if self._rand() < self.random_prob:
                way = int(self._rand() * state[4])
            else:
                way = state[3][s]
            state[0] = (s & state[1][way]) | state[2][way]
            return way
        ways, bits = state
        if self._rand() < self.random_prob:
            way = int(self._rand() * ways)
        else:
            node = 0
            lo, hi = 0, ways
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if bits[node] == 1:
                    node = 2 * node + 2
                    lo = mid
                else:
                    node = 2 * node + 1
                    hi = mid
            way = lo
        node = 0
        lo, hi = 0, ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits[node] = 1
                node = 2 * node + 1
                hi = mid
            else:
                bits[node] = 0
                node = 2 * node + 2
                lo = mid
        return way


class ArmLikePolicy(ReplacementPolicy):
    """A mix of LRU, FIFO and random eviction, as on ARM cores.

    Per eviction one of the three sub-policies is drawn according to the
    configured weights (paper ref. [3] documents such mixed behaviour for
    ARM cache controllers).
    """

    name = "arm-like"

    def __init__(
        self,
        lru_weight: float = 0.5,
        fifo_weight: float = 0.25,
        random_weight: float = 0.25,
        seed: int = 0,
    ) -> None:
        total = lru_weight + fifo_weight + random_weight
        if total <= 0 or min(lru_weight, fifo_weight, random_weight) < 0:
            raise ConfigurationError("ArmLikePolicy weights must be non-negative and sum > 0")
        self._weights = (lru_weight / total, fifo_weight / total, random_weight / total)
        self._lru = TrueLRU()
        self._fifo = FIFO()
        self._rng = random.Random(seed)
        # Bound delegates + precomputed thresholds for the per-miss
        # victim call; identical draw order through self._rng.
        self._rand = self._rng.random
        self._randrange = self._rng.randrange
        self._lru_cut = self._weights[0]
        self._fifo_cut = self._weights[0] + self._weights[1]

    def new_set(self, ways: int) -> Any:
        return (ways, self._lru.new_set(ways), self._fifo.new_set(ways))

    def on_insert(self, state: Any, way: int) -> None:
        lru_state = state[1]
        lru_state.remove(way)
        lru_state.append(way)
        fifo_state = state[2]
        fifo_state.remove(way)
        fifo_state.append(way)

    def on_access(self, state: Any, way: int) -> None:
        # LRU recency moves on a hit; FIFO order does not.
        lru_state = state[1]
        lru_state.remove(way)
        lru_state.append(way)

    def touch_slots(self, states: List[Any], slots: List[int], ways: int) -> None:
        for slot in slots:
            lru_state = states[slot // ways][1]
            way = slot % ways
            lru_state.remove(way)
            lru_state.append(way)

    def victim(self, state: Any) -> int:
        draw = self._rand()
        if draw < self._lru_cut:
            return state[1][0]
        if draw < self._fifo_cut:
            return state[2][0]
        return self._randrange(state[0])

    def evict_insert(self, state: Any) -> int:
        draw = self._rand()
        if draw < self._lru_cut:
            way = state[1][0]
        elif draw < self._fifo_cut:
            way = state[2][0]
        else:
            way = self._randrange(state[0])
        # on_insert inlined: LRU and FIFO orders both move the way last.
        lru_state = state[1]
        lru_state.remove(way)
        lru_state.append(way)
        fifo_state = state[2]
        fifo_state.remove(way)
        fifo_state.append(way)
        return way


_POLICIES = {
    "lru": TrueLRU,
    "fifo": FIFO,
    "random": RandomReplacement,
    "tree-plru": TreePLRU,
    "intel-like": IntelLikePolicy,
    "arm-like": ArmLikePolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a policy by name (seeded where applicable).

    >>> make_policy("lru").name
    'lru'
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls in (RandomReplacement, IntelLikePolicy, ArmLikePolicy):
        return cls(seed=seed)  # type: ignore[call-arg]
    return cls()
