"""The generated fill kernels against the object walk (DESIGN.md §15).

Every L1 miss in the simulator goes through ``CacheHierarchy.fill`` and
the kernels ``_build_fill_all`` generates, one per start level.  The walk
they replaced lives on in :mod:`tests.object_walk`; here random line
sequences run through both on two identically seeded hierarchies, and
every result, every column, every policy state and every RNG draw must
match.
"""

import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import EMPTY, CacheHierarchy, CacheLevel, CacheLevelSpec
from repro.sim.machine import Machine, machine_a, machine_b_fast
from repro.sim.replacement import make_policy
from tests import object_walk


def _scaled(levels, sets):
    """A preset's level geometry (ways, latency, hashing) with ``sets``
    sets per level, small enough for a short line sequence to churn."""
    return [
        CacheLevelSpec(
            name=spec.name,
            size_bytes=n * spec.ways * 64,
            ways=spec.ways,
            hit_latency=spec.hit_latency,
            hashed_index=spec.hashed_index,
        )
        for spec, n in zip(levels, sets)
    ]


#: name -> (level specs, replacement policy).  Machine A: three levels,
#: intel-like on LUT-sized sets, hashed LLC.  Machine B: two levels,
#: arm-like, so the kernels keep the policy's bound methods.  The last
#: two run policies without LUT tables on three levels.
GEOMETRIES = {
    "machine-a": (_scaled(machine_a().cache_levels, (2, 4, 4)), "intel-like"),
    "machine-b": (_scaled(machine_b_fast().cache_levels, (2, 4)), "arm-like"),
    "true-lru": (_scaled(machine_a().cache_levels, (2, 4, 4)), "lru"),
    "intel-32-way": (
        [
            CacheLevelSpec("L1", 2 * 4 * 64, 4, 4),
            CacheLevelSpec("L2", 4 * 8 * 64, 8, 14),
            CacheLevelSpec("LLC", 2 * 32 * 64, 32, 40, hashed_index=True),
        ],
        "intel-like",
    ),
}


def _hierarchy(name):
    specs, policy = GEOMETRIES[name]
    levels = [
        CacheLevel(spec, 64, make_policy(policy, seed=11 + i)) for i, spec in enumerate(specs)
    ]
    return CacheHierarchy(levels, 64)


def _state(h):
    out = []
    for lvl in h.levels:
        rng = getattr(lvl.policy, "_rng", None)
        out.append(
            (
                list(lvl._tags),
                bytes(lvl._dirty),
                dict(lvl._index),
                list(lvl._set_fill),
                lvl._policy_state,
                lvl.stats,
                rng.getstate() if rng is not None else None,
            )
        )
    return out


def _apply(h, op, line):
    """A non-fill operation, identical on both hierarchies; they diversify
    the states the fills start from (inner-only lines, outer dirt)."""
    if op == "clean":
        h.clean_line(line)
    elif op == "demote":
        wb = []
        h.demote_line(line, wb)
        return wb
    elif op == "invalidate":
        h.invalidate_line(line)
    return None


_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "read", "write", "write", "clean", "demote", "invalidate"]),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=100,
    max_size=400,
)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@settings(max_examples=25, deadline=None)
@given(ops=_ops)
def test_fill_matches_object_walk(geometry, ops):
    kernels = _hierarchy(geometry)
    walk = _hierarchy(geometry)
    n = len(kernels.levels)
    for op, line in ops:
        if op not in ("read", "write"):
            assert _apply(kernels, op, line) == _apply(walk, op, line)
            continue
        is_write = op == "write"
        before_l1 = set(kernels.levels[0].resident_lines())
        if line in kernels.levels[0]._index:
            got = kernels.access_line(line, is_write)
            level = [lvl.spec.name for lvl in kernels.levels].index(got.hit_level)
            wb = list(got.writebacks)
        else:
            wb = []
            level = kernels.fill(line, is_write, wb)
        want = object_walk.access_line(walk, line, is_write)
        assert ([lvl.spec.name for lvl in walk.levels] + ["memory"])[level] == want.hit_level
        assert kernels.fill_latency[level] == want.latency
        assert wb == want.writebacks
        if 0 < level < n:
            # A partial hit never evicts from the LLC, so its only
            # writebacks are L1 victims no level between L1 and the LLC
            # still held: on two levels there are none.
            for victim in wb:
                assert victim in before_l1
                assert not any(lvl.contains(victim) for lvl in kernels.levels[:-1])
                assert kernels.last_level.contains(victim)
            if n == 2:
                assert wb == []
    assert _state(kernels) == _state(walk)
    drained = kernels.drain_dirty_lines()
    assert drained == object_walk.drain_dirty_lines(walk)
    assert not any(kernels.is_dirty(line) for line in drained)
    assert _state(kernels) == _state(walk)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_access_line_matches_object_walk(geometry):
    # access_line is the L1 hit path plus fill; its shared L1-hit result
    # and per-miss results must read the same as the walk's.
    kernels = _hierarchy(geometry)
    walk = _hierarchy(geometry)
    rng = random.Random(5)
    for _ in range(3000):
        line = rng.randrange(256)
        is_write = bool(rng.getrandbits(1))
        got = kernels.access_line(line, is_write)
        want = object_walk.access_line(walk, line, is_write)
        assert (got.hit_level, got.latency, list(got.writebacks), got.memory_access) == (
            want.hit_level,
            want.latency,
            want.writebacks,
            want.memory_access,
        )
    assert _state(kernels) == _state(walk)


def test_three_level_partial_hit_can_owe_a_writeback():
    # Pins the case the two-level invariant above excludes: L2 evicts a
    # line L1 still holds dirty, then L1 evicts it during a partial-hit
    # fill.  The dirt goes to memory although the LLC holds the line.
    h = _hierarchy("machine-a")
    rng = random.Random(2)
    owed = 0
    for _ in range(4000):
        line = rng.randrange(256)
        if line in h.levels[0]._index:
            h.access_line(line, True)
            continue
        wb = []
        level = h.fill(line, bool(rng.getrandbits(1)), wb)
        if 0 < level < len(h.levels):
            owed += len(wb)
    assert owed > 0


@pytest.mark.parametrize("preset", [machine_a, machine_b_fast], ids=["machine-a", "b-fast"])
def test_full_size_drain_matches_object_walk(preset):
    # The drain's scan on full-size columns (machine A: three levels and a
    # hashed 512-set LLC; B-fast: two levels), with dirt on the first two
    # and the last two slots of every level and dirt only L1 holds: the
    # three-level case where L2 dropped a line L1 still holds dirty.
    kernels = Machine(preset()).hierarchy
    walk = Machine(preset()).hierarchy
    llc_lines = kernels.last_level.capacity_lines
    rng = random.Random(3)
    ops = [(rng.randrange(3 * llc_lines), rng.random() < 0.2) for _ in range(4 * llc_lines)]
    for h in (kernels, walk):
        for line, is_write in ops:
            h.access_line(line, is_write)
    l1_only = []
    if len(kernels.levels) == 3:
        l1_only = list(kernels.levels[0].resident_lines())[:8]
        for h in (kernels, walk):
            for line in l1_only:
                h.access_line(line, True)
                h.levels[1].invalidate(line)
    boundary = []
    for i, lvl in enumerate(kernels.levels):
        last = lvl.capacity_lines - 1
        for slot in (0, 1, last - 1, last):
            assert lvl._tags[slot] != EMPTY
            boundary.append(lvl._tags[slot])
            for h in (kernels, walk):
                h.levels[i]._dirty[slot] = 1
    assert _state(kernels) == _state(walk)

    drained = kernels.drain_dirty_lines()
    want = object_walk.drain_dirty_lines(walk)
    assert drained == want
    assert drained != sorted(drained)
    assert set(boundary) <= set(drained)
    for line in l1_only:
        assert line in drained
        assert not kernels.levels[1].contains(line)
    for lvl in kernels.levels:
        assert not any(lvl._dirty)
    assert [lvl.stats.cleans for lvl in kernels.levels] == [
        lvl.stats.cleans for lvl in walk.levels
    ]


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_kernel_namespace_does_not_keep_the_kernel(geometry):
    # The exec namespace is the kernel's globals; holding the kernel too
    # would make a cycle that keeps every bound column alive until a
    # full collection (DESIGN.md §15).
    kernels = _hierarchy(geometry)._fill_kernels
    assert len(kernels) == len(GEOMETRIES[geometry][0])
    for kernel in kernels:
        assert all(value is not kernel for value in kernel.__globals__.values())


@pytest.mark.parametrize("preset", [machine_a, machine_b_fast], ids=["machine-a", "machine-b"])
def test_never_run_machine_is_freed_on_del(preset):
    # Reference counting alone frees it: no cycle runs through the
    # cores, the hierarchy or its kernels (DESIGN.md §4, "Run lifetime").
    machine = Machine(preset())
    ref = weakref.ref(machine)
    del machine
    assert ref() is None
