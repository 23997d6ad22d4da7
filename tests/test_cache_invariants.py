"""Policy-state / tag-column consistency invariants (DESIGN.md §15).

The hierarchy keeps each level's truth in flat columns (tags, dirty,
set-fill) plus an index and a per-set policy state.  These must never
desync: the victim a policy ranks has to hold a resident line whenever
the set is full.  Both the generic :meth:`CacheLevel.install` and the
generated ``<fused-fill>`` walk guard that with a
"policy chose an empty way as victim" :class:`SimulationError` —
converted here from a defensive raise into a tested invariant, after a
real desync bug: ``demote_line`` used to drop the LLC eviction its
re-install caused, leaving the victim resident in inner indexes while
gone from the LLC.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.cache import EMPTY, CacheHierarchy, CacheLevel, CacheLevelSpec
from repro.sim.replacement import _POLICIES, make_policy

ALL_POLICIES = sorted(_POLICIES)


def _level(size=512, ways=2, line=64, policy="lru", name="L1", hashed=False, latency=4):
    return CacheLevel(
        CacheLevelSpec(
            name=name, size_bytes=size, ways=ways, hit_latency=latency, hashed_index=hashed
        ),
        line,
        make_policy(policy, seed=3),
    )


def _hierarchy(policy="lru", hashed=False):
    l1 = _level(size=512, ways=2, policy=policy, name="L1")
    l2 = _level(size=2048, ways=4, policy=policy, name="L2", hashed=hashed, latency=12)
    return CacheHierarchy([l1, l2], 64)


def _check_level(lvl):
    """Structural consistency of one level's columns.

    Every index entry points at a tag slot holding its line, every
    non-EMPTY tag is indexed, and set-fill counts match the tag column
    set by set.  This is exactly the state the victim invariant depends
    on.
    """
    tags, ways = lvl._tags, lvl._ways
    assert len(lvl._index) == sum(1 for t in tags if t != EMPTY)
    for line, slot in lvl._index.items():
        assert tags[slot] == line
    for set_i in range(lvl.num_sets):
        base = set_i * ways
        filled = sum(1 for t in tags[base : base + ways] if t != EMPTY)
        assert lvl._set_fill[set_i] == filled


def _check_hierarchy(h):
    for lvl in h.levels:
        _check_level(lvl)
    # Inclusion at rest: every inner-resident line has an LLC copy.
    last = h.last_level
    for lvl in h.levels[:-1]:
        for line in lvl.resident_lines():
            assert last.contains(line), f"{lvl.spec.name} holds {line} but LLC lost it"


class TestChurn:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("hashed", [False, True])
    def test_mixed_churn_never_desyncs(self, policy, hashed):
        # Writes, fused cold fills, cleans, demotes, and invalidates over
        # a line pool small enough to force constant set conflict.  The
        # invariant checker runs after every op; a desync anywhere would
        # also surface as the SimulationError this file pins down below.
        h = _hierarchy(policy, hashed=hashed)
        rng = random.Random(1234)
        pool = range(48)
        wbs = []
        for _ in range(600):
            line = rng.choice(pool)
            op = rng.randrange(5)
            if op == 0 and not h.contains(line):
                h.fill(line, True, wbs)
            elif op <= 1:
                h.access_line(line, is_write=bool(rng.getrandbits(1)))
            elif op == 2:
                h.clean_line(line)
            elif op == 3:
                h.demote_line(line, wbs)
            else:
                h.invalidate_line(line)
            _check_hierarchy(h)


class TestVictimInvariant:
    def _fill_set(self, lvl, set_i=0):
        lines = [set_i + i * lvl.num_sets for i in range(lvl.spec.ways)]
        for line in lines:
            lvl.install(line)
        return lines

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_install_raises_on_desynced_state(self, policy):
        # White-box: blank the tag column of a full set while leaving
        # set-fill (and the policy state) claiming it is full.  Whatever
        # way the policy then ranks, its tag is EMPTY — the generic
        # install() must refuse rather than evict a phantom line.
        lvl = _level(policy=policy)
        self._fill_set(lvl)
        for way in range(lvl.spec.ways):
            lvl._tags[way] = EMPTY
        with pytest.raises(SimulationError, match="policy chose an empty way"):
            lvl.install(lvl.num_sets * lvl.spec.ways)  # maps to set 0, full

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_fused_fill_raises_on_desynced_state(self, policy):
        # The same invariant lives in the generated <fused-fill> code:
        # corrupt the LLC's set 0 the same way, then drive a
        # miss-everywhere fill through the hierarchy's fused walk.
        h = _hierarchy(policy)
        l2 = h.last_level
        victims = [i * l2.num_sets for i in range(l2.spec.ways)]
        for line in victims:
            h.access_line(line, is_write=False)
        assert l2._set_fill[0] == l2.spec.ways
        for way in range(l2.spec.ways):
            l2._tags[way] = EMPTY
        fresh = l2.num_sets * l2.spec.ways  # maps to LLC set 0, missing everywhere
        assert not h.contains(fresh)
        with pytest.raises(SimulationError, match="L2: policy chose an empty way"):
            h.fill(fresh, True, [])


class TestDemotePropagatesEvictions:
    def test_demote_install_eviction_reaches_memory_and_inner_levels(self):
        # Regression: demote_line re-installs into the LLC, which can
        # evict a victim.  Dropping that eviction left the victim in the
        # L1 index while gone from the LLC — the desync the tests above
        # guard against — and swallowed its dirty writeback.
        h = _hierarchy("lru")
        l1, l2 = h.levels
        # Build LLC set 0 directly so its LRU order is pinned: the
        # first-installed line is the victim, dirty, with a stale-able
        # copy sitting in L1.
        victim, *rest = [i * l2.num_sets for i in range(l2.spec.ways)]
        l2.install(victim, dirty=True)
        for line in rest:
            l2.install(line)
        l1.install(victim)
        # An inclusion-breaking race (outer eviction during a fill) can
        # leave a line inner-only; demote must then install it in the LLC.
        demoted = l2.num_sets * l2.spec.ways  # maps to LLC set 0
        l1.install(demoted, dirty=True)
        wbs = []
        assert h.demote_line(demoted, wbs)
        assert h.contains(demoted) and h.last_level.is_dirty(demoted)
        # The eviction propagated: victim is gone *everywhere* (no stale
        # inner copies) and its dirt reached the writeback list.
        assert not h.contains(victim)
        assert victim in wbs
        _check_hierarchy(h)

    def test_demote_without_eviction_owes_nothing(self):
        h = _hierarchy("lru")
        h.access_line(0, is_write=True)
        wbs = []
        assert h.demote_line(0, wbs)
        assert wbs == []
        assert not h.levels[0].contains(0) and h.last_level.is_dirty(0)
        _check_hierarchy(h)
