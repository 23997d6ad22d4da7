"""Unit and property tests for replacement policies."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.replacement import (
    ArmLikePolicy,
    FIFO,
    IntelLikePolicy,
    RandomReplacement,
    TreePLRU,
    TrueLRU,
    make_policy,
)

ALL_POLICY_NAMES = ["lru", "fifo", "random", "tree-plru", "intel-like", "arm-like"]


class TestTrueLRU:
    def test_victim_is_least_recent(self):
        lru = TrueLRU()
        state = lru.new_set(4)
        for way in range(4):
            lru.on_insert(state, way)
        lru.on_access(state, 0)  # 0 becomes MRU
        assert lru.victim(state) == 1

    def test_repeated_access_keeps_way_safe(self):
        lru = TrueLRU()
        state = lru.new_set(2)
        lru.on_insert(state, 0)
        lru.on_insert(state, 1)
        for _ in range(5):
            lru.on_access(state, 0)
        assert lru.victim(state) == 1


class TestFIFO:
    def test_hits_do_not_change_order(self):
        fifo = FIFO()
        state = fifo.new_set(3)
        for way in range(3):
            fifo.on_insert(state, way)
        for _ in range(10):
            fifo.on_access(state, 0)
        assert fifo.victim(state) == 0


class TestTreePLRU:
    def test_requires_power_of_two_ways(self):
        with pytest.raises(ConfigurationError):
            TreePLRU().new_set(6)

    def test_victim_avoids_most_recent(self):
        plru = TreePLRU()
        state = plru.new_set(4)
        for way in range(4):
            plru.on_insert(state, way)
        plru.on_access(state, 2)
        assert plru.victim(state) != 2

    def test_tracks_lru_for_sequential_fill(self):
        plru = TreePLRU()
        state = plru.new_set(8)
        for way in range(8):
            plru.on_insert(state, way)
        # After touching ways 4..7, the victim must come from 0..3.
        for way in (4, 5, 6, 7):
            plru.on_access(state, way)
        assert plru.victim(state) < 4


class TestMixedPolicies:
    def test_intel_like_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            IntelLikePolicy(random_prob=1.5)

    def test_arm_like_rejects_bad_weights(self):
        with pytest.raises(ConfigurationError):
            ArmLikePolicy(lru_weight=-1.0)

    def test_intel_like_deterministic_with_seed(self):
        def victims(seed):
            policy = IntelLikePolicy(seed=seed)
            state = policy.new_set(8)
            out = []
            for way in range(8):
                policy.on_insert(state, way)
            for _ in range(32):
                victim = policy.victim(state)
                out.append(victim)
                policy.on_insert(state, victim)
            return out

        assert victims(3) == victims(3)

    def test_intel_like_scrambles_eviction_order(self):
        """The Figure 2 premise: not strict LRU order."""
        policy = IntelLikePolicy(random_prob=0.25, seed=1)
        state = policy.new_set(8)
        for way in range(8):
            policy.on_insert(state, way)
        order = []
        for _ in range(8):
            victim = policy.victim(state)
            order.append(victim)
            policy.on_insert(state, victim)
        assert order != sorted(order)


class TestFactory:
    @pytest.mark.parametrize("name", ALL_POLICY_NAMES)
    def test_make_policy(self, name):
        assert make_policy(name, seed=1).name == name

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_policy("clock")


@given(
    name=st.sampled_from(ALL_POLICY_NAMES),
    ways_exp=st.integers(min_value=1, max_value=4),
    accesses=st.lists(st.integers(min_value=0, max_value=15), max_size=60),
)
@settings(max_examples=60, deadline=None)
def test_policy_victims_always_valid(name, ways_exp, accesses):
    """Property: any policy under any access pattern names a valid way."""
    ways = 2 ** ways_exp
    policy = make_policy(name, seed=11)
    state = policy.new_set(ways)
    for way in range(ways):
        policy.on_insert(state, way)
    for access in accesses:
        policy.on_access(state, access % ways)
        victim = policy.victim(state)
        assert 0 <= victim < ways
        policy.on_insert(state, victim)


@given(
    name=st.sampled_from(ALL_POLICY_NAMES),
    ways_exp=st.integers(min_value=1, max_value=5),
    inserts=st.lists(st.integers(min_value=0, max_value=127), max_size=40),
    slots=st.lists(st.integers(min_value=0, max_value=127), max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_touch_slots_matches_on_access(name, ways_exp, inserts, slots):
    """``touch_slots`` leaves every set as one ``on_access`` per slot does.

    Four sets, scrambled by inserts first; 32 ways takes the intel-like
    policy's wide-set (non-LUT) state.
    """
    ways = 2 ** ways_exp
    policy = make_policy(name, seed=5)
    states = [policy.new_set(ways) for _ in range(4)]
    for slot in inserts:
        slot %= 4 * ways
        policy.on_insert(states[slot // ways], slot % ways)
    expected = copy.deepcopy(states)
    slots = [slot % (4 * ways) for slot in slots]
    policy.touch_slots(states, slots, ways)
    for slot in slots:
        policy.on_access(expected[slot // ways], slot % ways)
    assert states == expected
