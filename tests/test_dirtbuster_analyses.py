"""Unit tests for DirtBuster's analyses: contexts, fences, distances."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dirtbuster.contexts import ContextTracker, MIN_SEQUENTIAL_RUN, SequentialContext
from repro.dirtbuster.distances import DistanceTracker
from repro.dirtbuster.fences import FenceTracker


class TestContexts:
    def test_sequential_writes_form_one_context(self):
        tracker = ContextTracker(slack=0)
        for i in range(16):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
        summary = tracker.summary("f")
        assert summary.total_writes == 16
        assert summary.pct_sequential == 1.0
        assert len(summary.contexts) == 1
        assert summary.contexts[0].size == 16 * 64

    def test_interleaved_streams_get_separate_contexts(self):
        """The paper's motivation: interleaved writes to two objects."""
        tracker = ContextTracker(slack=0)
        for i in range(8):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
            tracker.observe_write(0, "f", 900000 + 64 * i, 64)
        summary = tracker.summary("f")
        assert summary.pct_sequential == 1.0
        assert len(summary.contexts) == 2

    def test_temporaries_between_sequential_writes(self):
        """A stack temporary written between stream writes must not break
        the stream's context."""
        tracker = ContextTracker(slack=0)
        for i in range(8):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
            tracker.observe_write(0, "f", 500000, 8)  # the temporary
        summary = tracker.summary("f")
        streams = [c for c in summary.contexts if c.writes >= MIN_SEQUENTIAL_RUN]
        assert len(streams) == 1 and streams[0].size == 8 * 64

    def test_random_writes_are_not_sequential(self):
        import random
        rng = random.Random(4)
        tracker = ContextTracker(slack=0)
        for _ in range(200):
            tracker.observe_write(0, "f", rng.randrange(1 << 20) * 8, 8)
        assert tracker.summary("f").pct_sequential < 0.2

    def test_rewriting_same_address_is_not_sequential(self):
        """Listing 3's hot line must not look like a stream."""
        tracker = ContextTracker(slack=0)
        for _ in range(50):
            tracker.observe_write(0, "f", 4096, 64)
        assert tracker.summary("f").pct_sequential == 0.0

    def test_threads_do_not_pollute_each_other(self):
        tracker = ContextTracker(slack=0)
        for i in range(8):
            tracker.observe_write(0, "f", 1000 + 64 * i, 64)
            tracker.observe_write(1, "f", 5000 + 64 * i, 64)
        assert len(tracker.summary("f").contexts) == 2

    def test_size_buckets(self):
        tracker = ContextTracker(slack=0)
        # Four 1KB streams and one 16KB stream.
        for s in range(4):
            base = 100000 * (s + 1)
            for i in range(16):
                tracker.observe_write(0, "f", base + 64 * i, 64)
        for i in range(256):
            tracker.observe_write(0, "f", 900000 + 64 * i, 64)
        buckets = tracker.summary("f").size_buckets()
        assert len(buckets) == 2
        assert buckets[0].size == pytest.approx(16 * 1024, rel=0.1)
        assert buckets[0].share == pytest.approx(256 / 320)


class ScanTracker:
    """Reference model: the linear most-recently-used scan over every open
    context of the stream, as the paper describes the lookup."""

    def __init__(self, slack):
        self.slack = slack
        #: (core, function) -> open contexts, most recently extended last.
        self.streams = {}

    def observe_write(self, core_id, function, addr, size):
        contexts = self.streams.setdefault((core_id, function), [])
        for i in range(len(contexts) - 1, -1, -1):
            ctx = contexts[i]
            if ctx.adjacent(addr, self.slack):
                ctx.extend(addr, size)
                contexts.append(contexts.pop(i))
                return ctx
        ctx = SequentialContext(start=addr, end=addr + size)
        contexts.append(ctx)
        return ctx

    def summary(self, function):
        return [ctx for (_, fn), stream in self.streams.items() if fn == function for ctx in stream]


def _fields(ctx):
    return (ctx.start, ctx.end, ctx.writes)


def _assert_matches_scan(slack, writes):
    """Feed ``writes`` to both trackers; every write must join the
    corresponding context, and the summaries must list them in the same
    order."""
    tracker, oracle = ContextTracker(slack=slack), ScanTracker(slack)
    twin = {}  # id(oracle context) -> tracker context
    for core_id, function, addr, size in writes:
        got = tracker.observe_write(core_id, function, addr, size)
        want = oracle.observe_write(core_id, function, addr, size)
        assert twin.setdefault(id(want), got) is got
        assert _fields(got) == _fields(want)
    assert len({id(ctx) for ctx in twin.values()}) == len(twin)
    for function in {w[1] for w in writes}:
        expected = oracle.summary(function)
        summary = tracker.summary(function)
        assert [_fields(c) for c in summary.contexts] == [_fields(c) for c in expected]
        assert all(got is twin[id(want)] for got, want in zip(summary.contexts, expected))
        assert summary.total_writes == sum(1 for w in writes if w[1] == function)


class TestContextIndexMatchesScan:
    """The end-indexed tracker picks exactly what the linear scan picks."""

    @settings(max_examples=300, deadline=None)
    @given(
        slack=st.sampled_from([0, 1, 8, 64]),
        writes=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from(["f", "g"]),
                st.integers(0, 160),
                st.sampled_from([0, 1, 4, 8, 16, 64]),
            ),
            max_size=120,
        ),
    )
    def test_random_writes(self, slack, writes):
        _assert_matches_scan(slack, writes)

    @pytest.mark.parametrize("slack", [0, 8])
    def test_contexts_sharing_one_end(self, slack):
        # Rewrites of one line open a context per write, all ending at
        # 4160; the continuation joins the newest, then the next newest.
        writes = [(0, "f", 4096, 64)] * 5 + [(0, "f", 4160, 64), (0, "f", 4160, 8)]
        _assert_matches_scan(slack, writes)

    @pytest.mark.parametrize("slack", [0, 8])
    def test_zero_size_writes(self, slack):
        writes = [(0, "f", 100, 0), (0, "f", 100, 0), (0, "f", 100, 8), (0, "f", 108, 0),
                  (0, "f", 112, 0), (0, "f", 100, 0), (1, "f", 100, 0)]
        _assert_matches_scan(slack, writes)

    def test_slack_prefers_most_recent_over_nearest(self):
        tracker = ContextTracker(slack=16)
        near = tracker.observe_write(0, "f", 0, 100)  # ends exactly at 100
        recent = tracker.observe_write(0, "f", 88, 8)  # ends at 96
        assert tracker.observe_write(0, "f", 100, 8) is recent
        assert near.writes == 1

    def test_cores_and_functions_are_separate_streams(self):
        writes = [(core, fn, 64 * i, 64) for i in range(8) for core in (0, 1) for fn in ("f", "g")]
        _assert_matches_scan(0, writes)


class TestFences:
    def test_min_distance(self):
        tracker = FenceTracker()
        tracker.observe_write(0, "f", 100)
        tracker.observe_write(0, "f", 190)
        tracker.observe_fence(0, 200)
        prox = tracker.proximity("f")
        assert prox.min_distance == 10
        assert prox.mean_distance == pytest.approx(55.0)
        assert prox.fence_coverage == 1.0

    def test_fences_are_per_core(self):
        tracker = FenceTracker()
        tracker.observe_write(0, "f", 100)
        tracker.observe_fence(1, 101)  # another thread's fence: irrelevant
        prox = tracker.proximity("f")
        assert prox.writes_before_fence == 0
        assert math.isinf(prox.min_distance)

    def test_writes_after_last_fence_uncovered(self):
        tracker = FenceTracker()
        tracker.observe_write(0, "f", 100)
        tracker.observe_fence(0, 150)
        tracker.observe_write(0, "f", 200)
        prox = tracker.proximity("f")
        assert prox.writes == 2
        assert prox.writes_before_fence == 1
        assert prox.writes_without_fence == 1

    def test_unknown_function_is_empty(self):
        prox = FenceTracker().proximity("ghost")
        assert prox.writes == 0 and prox.fence_coverage == 0.0


class TestDistances:
    def test_rewrite_distance(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "f", 0, 64, instr_index=10)
        tracker.observe_write(0, "f", 0, 64, instr_index=110)
        stats = tracker.stats("f")
        assert stats.rewrite_samples == 1
        assert stats.mean_rewrite_distance == 100

    def test_streak_exception(self):
        """Sequential sweeps are not rewrites (Section 6.2.3)."""
        tracker = DistanceTracker(line_size=64, slack=0)
        for rep in range(2):
            for i in range(8):
                tracker.observe_write(0, "f", 64 * i, 64, instr_index=100 * rep + i)
        stats = tracker.stats("f")
        # Only the stream restarts sample (line 0), not every line.
        assert stats.rewrite_samples == 1

    def test_reread_distance_first_read_only(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "f", 0, 64, instr_index=10)
        tracker.observe_read(0, 0, 8, instr_index=12)
        tracker.observe_read(0, 0, 8, instr_index=5000)  # ignored
        stats = tracker.stats("f")
        assert stats.reread_samples == 1
        assert stats.mean_reread_distance == 2

    def test_never_reread_is_infinite(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "f", 0, 64, instr_index=10)
        stats = tracker.stats("f")
        assert math.isinf(stats.mean_reread_distance)
        assert math.isinf(stats.mean_rewrite_distance)

    def test_rewrite_attributed_to_previous_writer(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        tracker.observe_write(0, "first", 0, 64, instr_index=10)
        tracker.observe_write(0, "second", 0, 64, instr_index=60)
        assert tracker.stats("first").rewrite_samples == 1
        assert tracker.stats("second").rewrite_samples == 0

    def test_context_attribution(self):
        tracker = DistanceTracker(line_size=64, slack=0)
        ctx = object()
        tracker.observe_write(0, "f", 0, 64, instr_index=10, context=ctx)
        tracker.observe_read(0, 0, 8, instr_index=30)
        merged = tracker.merged_context_stats([ctx])
        assert merged.reread_samples == 1
        assert merged.mean_reread_distance == 20
