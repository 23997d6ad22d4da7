"""Race-detector tests: happens-before, visibility, locksets, relaxed."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitize import Sanitizer
from repro.sim.event import Mailbox
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.memapi import Program


def _run_shared(spec, *body_factories, size=32 * 64):
    """Allocate one shared region up front, spawn each factory's body on
    it, and return the sanitizer diagnostics."""
    program = Program(spec, tracer=Sanitizer())
    region = program.allocator.alloc(size, label="shared")
    for factory in body_factories:
        program.spawn(factory(region))
    return program.run().diagnostics


def _race_rules(diagnostics):
    return [d.rule for d in diagnostics if d.rule.startswith("race.")]


class TestOrderedStreamsAreClean:
    @settings(max_examples=20, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 31), min_size=1, max_size=8),
        pad=st.integers(0, 500),
    )
    def test_fence_and_mailbox_ordered_handoff_has_no_races(self, lines, pad):
        """Write → fence → post → wait → read is racy for no input."""
        box = Mailbox()

        def producer(region):
            def body(t):
                if pad:
                    yield t.compute(pad)
                for idx in lines:
                    yield t.write(region.addr(idx * 64), 8)
                yield t.fence()
                yield t.post(box, "ready")

            return body

        def consumer(region):
            def body(t):
                yield t.wait(box, "ready")
                for idx in lines:
                    yield t.read(region.addr(idx * 64), 8)

            return body

        diagnostics = _run_shared(machine_b_fast(), producer, consumer)
        assert _race_rules(diagnostics) == []

    def test_single_thread_is_never_racy(self):
        def solo(region):
            def body(t):
                for i in range(4):
                    yield t.write(region.addr(i * 64), 8)
                    yield t.read(region.addr(i * 64), 8)

            return body

        assert _race_rules(_run_shared(machine_b_fast(), solo)) == []


class TestSeededRacesAreCaught:
    @settings(max_examples=20, deadline=None)
    @given(
        writer_pad=st.integers(0, 2000),
        reader_pad=st.integers(0, 2000),
    )
    def test_unordered_write_read_pair_always_caught(self, writer_pad, reader_pad):
        """No matter how the two sides are skewed in time, an unsynchronised
        write/read pair on one line is reported."""

        def writer(region):
            def body(t):
                if writer_pad:
                    yield t.compute(writer_pad)
                yield t.write(region.base, 8)

            return body

        def reader(region):
            def body(t):
                if reader_pad:
                    yield t.compute(reader_pad)
                yield t.read(region.base, 8)

            return body

        diagnostics = _run_shared(machine_a(), writer, reader)
        rules = _race_rules(diagnostics)
        assert rules, "unsynchronised pair must be reported"
        assert set(rules) <= {"race.write-read", "race.read-write"}

    def test_unordered_write_write_pair_caught(self):
        def writer(region):
            def body(t):
                yield t.write(region.base, 8)

            return body

        diagnostics = _run_shared(machine_a(), writer, writer)
        assert "race.write-write" in _race_rules(diagnostics)


class TestVisibilityRaces:
    @staticmethod
    def _factories(fence_before_post):
        box = Mailbox()

        def writer(region):
            def body(t):
                yield t.write(region.base, 8)
                if fence_before_post:
                    yield t.fence()
                # Without the fence the store can still be parked in this
                # core's store buffer when the consumer reads (weak model).
                yield t.post(box, "ready")

            return body

        def reader(region):
            def body(t):
                yield t.wait(box, "ready")
                yield t.read(region.base, 8)

            return body

        return writer, reader

    def test_machine_b_catches_unfenced_publish(self):
        writer, reader = self._factories(fence_before_post=False)
        diagnostics = _run_shared(machine_b_fast(), writer, reader)
        visibility = [d for d in diagnostics if d.rule == "race.visibility"]
        assert visibility, "weak model must flag the unfenced publish"
        diag = visibility[0]
        assert diag.severity == "error"
        # The report points at the reader plus the parked store's site.
        assert diag.site is not None and diag.related is not None

    def test_machine_a_tso_is_clean(self):
        writer, reader = self._factories(fence_before_post=False)
        diagnostics = _run_shared(machine_a(), writer, reader)
        assert [d for d in diagnostics if d.rule == "race.visibility"] == []

    def test_fence_before_post_fixes_it(self):
        writer, reader = self._factories(fence_before_post=True)
        assert _race_rules(_run_shared(machine_b_fast(), writer, reader)) == []


class TestSuppression:
    def test_lock_protected_sections_are_not_races(self):
        """Paired atomics on a lock word form an Eraser-style lockset; the
        writes they protect must not be reported even though the scheduler
        interleaves the two critical sections freely."""

        def client(region):
            def body(t):
                lock = region.base
                for _ in range(3):
                    yield t.atomic(lock, 8)  # acquire
                    yield t.read(region.addr(64), 8)
                    yield t.write(region.addr(64), 8)
                    yield t.atomic(lock, 8)  # release

            return body

        diagnostics = _run_shared(machine_a(), client, client)
        assert _race_rules(diagnostics) == []

    def test_relaxed_reads_are_not_races(self):
        """``relaxed=True`` marks by-design unsynchronised reads (optimistic
        protocols); they suppress both HB and visibility reports."""

        def writer(region):
            def body(t):
                yield t.write(region.base, 8)

            return body

        def reader(region):
            def body(t):
                yield t.compute(50)
                yield t.read(region.base, 8, relaxed=True)

            return body

        assert _race_rules(_run_shared(machine_b_fast(), writer, reader)) == []
