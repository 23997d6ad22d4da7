"""Bulk L1-hit runs in the fused load loop against the per-access reference.

``Core._stream_read_fast`` resolves runs of L1 hits in one step
(``Core._l1_hit_run``): it probes the lines ahead, adds the L1 latency
per access under the scheduler bounds and touches each distinct line
once through ``ReplacementPolicy.touch_slots``.  This property builds
twin machines in one state — a region read into the caches, some of its
lines buffered in the store buffer, owned by another core or evicted
from L1 or from every level — and runs one random read stream on each:
``execute_stream`` on one, ``unroll_stream(..., core.execute)`` (one
READ per access) on the other, under random scheduler bounds.  Strides
fall below, at and above the line size, on a 64 B-line and a 128 B-line
preset.  Clock, core and L1 statistics, every level's contents and
policy state, ``line_owner`` and the returned tail must be equal.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim.event import Event, EventKind
from repro.sim.machine import Machine, machine_a, machine_b_fast

#: Lines the warm-up reads; streams run over them and a little past.
_LINES = 96
_OPS = st.sampled_from(["buffer", "foreign", "evict_l1", "evict"])


def _machine(make_spec, setup, skew):
    machine = Machine(make_spec(num_cores=2))
    ls = machine.line_size
    core, other = machine.cores
    core.execute(Event.stream(EventKind.READ, 0, _LINES * ls, chunk=ls))
    for op, line in setup:
        addr = line * ls
        if op == "buffer":
            core.execute(Event(EventKind.WRITE, addr, 8))
        elif op == "foreign":
            other.execute(Event(EventKind.WRITE, addr, 8))
            other.execute(Event(EventKind.FENCE))
        elif op == "evict_l1":
            machine.hierarchy.levels[0].invalidate(line)
        else:
            machine.hierarchy.invalidate_line(line)
    core.clock += skew
    return machine


def _state(machine, tail):
    core = machine.cores[0]
    levels = [
        (lvl._index, lvl._tags, bytes(lvl._dirty), lvl._policy_state, lvl.stats)
        for lvl in machine.hierarchy.levels
    ]
    return (
        tail,
        core.clock,
        core.stats,
        levels,
        machine.line_owner,
        core.store_buffer._pending,
    )


def _limit(data, clock, latency, label):
    """A scheduler bound: none, anywhere, or exactly at an access's clock."""
    kind = data.draw(st.sampled_from(["none", "float", "tie"]), label=f"{label} kind")
    if kind == "none":
        return math.inf
    if kind == "float":
        return clock + data.draw(st.floats(-8.0, 400.0), label=label)
    for _ in range(data.draw(st.integers(0, 70), label=label)):
        clock += latency  # the loop's own sequence of adds
    return clock


@settings(max_examples=300, deadline=None)
@given(make_spec=st.sampled_from([machine_a, machine_b_fast]), data=st.data())
def test_hit_runs_match_per_access_reads(make_spec, data):
    spec = make_spec(num_cores=2)
    ls = spec.line_size
    # Below, at and above the line size; the aligned shapes (Listing
    # 2's 8 B every 64 B among them) never straddle a line.
    stride = data.draw(
        st.one_of(
            st.sampled_from([8, 64, ls // 2, ls, ls + ls // 2, 2 * ls]),
            st.integers(1, 2 * ls),
        ),
        label="stride",
    )
    chunk = data.draw(
        st.one_of(st.just(min(8, stride)), st.integers(1, min(stride, ls))), label="chunk"
    )
    count = data.draw(st.integers(1, 64), label="count")
    last = data.draw(st.integers(1, chunk), label="last")
    base = data.draw(
        st.one_of(st.integers(0, 4 * ls).map(lambda k: 8 * k), st.integers(0, 32 * ls)),
        label="base",
    )
    size = (count - 1) * stride + last
    # Mostly lines the stream reads, so the runs meet them.
    line = st.one_of(
        st.integers(0, count - 1).map(lambda k: (base + k * stride) // ls),
        st.integers(0, _LINES - 1),
    )
    setup = data.draw(st.lists(st.tuples(_OPS, line), max_size=8), label="setup")
    skew = data.draw(st.floats(0.0, 1000.0), label="skew")
    twins = [_machine(make_spec, setup, skew) for _ in range(2)]
    clock = twins[0].cores[0].clock
    latency = float(spec.cache_levels[0].hit_latency)
    strict = _limit(data, clock, latency, "strict")
    loose = _limit(data, clock, latency, "loose")

    states = []
    for machine, fused in zip(twins, (True, False)):
        core = machine.cores[0]
        event = Event.stream(EventKind.READ, base, size, chunk=chunk, stride=stride)
        if fused:
            tail = core.execute_stream(event, strict, loose)
        else:
            tail = core.unroll_stream(event, core.execute, strict, loose)
        states.append(_state(machine, None if tail is None else (tail.addr, tail.size)))
    assert states[0] == states[1]


def test_listing2_shaped_reads_resolve_in_one_run():
    # 8 B loads every 64 B over L1-resident 128 B lines: two accesses a
    # line, all 128 served by one bulk run.
    twins = [_machine(machine_b_fast, [("buffer", 70)], 0.5) for _ in range(2)]
    core = twins[0].cores[0]
    runs = []
    hit_run = core._l1_hit_run

    def counted(*args):
        runs.append(hit_run(*args))
        return runs[-1]

    core._l1_hit_run = counted
    event = Event.stream(EventKind.READ, 0, 127 * 64 + 8, chunk=8, stride=64)
    assert core.execute_stream(event) is None
    assert [run for run, _ in runs] == [128]
    reference = twins[1].cores[0]
    reference.unroll_stream(
        Event.stream(EventKind.READ, 0, 127 * 64 + 8, chunk=8, stride=64), reference.execute
    )
    assert _state(twins[0], None) == _state(twins[1], None)
