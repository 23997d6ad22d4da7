"""Strided streams: the fused loops against the per-access reference.

A stream's access *k* is at ``addr + k*stride`` and covers ``min(chunk,
size - k*stride)`` bytes (DESIGN.md §11).  These properties run random
strided STREAM_READ/STREAM_WRITE runs — any base, access size and
``stride >= size``, accesses straddling lines included — on one to
three threads, so the scheduler splits runs mid-stream, on a 64 B-line
and a 128 B-line preset, and require:

* the same ``RunResult`` bytes as the reference vocabulary, which yields
  one READ/WRITE event per access;
* the same DirtBuster samples and records whether the tracers take the
  fused runs in bulk or the machine unrolls them through ``step``;
* that ``Event.accesses()`` lists exactly the accesses the machine runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.event import Event, EventKind
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.memapi import Program

from tests.test_traced_streams import _TRACERS, _PerAccess, _observed

_RUNS = st.tuples(
    st.sampled_from(["read", "write", "write_nt", "compute"]),
    st.integers(0, 300),  # base offset: unaligned bases straddle lines
    st.integers(1, 140),  # access size
    st.integers(0, 200),  # stride - size
    st.integers(1, 40),  # accesses
)

#: Room for the largest run: 300 + 39 * (140 + 200) + 140 bytes.
_SHARED = 16 * 1024


def _body(t, shared, runs, as_streams, log):
    with t.function(f"strided{t.tid}", file="strided.c", line=t.tid):
        for name, offset, size, gap, count in runs:
            if name == "compute":
                yield t.compute(size)
                continue
            addr, stride = shared.base + offset, size + gap
            if name == "read":
                events = list(t.read_strided(addr, size, stride, count))
            else:
                nt = name == "write_nt"
                if as_streams:
                    site, chain = t._prov
                    events = [
                        Event.stream(
                            EventKind.WRITE, addr, (count - 1) * stride + size, chunk=size,
                            stride=stride, nontemporal=nt, site=site, callchain=chain,
                        )
                    ]
                else:
                    events = [t.write(addr + k * stride, size, nontemporal=nt)
                              for k in range(count)]
            for event in events:
                # Before the machine runs (and may cut) the event.
                log.extend((t.tid, a.kind, a.addr, a.size) for a in event.accesses())
                yield event


class _Accesses:
    """Per-access observer: the accesses the machine runs, in order."""

    def __init__(self) -> None:
        self.seen = []

    def record(self, core_id, event, instr_index, cycles):
        if event.kind in (EventKind.READ, EventKind.WRITE):
            self.seen.append((core_id, event.kind, event.addr, event.size))


def _run(make_spec, programs, as_streams, observer=None):
    program = Program(make_spec(num_cores=3), seed=5, streams=as_streams, tracer=observer)
    shared = program.allocator.alloc(_SHARED, label="shared")
    log = []
    for runs in programs:
        program.spawn(_body, shared, runs, as_streams, log)
    return program.run().to_json(), program.machine.path_counts(), log


_PROGRAMS = st.lists(st.lists(_RUNS, min_size=1, max_size=6), min_size=1, max_size=3)
_SPECS = st.sampled_from([machine_a, machine_b_fast])


@settings(max_examples=100, deadline=None)
@given(programs=_PROGRAMS, make_spec=_SPECS)
def test_strided_streams_match_reference(programs, make_spec):
    fast, paths, _ = _run(make_spec, programs, True)
    reference, ref_paths, _ = _run(make_spec, programs, False)
    assert fast == reference
    assert ref_paths["fused"] == ref_paths["unrolled"] == 0
    assert paths["fused"] + paths["unrolled"] + paths["single"] == ref_paths["single"]


@settings(max_examples=50, deadline=None)
@given(programs=_PROGRAMS, make_spec=_SPECS)
def test_strided_streams_traced_in_bulk_match_unrolled(programs, make_spec):
    for _, make_tracer in _TRACERS:
        bulk, unrolled = make_tracer(), make_tracer()
        bulk_json, bulk_paths, _ = _run(make_spec, programs, True, bulk)
        ref_json, ref_paths, _ = _run(make_spec, programs, True, _PerAccess(unrolled))
        assert bulk_json == ref_json
        assert _observed(bulk) == _observed(unrolled)
        assert ref_paths["fused"] == 0
        assert bulk_paths["fused"] + bulk_paths["unrolled"] == ref_paths["unrolled"]


@settings(max_examples=50, deadline=None)
@given(programs=_PROGRAMS, make_spec=_SPECS)
def test_event_accesses_are_what_the_machine_runs(programs, make_spec):
    observer = _Accesses()
    _, _, log = _run(make_spec, programs, True, observer)
    for tid in range(len(programs)):
        assert [a[1:] for a in observer.seen if a[0] == tid] == [
            a[1:] for a in log if a[0] == tid
        ]


def test_listing2_shaped_run_shares_lines_on_machine_b():
    # Listing 2's loop: 8 B loads at a 64 B stride, two per 128 B line.
    def body(t, buf, as_streams):
        yield from t.read_block(buf.base, buf.size)
        for _ in range(3):
            yield t.write(buf.base + 4096, 8)
            yield from t.read_strided(buf.base, 8, 64, 128)
            yield t.fence()

    results = []
    for as_streams in (True, False):
        program = Program(machine_b_fast(), streams=as_streams)
        buf = program.allocator.alloc(8192, label="buf")
        program.spawn(body, buf, as_streams)
        results.append((program.run().to_json(), program.machine.path_counts()))
    assert results[0][0] == results[1][0]
    assert results[0][1]["fused"] == 64 + 3 * 128
    assert results[1][1]["single"] == 3 + 64 + 3 * 128


def test_strided_event_semantics():
    ev = Event.stream(EventKind.READ, addr=1000, size=3 * 64 + 8, chunk=8, stride=64)
    assert ev.access_count == 4
    assert [(a.kind, a.addr, a.size) for a in ev.accesses()] == [
        (EventKind.READ, 1000 + 64 * k, 8) for k in range(4)
    ]
    contiguous = Event.stream(EventKind.READ, addr=1000, size=3 * 64 + 8, chunk=8)
    assert contiguous.stride == 8 and contiguous.access_count == 25
    assert Event(EventKind.STREAM_WRITE, addr=0, size=64, chunk=16).stride == 16
    assert Event(EventKind.READ, addr=0, size=8).stride == 0
    assert ev != contiguous and hash(ev) != hash(contiguous)
    assert "stride=64" in str(ev) and "stride" not in str(contiguous)
    # A short last access: size is the span, not a multiple of stride.
    tail = Event.stream(EventKind.WRITE, addr=0, size=100, chunk=40, stride=60)
    assert [(a.addr, a.size) for a in tail.accesses()] == [(0, 40), (60, 40)]
    with pytest.raises(SimulationError, match="stride >= chunk"):
        Event.stream(EventKind.READ, addr=0, size=64, chunk=16, stride=8)


def test_read_strided_helper():
    from repro.workloads.memapi import Allocator, ThreadCtx

    for streams in (True, False):
        t = ThreadCtx(tid=0, allocator=Allocator(64), line_size=64, seed=1, emit_streams=streams)
        events = list(t.read_strided(4096, 8, 64, 5))
        accesses = [(a.kind, a.addr, a.size) for e in events for a in e.accesses()]
        assert accesses == [(EventKind.READ, 4096 + 64 * k, 8) for k in range(5)]
        assert len(events) == (1 if streams else 5)
        # One load is always a plain READ; none yields nothing.
        assert [e.kind for e in t.read_strided(4096, 8, 64, 1)] == [EventKind.READ]
        assert list(t.read_strided(4096, 8, 64, 0)) == []
        with pytest.raises(SimulationError, match="stride >= size"):
            list(t.read_strided(4096, 16, 8, 3))
