"""Unit tests for the step-2/3 instrumenter driver."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dirtbuster.instrument import Instrumenter
from repro.dirtbuster.trace import AccessRecord, Trace
from repro.errors import AnalysisError, ReproError
from repro.sim.event import CodeSite, EventKind


def _rec(kind, addr=0, size=8, fn="f", idx=0, core=0, chain=()):
    return AccessRecord(
        instr_index=idx,
        core_id=core,
        kind=kind,
        addr=addr,
        size=size,
        site=CodeSite(function=fn),
        callchain=tuple(CodeSite(function=c) for c in chain),
    )


class TestInstrumenter:
    def test_rejects_bad_line_size(self):
        with pytest.raises(AnalysisError):
            Instrumenter(line_size=0)

    def test_sequential_writer_pattern(self):
        inst = Instrumenter(line_size=64)
        records = [
            _rec(EventKind.WRITE, addr=64 * i, size=64, idx=i) for i in range(32)
        ]
        inst.feed(Trace.from_records(records))
        patterns = {p.function: p for p in inst.patterns()}
        assert patterns["f"].pct_sequential == 1.0
        assert patterns["f"].buckets[0].size == 32 * 64

    def test_memcpy_attributed_to_caller(self):
        """Writes inside a helper belong to the instrumented caller."""
        inst = Instrumenter(line_size=64, functions={"put"})
        records = [
            _rec(EventKind.WRITE, addr=64 * i, size=64, fn="memcpy", idx=i, chain=("put",))
            for i in range(8)
        ]
        inst.feed(Trace.from_records(records))
        patterns = {p.function: p for p in inst.patterns()}
        assert "put" in patterns and "memcpy" not in patterns
        assert patterns["put"].total_writes == 8

    def test_unselected_functions_ignored(self):
        inst = Instrumenter(line_size=64, functions={"hot"})
        inst.feed(Trace.from_records([_rec(EventKind.WRITE, fn="cold", size=64)]))
        assert inst.patterns() == []

    def test_fence_distance_flows_through(self):
        inst = Instrumenter(line_size=64)
        inst.feed(
            Trace.from_records(
                [
                    _rec(EventKind.WRITE, addr=0, size=64, idx=100),
                    _rec(EventKind.ATOMIC, addr=4096, size=8, fn="lock", idx=110),
                ]
            )
        )
        patterns = {p.function: p for p in inst.patterns()}
        assert patterns["f"].fences.min_distance == 10

    def test_reread_distance_per_bucket(self):
        inst = Instrumenter(line_size=64)
        records = []
        for i in range(8):
            records.append(_rec(EventKind.WRITE, addr=64 * i, size=64, idx=i))
        records.append(_rec(EventKind.READ, addr=0, size=8, idx=20))
        inst.feed(Trace.from_records(records))
        pattern = inst.patterns()[0]
        assert pattern.buckets[0].reread == 20  # first write at idx 0
        assert math.isinf(pattern.buckets[0].rewrite)

    def test_patterns_sorted_by_write_volume(self):
        inst = Instrumenter(line_size=64)
        records = [_rec(EventKind.WRITE, addr=64 * i, size=64, fn="big", idx=i) for i in range(16)]
        records += [
            _rec(EventKind.WRITE, addr=100_000 + 64 * i, size=64, fn="small", idx=100 + i)
            for i in range(4)
        ]
        inst.feed(Trace.from_records(records))
        assert [p.function for p in inst.patterns()] == ["big", "small"]


def _reference_feed(inst, records):
    """A per-record feed: selection, attribution and the owner's site
    worked out again for every record, driving ``inst``'s trackers."""
    functions = inst.functions
    for rec in records:
        if rec.kind in (EventKind.FENCE, EventKind.ATOMIC):
            inst.fences.observe_fence(rec.core_id, rec.instr_index)
            continue
        if functions is None or rec.site.function in functions:
            function = rec.site.function
        else:
            callers = [s.function for s in rec.callchain if s.function in functions]
            if not callers:
                continue
            function = callers[-1]  # the innermost selected caller
        if rec.kind is EventKind.WRITE:
            if function not in inst._sites:
                owner = rec.site if rec.site.function == function else next(
                    s for s in rec.callchain if s.function == function
                )
                inst._sites[function] = (owner.file, owner.line)
            ctx = inst.contexts.observe_write(rec.core_id, function, rec.addr, rec.size)
            inst.fences.observe_write(rec.core_id, function, rec.instr_index)
            inst.distances.observe_write(
                rec.core_id, function, rec.addr, rec.size, rec.instr_index, context=ctx
            )
        elif rec.kind is EventKind.READ:
            inst.distances.observe_read(rec.core_id, rec.addr, rec.size, rec.instr_index)


#: Two sites share the name "put" at different lines, so which caller
#: site owns a function's writes shows in the report.
_SITES = [
    CodeSite("memcpy", "lib.c", 9),
    CodeSite("put", "kv.c", 70),
    CodeSite("put", "kv.c", 90),
    CodeSite("main", "m.c", 3),
    CodeSite("lock", "pthread.c", 1),
]
_KINDS = [EventKind.WRITE, EventKind.READ, EventKind.FENCE, EventKind.ATOMIC, EventKind.PRESTORE]
_CHAIN = st.lists(st.sampled_from(range(len(_SITES))), max_size=3)


class TestFeedMatchesPerRecordAttribution:
    """Instrumenter.feed's memoised owners against a per-record loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        functions=st.one_of(
            st.none(), st.sets(st.sampled_from(["memcpy", "put", "main", "lock", "cold"]))
        ),
        shared_chains=st.lists(_CHAIN, min_size=1, max_size=3),
        trace=st.lists(
            st.tuples(
                st.sampled_from(_KINDS),
                st.sampled_from(range(len(_SITES))),
                # A shared chain object by index, or a fresh tuple equal in
                # value to others but a distinct object.
                st.one_of(st.integers(0, 2), _CHAIN),
                st.integers(0, 15),
                st.sampled_from([8, 64, 128]),
                st.integers(0, 1),
            ),
            max_size=80,
        ),
    )
    def test_patterns_match(self, functions, shared_chains, trace):
        chains = [tuple(_SITES[i] for i in chain) for chain in shared_chains]
        records = []
        for i, (kind, site, chain, line, size, core) in enumerate(trace):
            if isinstance(chain, int):
                chain = chains[chain % len(chains)]
            else:
                chain = tuple(_SITES[k] for k in chain)
            records.append(AccessRecord(3 * i, core, kind, 64 * line, size, _SITES[site], chain))
        got = Instrumenter(line_size=64, functions=functions)
        got.feed(Trace.from_records(records))
        want = Instrumenter(line_size=64, functions=functions)
        _reference_feed(want, records)
        assert [repr(p) for p in got.patterns()] == [repr(p) for p in want.patterns()]

    def test_innermost_selected_caller_wins(self):
        inst = Instrumenter(line_size=64, functions={"main", "put"})
        inst.feed(
            Trace.from_records([_rec(EventKind.WRITE, size=64, fn="memcpy", chain=("main", "put"))])
        )
        assert [p.function for p in inst.patterns()] == ["put"]


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro import errors

        for name in (
            "ConfigurationError",
            "SimulationError",
            "AllocationError",
            "TraceError",
            "AnalysisError",
            "WorkloadError",
            "ExperimentError",
        ):
            assert issubclass(getattr(errors, name), ReproError)
