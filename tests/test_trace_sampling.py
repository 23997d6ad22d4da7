"""Unit tests for tracing and the perf-style sampler."""

import io
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dirtbuster.export import dump_records, load_records
from repro.dirtbuster.runner import DirtBuster, DirtBusterConfig
from repro.dirtbuster.sampling import SampleProfile
from repro.dirtbuster.trace import AccessRecord, FullTracer, SamplingTracer, Trace
from repro.errors import AnalysisError, TraceError
from repro.sim.event import CodeSite, Event, EventKind
from repro.workloads.microbench import Listing1
from repro.workloads.phoronix import ReadMostlyWorkload


def _write(function="f", addr=0, size=8):
    return Event(EventKind.WRITE, addr=addr, size=size, site=CodeSite(function=function))


def _read(function="f", addr=0, size=8):
    return Event(EventKind.READ, addr=addr, size=size, site=CodeSite(function=function))


class TestSamplingTracer:
    def test_rejects_bad_period(self):
        with pytest.raises(TraceError):
            SamplingTracer(period=0)

    def test_samples_proportional_to_cycles(self):
        tracer = SamplingTracer(period=10)
        # 100 cycles of writes and 900 cycles of compute.
        for i in range(100):
            tracer.record(0, _write(), i, cycles=1.0)
        tracer.record(0, Event(EventKind.COMPUTE, size=1800), 100, cycles=900.0)
        profile = SampleProfile.from_tracer(tracer)
        assert profile.total_samples == pytest.approx(100, abs=2)
        assert profile.application_store_fraction == pytest.approx(0.10, abs=0.02)

    def test_expensive_event_can_take_multiple_samples(self):
        tracer = SamplingTracer(period=10)
        tracer.record(0, _write(), 0, cycles=55.0)
        # One sample per event, weighted by its timer hits.
        assert list(tracer.sample_weight) == [5]
        tracer.record(1, _write(), 1, cycles=10.0)
        assert list(tracer.sample_weight) == [5, 1]
        assert list(tracer.sample_index) == [0, 1]
        assert list(tracer.sample_core) == [0, 1]
        assert len(tracer) == 6

    def test_zero_cycle_events_unsampled(self):
        tracer = SamplingTracer(period=10)
        for i in range(100):
            tracer.record(0, _write(), i, cycles=0.0)
        assert len(tracer) == 0


class TestFullTracer:
    def test_records_selected_functions_only(self):
        tracer = FullTracer(functions={"hot"})
        tracer.record(0, _write("hot"), 0)
        tracer.record(0, _write("cold"), 1)
        assert len(tracer.trace) == 1
        assert tracer.trace[0].function == "hot"

    def test_callchain_selection(self):
        tracer = FullTracer(functions={"caller"})
        ev = Event(
            EventKind.WRITE,
            addr=0,
            size=8,
            site=CodeSite(function="memcpy"),
            callchain=(CodeSite(function="caller"),),
        )
        tracer.record(0, ev, 0)
        assert len(tracer.trace) == 1

    def test_fences_always_recorded(self):
        tracer = FullTracer(functions={"hot"})
        tracer.record(0, Event(EventKind.FENCE, site=CodeSite(function="pthread_lock")), 0)
        tracer.record(0, Event(EventKind.ATOMIC, addr=0, size=8, site=CodeSite(function="x")), 1)
        assert [r.kind for r in tracer.trace] == [EventKind.FENCE, EventKind.ATOMIC]

    def test_compute_never_recorded(self):
        tracer = FullTracer()
        tracer.record(0, Event(EventKind.COMPUTE, size=5), 0)
        assert len(tracer.trace) == 0


class TestAccessRecordIsAValue:
    """A slotted AccessRecord behaves as the frozen dataclass did."""

    @staticmethod
    def _records():
        chain = (CodeSite(function="main", file="m.c", line=3, ip=0x40),
                 CodeSite(function="put", file="kv.c", line=70, ip=0x80))
        return [
            AccessRecord(i, i % 2, kind, 64 * i, 8 + i, CodeSite("memcpy", "lib.c", 9, 0x10),
                         chain[: i % 3])
            for i, kind in enumerate(
                [EventKind.WRITE, EventKind.READ, EventKind.ATOMIC, EventKind.FENCE,
                 EventKind.PRESTORE]
            )
        ]

    def test_slotted(self):
        assert not hasattr(self._records()[0], "__dict__")

    def test_equality_and_hashing(self):
        records, again = self._records(), self._records()
        assert records == again
        assert [hash(r) for r in records] == [hash(r) for r in again]
        assert len(set(records + again)) == len(records)
        assert records[0] != records[0]._replace(addr=records[0].addr + 1)

    def test_pickle_round_trip(self):
        records = self._records()
        assert pickle.loads(pickle.dumps(records)) == records

    def test_jsonl_round_trip(self):
        records = self._records()
        buffer = io.StringIO()
        assert dump_records(records, buffer) == len(records)
        buffer.seek(0)
        assert list(load_records(buffer)) == records

    def test_fields_cannot_be_assigned(self):
        record = self._records()[0]
        with pytest.raises(AttributeError):
            record.addr = 0
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_keyword_and_positional_construction_agree(self):
        # export.loads_record builds records by keyword, the tracers by position.
        for record in self._records():
            assert AccessRecord(**record._asdict()) == record
            assert AccessRecord(*record) == record


_SITE_POOL = [
    CodeSite("memcpy", "lib.c", 9, 0x10),
    CodeSite("put", "kv.c", 70, 0x80),
    CodeSite("main", "m.c", 3, 0x40),
]
#: A pool site, or a fresh site equal in value to one: the pair table is
#: keyed by object, so equal sites must still come back as themselves.
_SITES = st.one_of(
    st.sampled_from(_SITE_POOL),
    st.sampled_from(_SITE_POOL).map(lambda s: CodeSite(s.function, s.file, s.line, s.ip)),
)
_RECORDS = st.lists(
    st.builds(
        AccessRecord,
        instr_index=st.integers(0, 2**62),
        core_id=st.integers(0, 2**16 - 1),
        kind=st.sampled_from(list(EventKind)),
        addr=st.integers(0, 2**62),
        size=st.integers(0, 2**40),
        site=_SITES,
        callchain=st.lists(_SITES, max_size=3).map(tuple),
    ),
    max_size=40,
)


class TestTraceColumns:
    """A ``Trace`` gives back exactly the records it was built from."""

    @settings(max_examples=200, deadline=None)
    @given(records=_RECORDS)
    def test_from_records_round_trips(self, records):
        trace = Trace.from_records(records)
        assert len(trace) == len(records)
        assert list(trace) == records
        assert [trace[i] for i in range(len(records))] == records
        for got, want in zip(trace, records):
            assert got.site is want.site and got.callchain is want.callchain
        if records:
            assert trace[-1] == records[-1]
        buffer = io.StringIO()
        assert dump_records(trace, buffer) == len(records)
        buffer.seek(0)
        loaded = load_records(buffer)
        assert isinstance(loaded, Trace)
        assert len(loaded) == len(records)
        assert list(loaded) == records

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            Trace()[0]


class TestSampleProfile:
    def test_empty_profile_rejected(self):
        with pytest.raises(AnalysisError):
            SampleProfile([], other_samples=0)

    def test_function_ranking_by_stores(self):
        tracer = SamplingTracer(period=1)
        for _ in range(10):
            tracer.record(0, _write("writer"), 0, cycles=1.0)
        for _ in range(100):
            tracer.record(0, _read("reader"), 0, cycles=1.0)
        tracer.record(0, _write("minor"), 0, cycles=1.0)
        profile = SampleProfile.from_tracer(tracer)
        chosen = profile.write_intensive_functions(share_of_stores=0.5)
        assert [p.function for p in chosen] == ["writer"]

    def test_atomics_count_as_store_time_but_not_ranking(self):
        tracer = SamplingTracer(period=1)
        atomic = Event(EventKind.ATOMIC, addr=0, size=8, site=CodeSite(function="lock"))
        for _ in range(50):
            tracer.record(0, atomic, 0, cycles=1.0)
        for _ in range(10):
            tracer.record(0, _write("writer"), 0, cycles=1.0)
        profile = SampleProfile.from_tracer(tracer)
        # Application-level: atomics are store time.
        assert profile.application_store_fraction == pytest.approx(1.0)
        # Function ranking: the lock's atomics do not outrank the writer.
        chosen = profile.write_intensive_functions(share_of_stores=0.5)
        assert [p.function for p in chosen] == ["writer"]

    def test_write_heavy_vs_read_heavy(self, tiny_machine_a):
        """The Section 7.1 store-time filter on DirtBuster's sampling pass."""
        dirtbuster = DirtBuster(DirtBusterConfig(sampling_period=53))
        writer = Listing1(element_size=1024, num_elements=256, iterations=300)
        reader = ReadMostlyWorkload("pytorch", "stream", scale=200)
        wp, _ = dirtbuster.sample(writer, tiny_machine_a)
        rp, _ = dirtbuster.sample(reader, tiny_machine_a)
        assert wp.application_write_intensive()
        assert not rp.application_write_intensive()
        assert wp.application_store_fraction > rp.application_store_fraction
        assert "listing1_loop" in [p.function for p in wp.write_intensive_functions()]

    def test_callchain_grouping(self):
        tracer = SamplingTracer(period=1)
        ev = Event(
            EventKind.WRITE,
            addr=0,
            size=8,
            site=CodeSite(function="memcpy"),
            callchain=(CodeSite(function="put"),),
        )
        for _ in range(5):
            tracer.record(0, ev, 0, cycles=1.0)
        profile = SampleProfile.from_tracer(tracer)
        chains = profile.function("memcpy").top_callchains()
        assert chains[0][0] == ("put",)


_KINDS = [EventKind.WRITE, EventKind.READ, EventKind.ATOMIC, EventKind.COMPUTE, EventKind.FENCE]
_CHAINS = [(), ("put",), ("put", "main")]
_SLOTS = {EventKind.WRITE: 0, EventKind.READ: 1, EventKind.ATOMIC: 2}


def _profile_fields(profile):
    return (
        profile.total_samples,
        profile.total_stores,
        profile.application_store_fraction,
        [
            (p.function, p.stores, p.loads, p.atomics, list(p.callchains.items()))
            for p in profile.functions()
        ],
    )


def _per_hit_fields(hits, other_samples):
    """``_profile_fields`` counted one timer hit at a time, in hit order."""
    functions = {}
    for event in hits:
        entry = functions.setdefault(event.site.function, [0, 0, 0, {}])
        entry[_SLOTS[event.kind]] += 1
        chain = tuple(site.function for site in event.callchain)
        entry[3][chain] = entry[3].get(chain, 0) + 1
    stores = sum(e[0] + e[2] for e in functions.values())
    ranked = sorted(functions.items(), key=lambda item: item[1][0], reverse=True)
    return (
        len(hits) + other_samples,
        stores,
        stores / (len(hits) + other_samples),
        [(f, e[0], e[1], e[2], list(e[3].items())) for f, e in ranked],
    )


class TestFoldedCounts:
    """Folding each timer hit into per-site counts equals counting per hit."""

    @settings(max_examples=200, deadline=None)
    @given(
        period=st.integers(1, 12),
        events=st.lists(
            st.tuples(
                st.sampled_from(_KINDS),
                st.sampled_from(["f", "g", "lock"]),
                st.sampled_from(_CHAINS),
                st.floats(0.0, 60.0),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_profile_matches_per_hit_count(self, period, events):
        tracer = SamplingTracer(period=period)
        countdown = {}
        samples, hits, other = [], [], 0
        for i, (kind, function, chain, cycles) in enumerate(events):
            memory = kind in _SLOTS
            event = Event(
                kind,
                addr=64 * i if memory else 0,
                size=8 if memory else 1,
                site=CodeSite(function=function),
                callchain=tuple(CodeSite(function=name) for name in chain),
            )
            tracer.record(i % 2, event, i, cycles=cycles)
            # The countdown, replayed: one hit per period boundary crossed.
            remaining = countdown.get(i % 2, float(period)) - cycles
            weight = 0
            while remaining <= 0:
                weight += 1
                remaining += period
            countdown[i % 2] = remaining
            if weight and memory:
                samples.append((i % 2, i, weight))
                hits += [event] * weight
            else:
                other += weight
        assert list(zip(tracer.sample_core, tracer.sample_index, tracer.sample_weight)) == samples
        assert tracer.other_samples == other
        if not hits and not other:
            with pytest.raises(AnalysisError):
                SampleProfile.from_tracer(tracer)
            return
        assert _profile_fields(SampleProfile.from_tracer(tracer)) == _per_hit_fields(hits, other)

    @pytest.mark.parametrize("shape", ["AABA-shared", "AABA-copies", "single"])
    def test_sites_fold_by_function(self, shape):
        # Equal sites that are distinct objects are separate entries of
        # the tracer's counts, and one function in the profile.
        chain = (CodeSite("main"), CodeSite("put"))
        a = Event(EventKind.WRITE, addr=0, size=8, site=CodeSite("memcpy"), callchain=chain)
        # B shares A's site object but not its callchain.
        b = Event(EventKind.READ, addr=64, size=8, site=a.site, callchain=chain[:1])

        def copy(event):
            site = event.site
            return Event(event.kind, addr=event.addr, size=event.size,
                         site=CodeSite(site.function, site.file, site.line, site.ip),
                         callchain=tuple(event.callchain))

        events = {
            "AABA-shared": [a, a, b, a],
            "AABA-copies": [a, copy(a), b, copy(a)],
            "single": [a],
        }[shape]
        tracer = SamplingTracer(period=1)
        for i, event in enumerate(events):
            tracer.record(0, event, i, cycles=1.0)
        tracer.other_samples = 2
        profile = SampleProfile.from_tracer(tracer)
        assert _profile_fields(profile) == _per_hit_fields(events, 2)
        assert len(tracer.hits) == len({(id(e.site), id(e.callchain)) for e in events})

    def test_atomic_runs_count_as_store_time_only(self):
        tracer = SamplingTracer(period=10)
        atomic = Event(EventKind.ATOMIC, addr=0, size=8, site=CodeSite(function="lock"))
        tracer.record(0, atomic, 0, cycles=40.0)
        tracer.record(0, _write("writer"), 1, cycles=30.0)
        tracer.record(0, _read("writer"), 2, cycles=20.0)
        assert len(tracer) == 9
        profile = SampleProfile.from_tracer(tracer)
        assert profile.total_stores == 7
        assert profile.function("lock").atomics == 4
        assert profile.function("lock").stores == 0
        assert profile.function("writer").stores == 3
        assert profile.function("writer").loads == 2
        assert profile.function("writer").callchains[()] == 5
        assert profile.application_store_fraction == pytest.approx(7 / 9)
