"""Unit tests for tracing and the perf-style sampler."""

import io
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dirtbuster.export import dump_records, load_records
from repro.dirtbuster.runner import DirtBuster, DirtBusterConfig
from repro.dirtbuster.sampling import SampleProfile
from repro.dirtbuster.trace import AccessRecord, FullTracer, SamplingTracer
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
        assert len(tracer.samples) == 5
        # One shared frozen record per event, repeated once per hit.
        assert all(s is tracer.samples[0] for s in tracer.samples)
        tracer.record(0, _write(), 1, cycles=10.0)
        assert len(tracer.samples) == 6
        assert tracer.samples[5] is not tracer.samples[0]

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
        assert len(tracer.records) == 1
        assert tracer.records[0].function == "hot"

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
        assert len(tracer.records) == 1

    def test_fences_always_recorded(self):
        tracer = FullTracer(functions={"hot"})
        tracer.record(0, Event(EventKind.FENCE, site=CodeSite(function="pthread_lock")), 0)
        tracer.record(0, Event(EventKind.ATOMIC, addr=0, size=8, site=CodeSite(function="x")), 1)
        assert len(tracer.records) == 2

    def test_compute_never_recorded(self):
        tracer = FullTracer()
        tracer.record(0, Event(EventKind.COMPUTE, size=5), 0)
        assert len(tracer.records) == 0

    def test_per_core_grouping(self):
        tracer = FullTracer()
        tracer.record(0, _write(), 0)
        tracer.record(1, _write(), 1)
        tracer.record(0, _read(), 2)
        groups = tracer.per_core()
        assert len(groups[0]) == 2 and len(groups[1]) == 1


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
        assert load_records(buffer) == records

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


def _profile_fields(profile):
    return (
        profile.total_samples,
        profile.total_stores,
        profile.application_store_fraction,
        [
            (p.function, p.stores, p.loads, p.atomics, dict(p.callchains))
            for p in profile.functions()
        ],
    )


class TestSharedRecordFolding:
    """Folding runs of one shared record equals counting per-hit records."""

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
    def test_shared_records_profile_like_distinct_ones(self, period, events):
        tracer = SamplingTracer(period=period)
        for i, (kind, function, chain, cycles) in enumerate(events):
            memory = kind in (EventKind.WRITE, EventKind.READ, EventKind.ATOMIC)
            event = Event(
                kind,
                addr=64 * i if memory else 0,
                size=8 if memory else 1,
                site=CodeSite(function=function),
                callchain=tuple(CodeSite(function=name) for name in chain),
            )
            tracer.record(i % 2, event, i, cycles=cycles)
        if not len(tracer):
            return
        distinct = [s._replace() for s in tracer.samples]
        shared = SampleProfile(tracer.samples, other_samples=tracer.other_samples)
        per_hit = SampleProfile(distinct, other_samples=tracer.other_samples)
        assert _profile_fields(shared) == _profile_fields(per_hit)

    @staticmethod
    def _per_hit(samples):
        """Each sample counted on its own: function -> [stores, loads, atomics, chains]."""
        counts = {}
        for s in samples:
            entry = counts.setdefault(s.site.function, [0, 0, 0, {}])
            entry[{EventKind.WRITE: 0, EventKind.READ: 1, EventKind.ATOMIC: 2}[s.kind]] += 1
            chain = tuple(site.function for site in s.callchain)
            entry[3][chain] = entry[3].get(chain, 0) + 1
        return counts

    @pytest.mark.parametrize("shape", ["AABA-shared", "AABA-copies", "single"])
    def test_fold_matches_per_hit_count(self, shape):
        chain = (CodeSite("main"), CodeSite("put"))
        a = AccessRecord(0, 0, EventKind.WRITE, 0, 8, CodeSite("memcpy"), chain)
        # B shares A's site object but not its callchain.
        b = AccessRecord(1, 0, EventKind.READ, 64, 8, a.site, chain[:1])
        samples = {
            "AABA-shared": [a, a, b, a],
            "AABA-copies": [a, a._replace(), b, a._replace()],
            "single": [a],
        }[shape]
        profile = SampleProfile(samples, other_samples=2)
        got = {
            p.function: [p.stores, p.loads, p.atomics, dict(p.callchains)]
            for p in profile.functions()
        }
        assert got == self._per_hit(samples)
        assert profile.total_samples == len(samples) + 2
        assert profile.total_stores == sum(s.kind is EventKind.WRITE for s in samples)

    def test_atomic_runs_count_as_store_time_only(self):
        tracer = SamplingTracer(period=10)
        atomic = Event(EventKind.ATOMIC, addr=0, size=8, site=CodeSite(function="lock"))
        tracer.record(0, atomic, 0, cycles=40.0)
        tracer.record(0, _write("writer"), 1, cycles=30.0)
        tracer.record(0, _read("writer"), 2, cycles=20.0)
        assert len(tracer.samples) == 9
        profile = SampleProfile.from_tracer(tracer)
        assert profile.total_stores == 7
        assert profile.function("lock").atomics == 4
        assert profile.function("lock").stores == 0
        assert profile.function("writer").stores == 3
        assert profile.function("writer").loads == 2
        assert profile.function("writer").callchains[()] == 5
        assert profile.application_store_fraction == pytest.approx(7 / 9)
