"""Equivalence and unit tests for the batched stream interpreter.

The fast path's contract is bit-identity: running a workload with the
batched STREAM vocabulary must produce exactly the ``RunResult`` JSON
the reference one-event-per-access vocabulary produces, on every
machine preset (DESIGN.md §11).  These tests pin that contract for a
representative workload per family, for eight synthetic stream bodies
(``tests/stream_bodies.py``), as a hypothesis property over random
access programs, and at the observer boundary.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.cache import CacheLevel, CacheLevelSpec
from repro.sim.event import Event, EventKind, UNKNOWN_SITE
from repro.sim.machine import (
    Machine,
    Tracer,
    machine_a,
    machine_a_cxl,
    machine_b_fast,
    machine_b_slow,
    machine_dram,
)
from repro.sim.replacement import make_policy
from repro.workloads.kv.clht import CLHTWorkload
from repro.workloads.kv.ycsb import YCSBSpec
from repro.workloads.memapi import Program
from repro.workloads.microbench import Listing1
from repro.workloads.nas.mg import MGWorkload
from repro.workloads.x9 import X9Workload
from tests.stream_bodies import run_body

PRESETS = [machine_a, machine_dram, machine_a_cxl, machine_b_fast, machine_b_slow]


def _make_listing1():
    return Listing1(element_size=1024, num_elements=64, iterations=200)


def _make_mg():
    return MGWorkload(grid=16, iterations=1, threads=2)


def _make_clht():
    return CLHTWorkload(spec=YCSBSpec(num_keys=512, operations=600), threads=2)


def _make_x9():
    return X9Workload(messages=300)


WORKLOADS = [
    pytest.param(_make_listing1, id="microbench-listing1"),
    pytest.param(_make_mg, id="nas-mg"),
    pytest.param(_make_clht, id="kv-clht"),
    pytest.param(_make_x9, id="x9"),
]


class TestBitIdentity:
    """Stream vs. reference vocabulary on every preset x workload family."""

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("make_workload", WORKLOADS)
    def test_runresult_json_identical(self, preset, make_workload):
        reference = make_workload().run(preset(), streams=False).run.to_json()
        fast = make_workload().run(preset(), streams=True).run.to_json()
        assert fast == reference

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
    @pytest.mark.parametrize(
        "bench", ["seq_write_cold", "rand_write_cold", "rand_read_cold", "mixed_cold"]
    )
    def test_cold_benchmarks_identical(self, preset, bench):
        # The fused miss path's own acceptance matrix: cold sequential,
        # page-shuffled random, and alternating read/write streams over a
        # larger-than-cache buffer, on every preset (hashed LLC indexing,
        # weak ordering, every device flavour).
        self._assert_body_identical(preset, bench)

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("bench", ["seq_write_warm", "seq_read_warm"])
    def test_warm_benchmarks_identical(self, preset, bench):
        # Repeated passes over a cache-resident buffer: the fused hit
        # loops, with the miss path cold after the first pass.
        self._assert_body_identical(preset, bench)

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("bench", ["nt_seq_write", "nt_strided_write"])
    def test_nontemporal_benchmarks_identical(self, preset, bench):
        # The fused NT loop: invalidation of dirty, buffered lines in
        # every level, and writebacks that straddle device blocks.
        self._assert_body_identical(preset, bench)

    @staticmethod
    def _assert_body_identical(preset, bench):
        reference = run_body(preset(), bench, streams=False)
        fast = run_body(preset(), bench, streams=True)
        assert fast.to_json() == reference.to_json()


# -- property: random access programs ---------------------------------------

_op = st.tuples(
    st.booleans(),  # write?
    st.integers(min_value=0, max_value=48),  # start line within the buffer
    st.integers(min_value=1, max_value=24),  # run length in lines
)


def _bodies(t, ops, as_streams):
    buf = t.alloc(80 * t.line_size, label="prop")
    line = t.line_size
    for is_write, start, nlines in ops:
        addr = buf.base + (start % 56) * line
        size = nlines * line
        if as_streams:
            if is_write:
                yield from t.write_block(addr, size)
            else:
                yield from t.read_block(addr, size)
        else:
            offset = 0
            while offset < size:
                if is_write:
                    yield t.write(addr + offset, line)
                else:
                    yield t.read(addr + offset, line)
                offset += line


@settings(max_examples=30, deadline=None)
@given(
    ops_a=st.lists(_op, min_size=1, max_size=12),
    ops_b=st.lists(_op, min_size=0, max_size=12),
)
def test_random_streams_match_reference(ops_a, ops_b):
    """Two interleaved threads of random runs: identical stats both ways.

    Exercises scheduler preemption: a long stream on one core must
    yield to the other core exactly where the per-event scheduler
    would have switched.
    """
    results = {}
    for as_streams in (False, True):
        program = Program(machine_a(num_cores=2), streams=as_streams)
        program.spawn(_bodies, ops_a, as_streams)
        if ops_b:
            program.spawn(_bodies, ops_b, as_streams)
        results[as_streams] = program.run().to_json()
    assert results[True] == results[False]


def _shared_writer(t, shared, nontemporal, delay):
    yield t.compute(delay)
    yield from t.write_block(shared.base, shared.size, nontemporal=nontemporal)
    # An atomic pays the owner transfer on top of its fill.
    for offset in range(0, shared.size, 4 * t.line_size):
        yield t.atomic(shared.base + offset)
    yield from t.read_block(shared.base, shared.size)


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
def test_nt_streams_take_lines_from_other_cores(preset):
    """NT stores over lines another core owns and buffers, then reads.

    The NT run must drop the other core's ownership (which the atomics
    would pay for) and its cached copies, exactly as the per-access NT
    store does.
    """
    results = {}
    for as_streams in (False, True):
        program = Program(preset(num_cores=2), streams=as_streams)
        shared = program.allocator.alloc(24 * program.machine.line_size, label="shared")
        program.spawn(_shared_writer, shared, False, 1)
        program.spawn(_shared_writer, shared, True, 400)
        results[as_streams] = program.run().to_json()
    assert results[True] == results[False]


# -- the fill kernels against the object walk, end to end --------------------
#
# Both vocabularies above share CacheHierarchy.fill and its generated
# kernels, so comparing them does not check the hierarchy walk.  These
# runs do: the same workload on the real kernels and on the object walk
# of tests/object_walk.py must give the same RunResult bytes.  The
# presets' last levels are shrunk to their minimum so the runs churn
# every level: LLC evictions, back-invalidations and writebacks.


def _small_llc_a():
    return machine_a(llc_kb=128)


def _small_l2_b():
    return machine_b_fast(l2_kb=32)


def _oracle_ft():
    from repro.workloads.nas.ft import FTWorkload

    return FTWorkload(grid=32, iterations=1, threads=2), _small_llc_a, "clean"


def _oracle_mg():
    return MGWorkload(grid=24, iterations=1, threads=2), _small_llc_a, "none"


def _oracle_clht():
    spec = YCSBSpec(mix="A", num_keys=2048, operations=600, value_size=1024)
    return CLHTWorkload(spec, threads=2), _small_llc_a, "clean"


def _oracle_listing2():
    from repro.workloads.microbench import Listing2

    return Listing2(reads_before_fence=5, iterations=1500), _small_l2_b, "demote"


def _oracle_x9():
    # Two atomics per message, on headers spread over a ring larger
    # than L2.
    workload = X9Workload(messages=1500, ring_slots=512, consumer_work=40, producer_work=40)
    return workload, _small_llc_a, "demote"


@pytest.fixture
def object_walk_hierarchy(monkeypatch):
    from tests.object_walk import use_object_walk

    return lambda: use_object_walk(monkeypatch)


@pytest.mark.parametrize("streams", [False, True], ids=["reference", "streams"])
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(_oracle_ft, id="nas-ft"),
        pytest.param(_oracle_mg, id="nas-mg"),
        pytest.param(_oracle_clht, id="clht-ycsb-a"),
        pytest.param(_oracle_listing2, id="listing2-demote"),
        pytest.param(_oracle_x9, id="x9-atomics"),
    ],
)
def test_kernels_match_object_walk(make, streams, object_walk_hierarchy):
    from repro.core.prestore import PrestoreMode
    from repro.experiments.common import endorsed_patches

    def run():
        workload, preset, mode = make()
        patches = endorsed_patches(workload, PrestoreMode(mode))
        return workload.run(preset(), patches, streams=streams).run.to_json()

    kernels = run()
    object_walk_hierarchy()
    assert run() == kernels


# -- observer boundary -------------------------------------------------------


class _Recorder(Tracer):
    def __init__(self):
        self.records = []

    def record(self, core_id, event, instr_index, cycles):
        self.records.append(
            (core_id, event.kind, event.addr, event.size, event.nontemporal, instr_index, cycles)
        )


class _StreamRecorder(_Recorder):
    """Takes fused runs in bulk and expands them into per-access records."""

    def __init__(self):
        super().__init__()
        self.runs = 0

    def record_stream(
        self, core_id, kind, addr, size, chunk, stride, nontemporal, index, clocks, site,
        callchain,
    ):
        self.runs += 1
        for k in range(len(clocks) - 1):
            offset = k * stride
            self.records.append(
                (core_id, kind, addr + offset, min(chunk, size - offset), nontemporal,
                 index + k, clocks[k + 1] - clocks[k])
            )


def test_observers_see_per_access_records():
    """A default observer gets the exact reference record stream."""
    captured = {}
    for as_streams in (False, True):
        rec = _Recorder()
        program = Program(machine_a(), tracer=rec, streams=as_streams)
        program.spawn(_bodies, [(True, 0, 8), (False, 2, 6), (True, 3, 12)], as_streams)
        captured[as_streams] = (program.run().to_json(), rec.records)
    assert captured[True] == captured[False]
    kinds = {r[1] for r in captured[True][1]}
    assert kinds <= {EventKind.READ, EventKind.WRITE}  # streams were unrolled


def test_stream_observer_gets_fused_runs():
    """A record_stream observer keeps the fused path, records unchanged."""
    captured = {}
    for make in (_Recorder, _StreamRecorder):
        rec = make()
        program = Program(machine_a(), tracer=rec, streams=True)
        program.spawn(_bodies, [(True, 0, 8), (False, 2, 6), (True, 3, 12)], True)
        captured[make] = (program.run().to_json(), rec.records, program.machine.path_counts())
    assert captured[_StreamRecorder][:2] == captured[_Recorder][:2]
    assert captured[_StreamRecorder][2]["unrolled"] == 0
    assert captured[_Recorder][2]["fused"] == 0
    assert captured[_StreamRecorder][2]["fused"] == captured[_Recorder][2]["unrolled"] == 26
    assert rec.runs > 0


def test_one_per_access_observer_unrolls_for_all():
    """Streams unroll unless every attached observer has record_stream."""
    bulk, per_access = _StreamRecorder(), _Recorder()
    program = Program(machine_a(), streams=True)
    program.machine.attach_observer(bulk)
    program.machine.attach_observer(per_access)
    program.spawn(_bodies, [(True, 0, 8), (False, 2, 6)], True)
    program.run()
    assert bulk.runs == 0
    assert bulk.records == per_access.records
    assert program.machine.path_counts()["unrolled"] == 14


# -- fault plans x fast path --------------------------------------------------


class TestFaultPlansOnFastPath:
    """Fault injection and the batched vocabulary must compose safely.

    The injector is the machine's stream horizon: fused runs stop at the
    crash point and bump store versions per access, so crash points land
    on the same instruction whichever vocabulary the caller requested
    (``tests/test_fault_streams.py`` is the full oracle).
    """

    def test_empty_plan_is_identity_on_fast_path(self):
        from repro.faults import FaultPlan, run_with_faults
        from repro.faults.workloads import LogAppendWorkload

        spec = machine_a()
        plain = (
            LogAppendWorkload(record_size=256, records=24)
            .run(spec, streams=False)
            .run.to_json()
        )
        report = run_with_faults(
            LogAppendWorkload(record_size=256, records=24), spec, FaultPlan(), streams=True
        )
        assert report.result.to_json() == plain
        assert report.image is None and not report.crashed

    def test_crash_plan_pins_store_versions_regardless_of_stream_request(self):
        from repro.faults import CrashPoint, FaultPlan, run_with_faults
        from repro.faults.workloads import KVPersistWorkload

        plan = FaultPlan(crash=CrashPoint(at_instruction=120))
        reports = {
            streams: run_with_faults(
                KVPersistWorkload(operations=48), machine_a(), plan, seed=9, streams=streams
            )
            for streams in (False, True)
        }
        assert reports[True].crashed and reports[False].crashed
        # Versioned durability accounting is per-access; the fused
        # loops' per-access hook keeps every line's written/accepted/media
        # version — and hence the whole report — independent of the
        # request.
        assert reports[True].image.line_versions == reports[False].image.line_versions
        assert reports[True].image.digest() == reports[False].image.digest()
        assert reports[True].to_json() == reports[False].to_json()


# -- stream event semantics ---------------------------------------------------


class TestStreamEvents:
    def test_stream_factory_maps_access_kinds(self):
        ev = Event.stream(EventKind.WRITE, addr=0, size=256, chunk=64)
        assert ev.kind is EventKind.STREAM_WRITE
        assert ev.access_kind is EventKind.WRITE
        assert ev.access_count == 4
        ev = Event.stream(EventKind.READ, addr=0, size=130, chunk=64)
        assert ev.kind is EventKind.STREAM_READ
        assert ev.access_count == 3  # last access is short

    def test_stream_validation(self):
        with pytest.raises(SimulationError):
            Event.stream(EventKind.FENCE, addr=0, size=64, chunk=64)
        with pytest.raises(SimulationError):
            Event.stream(EventKind.WRITE, addr=0, size=64, chunk=0)
        with pytest.raises(SimulationError):
            Event.stream(EventKind.WRITE, addr=-1, size=64, chunk=64)
        with pytest.raises(SimulationError):
            Event(EventKind.STREAM_READ, addr=0, size=64, chunk=64, nontemporal=True)

    def test_machine_step_accepts_streams(self):
        machine = Machine(machine_a())
        core = machine.cores[0]
        machine.step(core, Event.stream(EventKind.WRITE, addr=1 << 20, size=512, chunk=64))
        assert core.stats.writes == 8
        assert core.stats.instructions == 8
        assert machine.instruction_count == 8

    def test_lines_covers_stream_range(self):
        ev = Event.stream(EventKind.WRITE, addr=0, size=256, chunk=64)
        assert list(ev.lines(64)) == [0, 1, 2, 3]


# -- satellite regressions ----------------------------------------------------


def test_cache_level_hashed_index_comes_from_spec():
    spec = CacheLevelSpec(name="LLC", size_bytes=4096, ways=4, hit_latency=10, hashed_index=True)
    lvl = CacheLevel(spec, 64, make_policy("lru"))
    assert lvl.hashed_index is True
    plain = CacheLevel(
        CacheLevelSpec(name="L1", size_bytes=4096, ways=4, hit_latency=4), 64, make_policy("lru")
    )
    assert plain.hashed_index is False
    # Hashed and modulo indexing must actually differ for some line.
    assert any(lvl.set_index(line) != plain.set_index(line) for line in range(64))


def test_fence_str_includes_scope():
    assert str(Event(EventKind.FENCE)) == "fence(full)"
    assert str(Event(EventKind.FENCE, fence_scope="load")) == "fence(load)"


def test_event_str_markers():
    assert "nt" in str(Event(EventKind.WRITE, addr=0, size=8, nontemporal=True))
    assert "relaxed" in str(Event(EventKind.READ, addr=0, size=8, relaxed=True))
    s = str(Event.stream(EventKind.WRITE, addr=64, size=256, chunk=64))
    assert "stream_write" in s and "chunk=64" in s
