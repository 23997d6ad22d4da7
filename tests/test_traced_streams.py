"""DirtBuster's tracers on the fused stream path.

Both tracers define ``record_stream``, so a traced run keeps the fused
stream loops and gets each run's accesses in bulk (DESIGN.md §18,
"Observed streams").  The oracle is the same tracer behind a wrapper
that forwards only ``record``: the machine must then unroll every stream
through ``step``.  The sampled ``(core, index, weight)`` columns, the
folded per-site counts, ``other_samples``, every record of the full
trace and the RunResult bytes must be identical either way.
"""

from hypothesis import given, settings, strategies as st

from repro.core.prestore import PatchConfig
from repro.dirtbuster.runner import DirtBuster, DirtBusterConfig
from repro.dirtbuster.trace import FullTracer, SamplingTracer
from repro.obs.collector import ObsCollector
from repro.sim.event import WRITE, CodeSite, Event
from repro.sim.machine import Machine, machine_a
from repro.workloads.memapi import Program
from repro.workloads.nas.mg import MGWorkload
from repro.workloads.phoronix import ReadMostlyWorkload

from tests.test_single_events import _small_a, _small_b


class _PerAccess:
    """Forwards only ``record``, which forces the unrolled path."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def record(self, core_id, event, instr_index, cycles):
        self.inner.record(core_id, event, instr_index, cycles)


#: Where an op runs: directly in the thread's main function, in ``hot``,
#: in ``cold``, or in ``lib`` called from ``hot``.
_CALLS = ((), ("hot",), ("cold",), ("hot", "lib"))

_CHUNKS = st.sampled_from([8, 24, 64, 100, 128, 200])
_OPS = st.one_of(
    st.tuples(st.just("read_block"), st.integers(0, 3), st.integers(0, 40),
              st.integers(1, 1200), _CHUNKS),
    st.tuples(st.just("write_block"), st.integers(0, 3), st.integers(0, 40),
              st.integers(1, 1200), _CHUNKS, st.booleans()),
    st.tuples(st.just("read"), st.integers(0, 3), st.integers(0, 40), st.integers(1, 200)),
    st.tuples(st.just("write"), st.integers(0, 3), st.integers(0, 40), st.integers(1, 200)),
    st.tuples(st.just("compute"), st.integers(0, 3), st.integers(1, 60)),
    st.tuples(st.just("fence"), st.integers(0, 3), st.sampled_from(["full", "load"])),
    st.tuples(st.just("atomic"), st.integers(0, 3), st.integers(0, 40)),
)


def _op(t, base, op):
    name, line = op[0], t.line_size
    if name == "read_block":
        yield from t.read_block(base + op[2] * line + op[2] % 7, op[3], chunk=op[4])
    elif name == "write_block":
        yield from t.write_block(base + op[2] * line + op[2] % 5, op[3], nontemporal=op[5],
                                 chunk=op[4])
    elif name == "read":
        yield t.read(base + op[2] * line, op[3])
    elif name == "write":
        yield t.write(base + op[2] * line, op[3])
    elif name == "compute":
        yield t.compute(op[2])
    elif name == "fence":
        yield t.fence(op[2])
    else:
        yield t.atomic(base + op[2] * line)


def _body(t, shared, ops):
    with t.function(f"main{t.tid}"):
        for op in ops:
            calls = _CALLS[op[1]]
            if not calls:
                yield from _op(t, shared.base, op)
            elif len(calls) == 1:
                with t.function(calls[0]):
                    yield from _op(t, shared.base, op)
            else:
                with t.function(calls[0]), t.function(calls[1]):
                    yield from _op(t, shared.base, op)


def _run(make_spec, programs, tracer, oracle):
    program = Program(make_spec(), seed=5, streams=True,
                      tracer=_PerAccess(tracer) if oracle else tracer)
    shared = program.allocator.alloc(64 * program.machine.line_size, label="shared")
    for ops in programs:
        program.spawn(_body, shared, ops)
    return program.run().to_json(), program.machine.path_counts()


_TRACERS = [
    ("sampling-1", lambda: SamplingTracer(period=1)),
    ("sampling-2", lambda: SamplingTracer(period=2)),
    ("sampling-53", lambda: SamplingTracer(period=53)),
    ("full", lambda: FullTracer()),
    ("full-hot", lambda: FullTracer(functions=["hot"])),
]


def _key(record):
    # Every ``t.function`` entry mints a CodeSite with a fresh ip, so two
    # runs compare sites by their source location.
    def where(site):
        return site.function, site.file, site.line

    return (record.instr_index, record.core_id, record.kind, record.addr, record.size,
            where(record.site), tuple(where(s) for s in record.callchain))


def _samples(tracer):
    return list(zip(tracer.sample_core, tracer.sample_index, tracer.sample_weight))


def _observed(tracer):
    if isinstance(tracer, SamplingTracer):
        counts = [
            (site.function, site.file, site.line, tuple(c.function for c in chain), *hits)
            for site, chain, *hits in tracer.hits.values()
        ]
        return _samples(tracer), counts, tracer.other_samples
    return [_key(r) for r in tracer.trace]


def _recorded(tracer):
    """How many accesses the tracer kept, so a comparison cannot pass empty."""
    return len(tracer.sample_index) if isinstance(tracer, SamplingTracer) else len(tracer)


@settings(max_examples=40, deadline=None)
@given(
    programs=st.lists(st.lists(_OPS, min_size=1, max_size=10), min_size=1, max_size=4),
    make_spec=st.sampled_from([_small_a, _small_b]),
)
def test_bulk_tracers_match_unrolled(programs, make_spec):
    for _, make_tracer in _TRACERS:
        bulk, unrolled = make_tracer(), make_tracer()
        bulk_json, bulk_paths = _run(make_spec, programs, bulk, oracle=False)
        ref_json, ref_paths = _run(make_spec, programs, unrolled, oracle=True)
        assert bulk_json == ref_json
        assert _observed(bulk) == _observed(unrolled)
        # The oracle unrolls every stream access; the bulk run, NT
        # stream writes included, unrolls none.
        assert ref_paths["fused"] == bulk_paths["unrolled"] == 0
        assert bulk_paths["fused"] == ref_paths["unrolled"]
        assert bulk_paths["single"] == ref_paths["single"]


def test_bulk_tracer_records_split_runs():
    # Two threads writing long streams preempt each other: runs arrive
    # in pieces, and each piece's head index and clocks must line up.
    programs = [
        [("write_block", 1, 0, 1200, 64, False), ("read_block", 3, 4, 1000, 100)],
        [("compute", 0, 5), ("write_block", 2, 10, 900, 24, False), ("fence", 0, "full")],
    ]
    for name, make_tracer in _TRACERS:
        bulk, unrolled = make_tracer(), make_tracer()
        assert _run(_small_a, programs, bulk, False)[0] == _run(
            _small_a, programs, unrolled, True
        )[0], name
        assert _observed(bulk) == _observed(unrolled), name
        assert _recorded(bulk) > 0, name


def test_nontemporal_runs_traced_in_bulk():
    # Sequential and line-straddling NT stores over lines that cached
    # stores dirtied, from two threads that preempt each other.
    programs = [
        [("write_block", 1, 0, 1200, 64, False), ("write_block", 1, 0, 1200, 64, True),
         ("read_block", 0, 2, 600, 64)],
        [("write_block", 2, 10, 900, 100, True), ("write", 0, 12, 8),
         ("write_block", 3, 4, 1000, 24, True), ("fence", 0, "full")],
    ]
    for name, make_tracer in _TRACERS:
        bulk, unrolled = make_tracer(), make_tracer()
        bulk_json, bulk_paths = _run(_small_b, programs, bulk, False)
        ref_json, ref_paths = _run(_small_b, programs, unrolled, True)
        assert bulk_json == ref_json, name
        assert _observed(bulk) == _observed(unrolled), name
        assert _recorded(bulk) > 0, name
        assert bulk_paths["unrolled"] == ref_paths["fused"] == 0, name
        assert bulk_paths["fused"] == ref_paths["unrolled"] > 0, name


_SITE = CodeSite("stream_fn", "prop.c", 1)


@settings(max_examples=200, deadline=None)
@given(
    deltas=st.lists(st.sampled_from([0.1, 0.7, 1 / 3, 1.1, 2.5, 4.0, 37.3]), min_size=1,
                    max_size=60),
    period=st.sampled_from([1, 2, 7, 53]),
    start=st.floats(0, 1e6),
)
def test_sampling_countdown_replays_each_delta(deltas, period, start):
    # Non-dyadic cycle counts: subtracting the run's total at once would
    # round differently from the per-access subtractions and shift samples.
    clocks = [start]
    for delta in deltas:
        clocks.append(clocks[-1] + delta)
    bulk, unrolled = SamplingTracer(period), SamplingTracer(period)
    bulk.record_stream(0, WRITE, 4096, 64 * len(deltas) - 8, 64, 64, False, 10, clocks, _SITE,
                      ())
    for k in range(len(deltas)):
        size = 64 if k + 1 < len(deltas) else 56
        access = Event.fast_access(WRITE, 4096 + 64 * k, size, False, False, _SITE, ())
        unrolled.record(0, access, 10 + k, clocks[k + 1] - clocks[k])
    # One more access shows whether the countdowns agree to the last bit.
    for tracer in (bulk, unrolled):
        tracer.record(0, Event.fast_access(WRITE, 0, 8, False, False, _SITE, ()), 99, period)
    assert _samples(bulk) == _samples(unrolled)
    assert bulk.hits == unrolled.hits
    assert bulk._countdown == unrolled._countdown


# -- which path ran ---------------------------------------------------------


def _mg():
    # Table 2's MG at one iteration: large enough to be write-intensive.
    return MGWorkload(grid=32, iterations=1, threads=4)


def _path_counts_per_simulation(monkeypatch, workload):
    counts = []
    finish = Machine.finish

    def counting_finish(machine):
        counts.append(machine.path_counts())
        return finish(machine)

    monkeypatch.setattr(Machine, "finish", counting_finish)
    report = DirtBuster(DirtBusterConfig(sampling_period=53)).analyze(workload, machine_a())
    return report, counts


def test_dirtbuster_runs_stay_on_the_fused_path(monkeypatch):
    report, counts = _path_counts_per_simulation(monkeypatch, _mg())
    assert report.classification.write_intensive  # both passes ran
    assert len(counts) == 1  # ...on one simulation
    for paths in counts:
        assert paths["unrolled"] == 0
        assert paths["fused"] > 0


def test_dirtbuster_simulates_a_skipped_application_once(monkeypatch):
    gzip = ReadMostlyWorkload("gzip", "stream", scale=100)
    report, counts = _path_counts_per_simulation(monkeypatch, gzip)
    assert not report.classification.write_intensive
    assert len(counts) == 1
    assert counts[0]["unrolled"] == 0


def test_obs_run_reports_unrolled_accesses():
    collector = ObsCollector(trace=False)
    observed = Program(machine_a(), tracer=collector, streams=True)
    _mg().spawn(observed, PatchConfig.baseline())
    observed.run()
    plain = Program(machine_a(), streams=True)
    _mg().spawn(plain, PatchConfig.baseline())
    plain.run()

    published = {
        path: collector.registry.get(f"sim.accesses.{path}").value
        for path in ("fused", "unrolled", "single")
    }
    assert published == {k: float(v) for k, v in observed.machine.path_counts().items()}
    unobserved = plain.machine.path_counts()
    assert published["fused"] == 0
    assert published["unrolled"] == unobserved["fused"] + unobserved["unrolled"] > 0
    assert published["single"] == unobserved["single"]
