"""The single-event layer: run-ahead scheduler bursts and typed helpers.

``Machine.run`` runs a picked thread ahead while the per-event pick
would choose it again, and the ``ThreadCtx`` helpers build their events
without the validating constructor (DESIGN.md §11, "Single events").
These tests pin both against their references:

* the burst scheduler against the one-pick-per-event loop in
  ``tests/scheduler_oracle.py`` — RunResult bytes, observer records and
  the order generator bodies resume in;
* every helper against ``Event(...)`` — equal events, equal error
  messages, provenance restored by ``function()`` blocks;
* a profiled run against an unprofiled one — one ``sim.dispatch`` span
  per executed single event, and the same RunResult.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.prestore import PatchConfig, PrestoreOp
from repro.errors import SimulationError
from repro.obs.collector import ObsCollector
from repro.sim.cache import CacheLevelSpec
from repro.sim.event import UNKNOWN_SITE, Event, EventKind, Mailbox
from repro.sim.machine import Machine, MachineSpec, machine_b_fast
from repro.sim.memory import fpga_spec, optane_pmem_spec
from repro.workloads.kv.clht import CLHTWorkload
from repro.workloads.kv.ycsb import YCSBSpec
from repro.workloads.memapi import Allocator, Program, ThreadCtx
from repro.workloads.microbench import Listing2
from repro.workloads.nas.mg import MGWorkload
from repro.workloads.x9 import X9Workload

from tests.scheduler_oracle import run_one_pick_per_event


def _small_a() -> MachineSpec:
    return MachineSpec(
        name="small-A",
        line_size=64,
        memory_model="tso",
        cache_levels=(
            CacheLevelSpec(name="L1", size_bytes=2 * 1024, ways=4, hit_latency=4),
            CacheLevelSpec(name="L2", size_bytes=4 * 1024, ways=4, hit_latency=14),
            CacheLevelSpec(name="LLC", size_bytes=8 * 1024, ways=8, hit_latency=40, hashed_index=True),
        ),
        device=optane_pmem_spec(),
        replacement_policy="intel-like",
        num_cores=4,
        seed=3,
    )


def _small_b() -> MachineSpec:
    return MachineSpec(
        name="small-B",
        line_size=128,
        memory_model="weak",
        cache_levels=(
            CacheLevelSpec(name="L1", size_bytes=4 * 1024, ways=4, hit_latency=4),
            CacheLevelSpec(name="L2", size_bytes=16 * 1024, ways=8, hit_latency=30, hashed_index=True),
        ),
        device=fpga_spec(read_latency=60, bandwidth=5.0, line_size=128),
        replacement_policy="arm-like",
        num_cores=4,
        backlog_limit_cycles=600.0,
        seed=3,
    )


# -- scheduler bursts vs the one-pick-per-event oracle ------------------------


class _Recorder:
    """Snapshots every per-access record."""

    def __init__(self) -> None:
        self.records = []

    def record(self, core_id, event, instr_index, cycles):
        self.records.append(
            (core_id, event.kind.value, event.addr, event.size, event.nontemporal, instr_index,
             cycles)
        )


class _StreamRecorder(_Recorder):
    """Also takes fused runs in bulk, expanded into the same records."""

    def record_stream(
        self, core_id, kind, addr, size, chunk, stride, nontemporal, index, clocks, site,
        callchain,
    ):
        for k in range(len(clocks) - 1):
            offset = k * stride
            self.records.append(
                (core_id, kind.value, addr + offset, min(chunk, size - offset), nontemporal,
                 index + k, clocks[k + 1] - clocks[k])
            )


_OPS = st.one_of(
    st.tuples(st.just("read"), st.integers(0, 40), st.integers(1, 300)),
    st.tuples(st.just("write"), st.integers(0, 40), st.integers(1, 300), st.booleans()),
    st.tuples(st.just("compute"), st.integers(1, 40)),
    st.tuples(st.just("fence"), st.sampled_from(["full", "load"])),
    st.tuples(st.just("atomic"), st.integers(0, 40)),
    st.tuples(
        st.just("prestore"),
        st.integers(0, 40),
        st.integers(1, 300),
        st.sampled_from([PrestoreOp.DEMOTE, PrestoreOp.CLEAN]),
    ),
    st.tuples(st.just("read_block"), st.integers(0, 40), st.integers(1, 24)),
    st.tuples(st.just("write_block"), st.integers(0, 40), st.integers(1, 24), st.booleans()),
    st.tuples(st.just("post"), st.integers(0, 3)),
    st.tuples(st.just("wait"), st.integers(0, 3), st.integers(0, 3)),
)


def _deadlock_free(programs):
    """Keep only WAITs on keys a lower-numbered thread posts.

    Thread 0 never waits, and every thread posts unconditionally, so by
    induction every WAIT is eventually satisfied.
    """
    posted = [sorted({op[1] for op in ops if op[0] == "post"}) for ops in programs]
    fixed = []
    for tid, ops in enumerate(programs):
        out = []
        for op in ops:
            if op[0] == "wait":
                lower = [(j, k) for j in range(tid) for k in posted[j]]
                if not lower:
                    continue
                op = ("wait",) + lower[(op[1] * 4 + op[2]) % len(lower)]
            out.append(op)
        fixed.append(out)
    return fixed


def _body(t, shared, ops, mailbox, log):
    line = t.line_size
    base = shared.base
    with t.function("prop_body", file="prop.c", line=t.tid):
        for step, op in enumerate(ops):
            name = op[0]
            if name == "read":
                yield t.read(base + op[1] * line, op[2])
            elif name == "write":
                yield t.write(base + op[1] * line, op[2], nontemporal=op[3])
            elif name == "compute":
                yield t.compute(op[1])
            elif name == "fence":
                yield t.fence(op[1])
            elif name == "atomic":
                yield t.atomic(base + op[1] * line)
            elif name == "prestore":
                yield t.prestore(base + op[1] * line, op[2], op[3])
            elif name == "read_block":
                yield from t.read_block(base + op[1] * line, op[2] * line)
            elif name == "write_block":
                yield from t.write_block(base + op[1] * line, op[2] * line, nontemporal=op[3])
            elif name == "post":
                yield t.post(mailbox, (t.tid, op[1]))
            else:
                yield t.wait(mailbox, (op[1], op[2]))
            # Generator code between yields reads the clock: the resume
            # order and the time each resume sees must both match.
            log.append((t.tid, step, t.now()))


def _run_program(make_spec, programs, oracle, per_access, streams=True):
    program = Program(make_spec(), seed=11, streams=streams)
    shared = program.allocator.alloc(72 * program.machine.line_size, label="shared")
    mailbox = Mailbox()
    log = []
    recorders = [_StreamRecorder()]
    if per_access:
        recorders.append(_Recorder())
    for recorder in recorders:
        program.machine.attach_observer(recorder)
    for ops in programs:
        program.spawn(_body, shared, ops, mailbox, log)
    if oracle:
        result = run_one_pick_per_event(program.machine, program.bodies)
    else:
        result = program.machine.run(program.bodies)
    return result.to_json(), [r.records for r in recorders], log


@settings(max_examples=100, deadline=None)
@given(
    programs=st.lists(st.lists(_OPS, min_size=0, max_size=14), min_size=1, max_size=4),
    make_spec=st.sampled_from([_small_a, _small_b]),
    per_access=st.booleans(),
)
def test_bursts_match_one_pick_per_event(programs, make_spec, per_access):
    programs = _deadlock_free(programs)
    burst = _run_program(make_spec, programs, oracle=False, per_access=per_access)
    reference = _run_program(make_spec, programs, oracle=True, per_access=per_access)
    assert burst[0] == reference[0]
    assert burst[1] == reference[1]
    assert burst[2] == reference[2]


def test_spinning_wait_hands_back_to_the_other_thread():
    # Thread 1 waits before thread 0 posts: the spin path must re-queue
    # the WAIT and let thread 0 run, exactly as one pick per event does.
    programs = [
        [("compute", 30), ("write", 1, 8, False), ("post", 0), ("compute", 5)],
        [("wait", 0, 0), ("read", 1, 8), ("compute", 3)],
    ]
    for make_spec in (_small_a, _small_b):
        assert _run_program(make_spec, programs, False, True) == _run_program(
            make_spec, programs, True, True
        )


def test_deadlock_raises_like_the_oracle():
    mailbox = Mailbox()
    messages = []
    for oracle in (False, True):
        program = Program(_small_a(), streams=True)

        def body(t):
            yield t.compute(1)
            yield t.wait(mailbox, "never")

        program.spawn(body)
        with pytest.raises(SimulationError) as info:
            if oracle:
                run_one_pick_per_event(program.machine, program.bodies)
            else:
                program.machine.run(program.bodies)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


_ORACLE_WORKLOADS = [
    pytest.param(lambda: X9Workload(messages=200), id="x9"),
    pytest.param(
        lambda: CLHTWorkload(spec=YCSBSpec(num_keys=256, operations=300), threads=3),
        id="kv-clht",
    ),
    pytest.param(lambda: MGWorkload(grid=16, iterations=1, threads=2), id="nas-mg"),
    pytest.param(lambda: Listing2(reads_before_fence=6, iterations=150), id="listing2"),
]


@pytest.mark.parametrize("streams", [True, False], ids=["streams", "reference"])
@pytest.mark.parametrize("make", _ORACLE_WORKLOADS)
def test_workloads_match_one_pick_per_event(make, streams, monkeypatch):
    burst = make().run(machine_b_fast(), streams=streams).run.to_json()
    monkeypatch.setattr(Machine, "run", run_one_pick_per_event)
    reference = make().run(machine_b_fast(), streams=streams).run.to_json()
    assert burst == reference


# -- typed helpers vs the validating constructor ------------------------------


def _outcome(build):
    try:
        return build()
    except SimulationError as exc:
        return ("error", str(exc))


def _helper_cases(t, addr, size, flag_a, flag_b, op, scope, count, mailbox):
    """(helper call, equivalent validating-constructor call) pairs."""
    # Expected provenance straight from the site stack, not the cache.
    stack = t._site_stack
    prov = dict(site=stack[-1] if stack else UNKNOWN_SITE, callchain=tuple(stack[:-1]))
    return [
        (
            lambda: t.read(addr, size, relaxed=flag_a),
            lambda: Event(EventKind.READ, addr=addr, size=size, relaxed=flag_a, **prov),
        ),
        (
            lambda: t.write(addr, size, nontemporal=flag_a, relaxed=flag_b),
            lambda: Event(
                EventKind.WRITE, addr=addr, size=size, nontemporal=flag_a, relaxed=flag_b, **prov
            ),
        ),
        (
            lambda: t.compute(count),
            lambda: Event(EventKind.COMPUTE, size=count, **prov),
        ),
        (
            lambda: t.fence(scope),
            lambda: Event(EventKind.FENCE, fence_scope=scope, **prov),
        ),
        (
            lambda: t.atomic(addr, size),
            lambda: Event(EventKind.ATOMIC, addr=addr, size=size, **prov),
        ),
        (
            lambda: t.prestore(addr, size, op),
            lambda: Event(EventKind.PRESTORE, addr=addr, size=size, op=op, **prov),
        ),
        (
            lambda: t.post(mailbox, ("k", addr)),
            lambda: Event(EventKind.POST, mailbox=mailbox, sync_key=("k", addr), **prov),
        ),
        (
            lambda: t.wait(mailbox, ("k", addr)),
            lambda: Event(EventKind.WAIT, mailbox=mailbox, sync_key=("k", addr), **prov),
        ),
    ]


def _ctx() -> ThreadCtx:
    return ThreadCtx(tid=0, allocator=Allocator(64), line_size=64, seed=1)


@settings(max_examples=200, deadline=None)
@given(
    addr=st.integers(-3, 5000),
    size=st.integers(-3, 600),
    flag_a=st.booleans(),
    flag_b=st.booleans(),
    op=st.sampled_from([None, PrestoreOp.DEMOTE, PrestoreOp.CLEAN]),
    scope=st.sampled_from(["full", "load"]),
    count=st.integers(-2, 9),
    has_mailbox=st.booleans(),
    depth=st.integers(0, 3),
)
def test_helpers_match_validating_constructor(
    addr, size, flag_a, flag_b, op, scope, count, has_mailbox, depth
):
    t = _ctx()
    mailbox = Mailbox() if has_mailbox else None
    blocks = [t.function(f"f{i}", file="helpers.c", line=i) for i in range(depth)]
    for block in blocks:
        block.__enter__()
    for helper, reference in _helper_cases(
        t, addr, size, flag_a, flag_b, op, scope, count, mailbox
    ):
        got, want = _outcome(helper), _outcome(reference)
        assert got == want
        if isinstance(got, Event):
            assert got.site is want.site and got.callchain == want.callchain
    for block in reversed(blocks):
        block.__exit__(None, None, None)


def test_function_blocks_restore_provenance():
    t = _ctx()
    assert t.read(64).site.function == "<unlabelled>"
    with t.function("outer", file="a.c", line=1):
        with t.function("middle", file="a.c", line=2):
            with t.function("inner", file="a.c", line=3):
                event = t.write(128)
                assert event.site.function == "inner"
                assert [s.function for s in event.callchain] == ["outer", "middle"]
            event = t.compute(2)
            assert event.site.function == "middle"
            assert [s.function for s in event.callchain] == ["outer"]
        # A block left by an exception restores its parent's pair.
        with pytest.raises(ValueError):
            with t.function("raises", file="a.c", line=4):
                raise ValueError("boom")
        event = t.fence()
        assert event.site.function == "outer" and event.callchain == ()
    event = t.atomic(64)
    assert event.site.function == "<unlabelled>" and event.callchain == ()


def test_out_of_order_block_exit_follows_the_stack():
    # Two generators sharing one context close their blocks out of
    # order; the cached pair must still describe the site stack.
    t = _ctx()

    def gen(name):
        with t.function(name):
            yield

    a, b = gen("a"), gen("b")
    next(a)
    next(b)
    a.close()  # pops the innermost entry, as the stack always did
    stack = t._site_stack
    assert t._prov == ((stack[-1], tuple(stack[:-1])) if stack else (UNKNOWN_SITE, ()))
    b.close()
    assert t._site_stack == [] and t.current_site is UNKNOWN_SITE
    assert t.read(64).callchain == ()


# -- the profiled path ----------------------------------------------------------


class _Counter:
    """Per-access observer counting the records ``step`` produces."""

    def __init__(self) -> None:
        self.stepped = 0

    def record(self, core_id, event, instr_index, cycles):
        if event.kind is not EventKind.WAIT:  # satisfied WAITs bypass step
            self.stepped += 1


def _profiled_run(make, profile, spec):
    collector = ObsCollector(profile=profile)
    program = Program(spec, tracer=collector, streams=True)
    counter = _Counter()
    program.machine.attach_observer(counter)
    make().spawn(program, PatchConfig.baseline())
    result = program.run()
    return result, counter.stepped, collector, program.machine.path_counts()


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: Listing2(reads_before_fence=8, iterations=120), id="listing2"),
        pytest.param(lambda: X9Workload(messages=120), id="x9"),
    ],
)
def test_profiler_sees_every_single_event(make):
    profiled, stepped, collector, paths = _profiled_run(make, True, machine_b_fast())
    dispatch = collector.profiler.stats()["sim.dispatch"]
    assert stepped > 0
    assert dispatch.count == stepped
    # Stream accesses (Listing 2's strided reads among them) reach the
    # profiler one ``step`` each: the collector has no record_stream.
    assert paths["fused"] == 0 and paths["unrolled"] > 0
    assert stepped >= paths["unrolled"] + paths["single"]
    plain, plain_stepped, _, _ = _profiled_run(make, False, machine_b_fast())
    assert plain_stepped == stepped
    assert profiled.to_json() == plain.to_json()
    # And with no observer at all: same statistics, no timeline.
    bare = make()
    program = Program(machine_b_fast(), streams=True)
    bare.spawn(program, PatchConfig.baseline())
    unobserved = program.run()
    profiled.timeline = None
    assert profiled.to_json() == unobserved.to_json()
