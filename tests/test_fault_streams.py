"""Fault runs on the fused stream path against the unrolled oracle.

A non-empty fault plan keeps the fused stream loops: the injector is the
machine's stream horizon (DESIGN.md §18, "Horizons").  It caps each
fused run at the crash point, bumps store versions on the loops'
per-access hook, and the machine steps the access at the cap.  The
oracle is the reference vocabulary (``streams=False``), where every
access is its own event through the injector's ``step`` wrapper.
Reports (persistent image included) and RunResult bytes must be
identical, wherever the crash lands.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.dirtbuster.trace import FullTracer
from repro.faults import run_with_faults
from repro.faults.plan import BandwidthPhase, CrashPoint, FaultPlan, ReadFault
from repro.faults.workloads import KVPersistWorkload, LogAppendWorkload
from repro.obs.collector import ObsCollector
from repro.sanitize import Sanitizer
from repro.sim.machine import machine_a, machine_b_slow

_WORKLOADS = {
    # Two writers; 320 B values straddle Machine B's 128 B lines.
    "kvpersist": lambda: KVPersistWorkload(keys=16, value_size=320, operations=24, threads=2),
    "logappend": lambda: LogAppendWorkload(record_size=192, records=20),
}
_PRESETS = {"a": machine_a, "b-slow": machine_b_slow}
_MODES = [PrestoreMode.NONE, PrestoreMode.CLEAN, PrestoreMode.SKIP]


def _patches(workload, mode):
    return PatchConfig.uniform(mode, workload.patch_sites())


def _run(workload, preset, plan, mode, streams, tracer=None):
    make = _WORKLOADS[workload]()
    return run_with_faults(
        make, _PRESETS[preset](), plan, patches=_patches(make, mode), seed=3, tracer=tracer,
        streams=streams,
    )


def _result_json(report):
    # Sanitizer findings name CodeSites, whose ips are minted per run.
    text = re.sub(r'"ip": \d+', '"ip": ?', report.result.to_json())
    return re.sub(r"ip=0x[0-9a-f]+", "ip=?", text)


def _assert_identical(workload, preset, plan, mode, make_tracer=lambda: None):
    fast = _run(workload, preset, plan, mode, True, make_tracer())
    reference = _run(workload, preset, plan, mode, False, make_tracer())
    assert fast.to_json(include_image=True) == reference.to_json(include_image=True)
    assert _result_json(fast) == _result_json(reference)
    assert reference.path_counts["fused"] == 0
    return fast


def _extent(workload, preset, mode):
    """Instructions and cycles of the uncrashed run."""
    make = _WORKLOADS[workload]()
    result = make.run(_PRESETS[preset](), _patches(make, mode), seed=3).run
    return result.instructions, result.cycles


@settings(max_examples=40, deadline=None)
@given(
    workload=st.sampled_from(sorted(_WORKLOADS)),
    preset=st.sampled_from(sorted(_PRESETS)),
    mode=st.sampled_from(_MODES),
    crash=st.one_of(
        st.none(),
        st.tuples(st.just("instruction"), st.floats(0.0, 1.05)),
        st.tuples(st.just("cycle"), st.floats(0.0, 1.05)),
    ),
    degraded=st.one_of(st.none(), st.tuples(st.floats(0.0, 0.9), st.floats(0.05, 0.6))),
    read_faults=st.lists(st.integers(1, 60), max_size=3, unique=True),
    adr=st.booleans(),
)
def test_fault_runs_match_unrolled(workload, preset, mode, crash, degraded, read_faults, adr):
    instructions, cycles = _extent(workload, preset, mode)
    point = None
    if crash is not None:
        selector, fraction = crash
        if selector == "instruction":
            point = CrashPoint(at_instruction=int(instructions * fraction))
        else:
            point = CrashPoint(at_cycle=cycles * fraction)
    phases = ()
    if degraded is not None:
        start, length = degraded
        phases = (BandwidthPhase(cycles * start, cycles * (start + length), 6.0),)
    plan = FaultPlan(
        crash=point,
        read_faults=tuple(ReadFault(n, 300.0) for n in read_faults),
        bandwidth_phases=phases,
        combiner_persistent=adr,
    )
    if plan.is_empty():
        plan = FaultPlan(crash=CrashPoint(at_instruction=instructions + 1))
    fast = _assert_identical(workload, preset, plan, mode)
    # No observer: every stream access ran fused, the crash included.
    assert fast.path_counts["unrolled"] == 0


@pytest.mark.parametrize("mode", _MODES, ids=lambda m: m.value)
def test_crash_at_every_instruction_of_the_first_records(mode):
    # Records are 3-line streams: most of these points fall inside one.
    for at in range(0, 16):
        plan = FaultPlan(crash=CrashPoint(at_instruction=at))
        fast = _assert_identical("logappend", "a", plan, mode)
        assert fast.crashed and fast.crash_instruction == at
        assert fast.path_counts["unrolled"] == 0


def test_observed_fault_runs_match_unrolled():
    plan = FaultPlan(
        crash=CrashPoint(at_instruction=57),
        bandwidth_phases=(BandwidthPhase(2000.0, 9000.0, 4.0),),
        read_faults=(ReadFault(4),),
    )
    # The obs collector and the sanitizer take per-access records, so
    # their streams unroll through ``step``.
    for make_tracer in (ObsCollector, Sanitizer):
        fast = _assert_identical("kvpersist", "a", plan, PrestoreMode.CLEAN, make_tracer)
        assert fast.crashed and fast.path_counts["fused"] == 0
    # A FullTracer takes fused runs in bulk: the horizon's version bumps
    # and the tracer's clocks share the per-access hook.
    tracers = {streams: FullTracer() for streams in (True, False)}
    reports = {
        streams: _run("kvpersist", "b-slow", plan, PrestoreMode.SKIP, streams, tracer)
        for streams, tracer in tracers.items()
    }
    assert reports[True].to_json(include_image=True) == reports[False].to_json(
        include_image=True
    )
    assert reports[True].result.to_json() == reports[False].result.to_json()
    assert reports[True].path_counts["unrolled"] == 0 < reports[True].path_counts["fused"]
    # Both tracers really observed the run, up to the crash.
    assert len(tracers[True]) == len(tracers[False]) > 0

    def key(record):
        return record.instr_index, record.core_id, record.kind, record.addr, record.size

    assert [key(r) for r in tracers[True].trace] == [key(r) for r in tracers[False].trace]
