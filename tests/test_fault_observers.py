"""Observers of a crashed faulted run: its fault markers and findings.

A crash ends the run through ``Machine.abort``, which runs every
observer's ``finish`` hook: the sanitizer publishes its findings on
``RunResult.diagnostics`` there.  The harness then mirrors the plan's
fault events into an obs collector's trace as ``fault.*`` instants.
"""

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.dirtbuster.trace import FullTracer
from repro.faults import run_with_faults
from repro.faults.plan import FaultPlan
from repro.faults.workloads import KVPersistWorkload
from repro.obs.collector import ObsCollector
from repro.sanitize import Sanitizer
from repro.sim.machine import machine_b_fast

_CRASH_AT = 60


def _crashed(tracer):
    workload = KVPersistWorkload(keys=16, value_size=320, operations=24, threads=2)
    patches = PatchConfig.uniform(PrestoreMode.SKIP, workload.patch_sites())
    report = run_with_faults(
        workload,
        machine_b_fast(),
        FaultPlan.crash_at(_CRASH_AT),
        patches=patches,
        seed=3,
        tracer=tracer,
    )
    assert report.crashed and report.crash_instruction == _CRASH_AT
    return report


def test_obs_collector_trace_carries_the_crash_instant():
    collector = ObsCollector()
    report = _crashed(collector)
    events = collector.trace.to_dict()["traceEvents"]
    crashes = [e for e in events if e["name"] == "fault.crash"]
    assert len(crashes) == 1
    assert crashes[0]["ph"] == "i" and crashes[0]["cat"] == "fault"
    assert crashes[0]["ts"] == report.crash_cycle
    assert "power failure" in crashes[0]["args"]["detail"]
    # The collector's own finish hook ran on the aborted run as well.
    assert report.result.timeline is not None


def test_sanitizer_findings_survive_the_crash():
    sanitizer = Sanitizer()
    result = _crashed(sanitizer).result
    found = [
        (d.rule, d.severity, d.count, d.cache_line, d.core_id, d.instr_index, d.site.function)
        for d in result.diagnostics
    ]
    # Skip pre-stores on lines each writer rewrites within a few
    # instructions: Listing 3's hot-rewrite error, once per thread.
    assert found == [
        ("prestore.hot-rewrite", "error", 15, 8200, 0, 1, "kv_put"),
        ("prestore.hot-rewrite", "error", 16, 8225, 1, 1, "kv_put"),
    ]
    assert result.diagnostics == sanitizer.diagnostics()


def test_full_tracer_observes_without_fault_markers():
    # FullTracer.trace is a columnar access trace, not a TraceBuilder:
    # the harness writes no instants into it, and the run still completes.
    tracer = FullTracer()
    report = _crashed(tracer)
    assert len(tracer) == report.result.instructions == _CRASH_AT
    assert report.result.diagnostics == []
