"""repro.crashcheck: the static verifier's model against the simulator.

The load-bearing properties: extracted instruction indices are bit-exact
against the dynamic fault injector (single-threaded), each pre-store
mode classifies as the protocol semantics dictate, and the protocol
rules (missing fence, narrow fence, redundant flush) fire on the exact
shapes they describe.
"""

from __future__ import annotations

import json
from typing import Iterator, Sequence

import pytest

from repro.core.prestore import PatchConfig, PatchSite, PrestoreMode, PrestoreOp
from repro.crashcheck import check_workload, extract_ir
from repro.crashcheck.verify import GUARANTEED, ORDERING, POSSIBLY_LOST
from repro.errors import Diagnostic
from repro.faults.harness import run_with_faults
from repro.faults.plan import FaultPlan
from repro.faults.recovery import DurabilityLog
from repro.sim.event import Event
from repro.workloads.base import Workload
from repro.workloads.memapi import Program, ThreadCtx


def _small_kv(**kwargs):
    from repro.faults.workloads import KVPersistWorkload

    params = dict(keys=8, value_size=256, operations=12)
    params.update(kwargs)
    return KVPersistWorkload(**params)


def _small_log():
    from repro.faults.workloads import LogAppendWorkload

    return LogAppendWorkload(record_size=256, records=12)


class ProtocolProbe(Workload):
    """One write + configurable persist/fence tail, then one ack.

    ``fence`` is "full", "load", or None; ``double_clean`` issues the
    clean twice (the redundant-flush shape).
    """

    name = "protocol-probe"

    def __init__(self, fence: "str | None" = "full", double_clean: bool = False) -> None:
        self.fence = fence
        self.double_clean = double_clean
        self.durability_log = DurabilityLog()

    def patch_sites(self) -> Sequence[PatchSite]:
        return ()

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        program.spawn(self._body, program)

    def _body(self, t: ThreadCtx, program: Program) -> Iterator[Event]:
        region = t.alloc(t.line_size, label="probe")
        addr = region.addr(0)
        yield t.write(addr, t.line_size)
        yield t.prestore(addr, t.line_size, PrestoreOp.CLEAN)
        if self.double_clean:
            yield t.prestore(addr, t.line_size, PrestoreOp.CLEAN)
        if self.fence == "full":
            yield t.fence()
        elif self.fence == "load":
            yield t.fence(scope="load")
        self.durability_log.ack("op", [addr // t.line_size], program.machine.device)
        program.add_work(1)


# -- index exactness against the dynamic injector -------------------------------


def test_ack_boundaries_match_dynamic_log(tiny_machine_a) -> None:
    """A crash planned at a static boundary sees exactly the acks the IR
    predicts before it — the alignment the whole differential rests on."""
    static = check_workload(_small_kv(), tiny_machine_a, mode=PrestoreMode.CLEAN)
    assert static.exact_indices
    target = static.acks[len(static.acks) // 2]
    workload = _small_kv()
    plan = FaultPlan.crash_at(target.boundary)
    patches = PatchConfig.uniform(PrestoreMode.CLEAN, workload.patch_sites())
    report = run_with_faults(workload, tiny_machine_a, plan, patches=patches)
    assert report.crashed
    records = workload.durability_log.records
    expected = [a for a in static.acks if a.boundary <= (report.crash_instruction or 0)]
    assert len(records) == len(expected)
    assert [r.key for r in records] == [a.key for a in expected]


def test_extracted_versions_match_injector(tiny_machine_a) -> None:
    """Static acks pin the same per-line store versions a faulted run's
    FaultDevice records."""
    workload = _small_kv()
    patches = PatchConfig.uniform(PrestoreMode.NONE, workload.patch_sites())
    ir = extract_ir(workload, tiny_machine_a, patches=patches)
    dynamic = _small_kv()
    plan = FaultPlan.crash_at(ir.instr_total + 1)  # never fires: full run
    run_with_faults(dynamic, tiny_machine_a, plan, patches=patches)
    static_records = [a.record for a in ir.acks]
    dynamic_records = dynamic.durability_log.records
    assert len(static_records) == len(dynamic_records)
    for ours, theirs in zip(static_records, dynamic_records):
        assert ours.key == theirs.key
        assert ours.lines == theirs.lines
        assert ours.versions == theirs.versions


# -- per-mode classification ------------------------------------------------------


@pytest.mark.parametrize("factory", [_small_kv, _small_log])
def test_mode_classifications(tiny_machine_a, factory) -> None:
    expectations = {
        PrestoreMode.NONE: (POSSIBLY_LOST, "crashcheck.acked-before-persist"),
        PrestoreMode.CLEAN: (GUARANTEED, None),
        PrestoreMode.DEMOTE: (POSSIBLY_LOST, "crashcheck.missing-clwb"),
        PrestoreMode.SKIP: (GUARANTEED, None),
    }
    for mode, (status, rule) in expectations.items():
        report = check_workload(factory(), tiny_machine_a, mode=mode)
        assert report.acks, mode
        assert all(a.status == status for a in report.acks), mode
        if rule is None:
            assert not report.has_errors(), mode
        else:
            assert any(
                d.rule == rule and d.severity == "error" for d in report.diagnostics
            ), mode


def test_demote_flags_not_durable(tiny_machine_a) -> None:
    report = check_workload(_small_kv(), tiny_machine_a, mode=PrestoreMode.DEMOTE)
    rules = {d.rule for d in report.diagnostics}
    assert "crashcheck.demote-not-durable" in rules


def test_media_only_domain(tiny_machine_a) -> None:
    """Without ADR every ack is possibly-lost with a window open to the
    program end, even under the safe protocol."""
    report = check_workload(_small_kv(), tiny_machine_a, mode=PrestoreMode.CLEAN, adr=False)
    assert all(a.status == POSSIBLY_LOST for a in report.acks)
    assert all(a.window is not None and a.window[1] is None for a in report.acks)
    assert any(d.rule == "crashcheck.media-domain" for d in report.diagnostics)


def test_vulnerable_windows_cover_boundary(tiny_machine_a) -> None:
    report = check_workload(_small_kv(), tiny_machine_a, mode=PrestoreMode.NONE)
    for ack in report.vulnerable():
        assert ack.window_contains(ack.boundary)
        assert not ack.window_contains(ack.boundary - 1)


# -- protocol rules on the exact shapes they describe ------------------------------


def test_missing_fence_is_ordering_violation(tiny_machine_a) -> None:
    report = check_workload(ProtocolProbe(fence=None), tiny_machine_a)
    (ack,) = report.acks
    assert ack.status == ORDERING
    assert "crashcheck.missing-fence" in ack.rules
    assert not report.has_errors()  # warning: the simulator can't lose it


def test_load_fence_scope_too_narrow(tiny_machine_a) -> None:
    report = check_workload(ProtocolProbe(fence="load"), tiny_machine_a)
    (ack,) = report.acks
    assert ack.status == ORDERING
    assert "crashcheck.fence-scope-too-narrow" in ack.rules
    assert any(
        d.rule == "crashcheck.fence-scope-too-narrow" and d.severity == "warning"
        for d in report.diagnostics
    )


def test_full_fence_is_guaranteed(tiny_machine_a) -> None:
    report = check_workload(ProtocolProbe(fence="full"), tiny_machine_a)
    (ack,) = report.acks
    assert ack.status == GUARANTEED
    assert not report.diagnostics


def test_redundant_flush_reported(tiny_machine_a) -> None:
    report = check_workload(ProtocolProbe(fence="full", double_clean=True), tiny_machine_a)
    (ack,) = report.acks
    assert ack.status == GUARANTEED  # still correct, just wasteful
    assert any(d.rule == "crashcheck.redundant-flush" for d in report.diagnostics)


# -- serialisation and the stream vocabulary ---------------------------------------


def test_report_json_round_trip(tiny_machine_a) -> None:
    report = check_workload(_small_kv(), tiny_machine_a, mode=PrestoreMode.DEMOTE)
    doc = json.loads(report.to_json())
    assert doc["workload"] == "kvpersist"
    assert doc["counts"][POSSIBLY_LOST] == len(report.acks)
    assert len(doc["acks"]) == len(report.acks)
    for diag_doc, diag in zip(doc["diagnostics"], report.diagnostics):
        assert Diagnostic.from_dict(diag_doc) == diag


def test_stream_vocabulary_is_equivalent(tiny_machine_a) -> None:
    """The batched STREAM vocabulary must not change the verdicts: the
    extractor unrolls streams exactly as a fault-injected machine does."""
    for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN):
        unrolled = check_workload(_small_kv(), tiny_machine_a, mode=mode, streams=False)
        batched = check_workload(_small_kv(), tiny_machine_a, mode=mode, streams=True)
        assert [a.to_dict() for a in unrolled.acks] == [a.to_dict() for a in batched.acks]
        assert unrolled.instr_total == batched.instr_total


def test_multithreaded_extraction_is_approximate(tiny_machine_a) -> None:
    report = check_workload(
        _small_kv(keys=8, threads=2, operations=8), tiny_machine_a, mode=PrestoreMode.CLEAN
    )
    assert not report.exact_indices
    assert report.threads == 2
    assert any(d.rule == "crashcheck.approximate-indices" for d in report.diagnostics)
