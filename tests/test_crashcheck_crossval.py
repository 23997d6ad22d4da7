"""Cross-validation harness, the static check of a tuner candidate, and the
AutoTuner on a statically unsafe candidate."""

from __future__ import annotations

import json

import pytest

from repro.core.autotune import MIN_SPEEDUP, AutoTuner
from repro.core.prestore import PatchConfig, PrestoreMode
from repro.crashcheck import check_workload, cross_validate
from repro.crashcheck.cli import run_self_check
from repro.faults.workloads import KVPersistWorkload
from repro.runner.cells import Cell, run_cell


def _kv_factory():
    return KVPersistWorkload(keys=8, value_size=256, operations=10)


@pytest.mark.parametrize(
    "mode,adr",
    [
        (PrestoreMode.NONE, True),
        (PrestoreMode.CLEAN, True),
        (PrestoreMode.CLEAN, False),
        (PrestoreMode.DEMOTE, True),
    ],
)
def test_cross_validate_agrees(tiny_machine_a, mode, adr) -> None:
    result = cross_validate(
        _kv_factory, tiny_machine_a, mode=mode, adr=adr, max_probes=3, fractions=(0.5,)
    )
    assert result["mismatches"] == []
    assert result["ok"]
    assert result["dynamic_runs"] > 0
    if mode is not PrestoreMode.CLEAN or not adr:
        assert result["probes"] > 0  # vulnerable windows were actually probed


def test_cross_validate_is_json_stable(tiny_machine_a) -> None:
    result = cross_validate(
        _kv_factory, tiny_machine_a, mode=PrestoreMode.NONE, max_probes=2, fractions=(0.5,)
    )
    assert json.loads(json.dumps(result)) == result


def test_fast_self_check_passes() -> None:
    assert run_self_check(fast=True) == 0


# -- AutoTuner --------------------------------------------------------------------


class _FakeRecommendation:
    wants_prestore = True
    fallback = None

    def __init__(self, choice: PrestoreMode) -> None:
        self.choice = choice


class _FakeReport:
    def __init__(self, choice: PrestoreMode) -> None:
        self._choice = choice

    def recommendation_for(self, function: str):
        return _FakeRecommendation(self._choice)


class _FakeDirtBuster:
    """Recommends one fixed mode for every function — lets the tests
    steer the tuner into a known-bad (demote) candidate."""

    def __init__(self, choice: PrestoreMode) -> None:
        self._choice = choice

    def analyze(self, workload, spec, seed=1234):
        return _FakeReport(self._choice)


def _new_errors(spec, patches):
    """Error-severity findings of ``patches`` whose (rule, site) the baseline lacks."""
    base = check_workload(_kv_factory(), spec, patches=PatchConfig.baseline())
    candidate = check_workload(_kv_factory(), spec, patches=patches)
    known = {d.key for d in base.diagnostics}
    return [d for d in candidate.diagnostics if d.severity == "error" and d.key not in known]


def test_gate_rejects_durability_regressions(tiny_machine_a) -> None:
    """The static check tells a candidate that drops durability from one that keeps it."""
    tuner = AutoTuner()
    probe = _kv_factory()
    demote = _new_errors(
        tiny_machine_a, tuner.patches_for(probe, _FakeReport(PrestoreMode.DEMOTE))
    )
    assert demote
    assert {d.rule for d in demote} >= {"crashcheck.missing-clwb"}
    clean = _new_errors(tiny_machine_a, tuner.patches_for(probe, _FakeReport(PrestoreMode.CLEAN)))
    assert clean == []


def test_gate_allows_safe_candidate_through(tiny_machine_a) -> None:
    """A statically clean candidate is measured and judged on speed."""
    tuner = AutoTuner(dirtbuster=_FakeDirtBuster(PrestoreMode.CLEAN))
    result = tuner.tune(_kv_factory, tiny_machine_a)
    assert result.patched is not None
    assert result.kept == (result.speedup >= MIN_SPEEDUP)
    candidate = tuner.patches_for(_kv_factory(), _FakeReport(PrestoreMode.CLEAN))
    assert _new_errors(tiny_machine_a, candidate) == []


def test_tune_without_gate_still_measures(tiny_machine_a) -> None:
    """The tuner measures a candidate that drops durability; speed alone decides."""
    tuner = AutoTuner(dirtbuster=_FakeDirtBuster(PrestoreMode.DEMOTE))
    result = tuner.tune(_kv_factory, tiny_machine_a)
    assert result.patched is not None
    assert result.kept == (result.speedup >= MIN_SPEEDUP)


# -- crash-check report beside a cell ----------------------------------------------


def test_cell_crashcheck_report(tiny_machine_a) -> None:
    """The static report for a cell's configuration comes from a fresh instance."""
    cell = Cell(
        make_workload=_kv_factory,
        spec=tiny_machine_a,
        mode=PrestoreMode.CLEAN,
        endorsed_only=False,
    )
    report = check_workload(cell.make_workload(), cell.spec, mode=cell.mode, seed=cell.seed)
    doc = report.to_dict()
    assert doc["counts"]["guaranteed-durable"] == len(doc["acks"]) > 0
    assert doc["adr"] is True


def test_cell_without_crashcheck_has_no_report(tiny_machine_a) -> None:
    cell = Cell(make_workload=_kv_factory, spec=tiny_machine_a, mode=PrestoreMode.CLEAN)
    doc = json.loads(run_cell(cell).result_json)
    assert "crashcheck_report" not in doc.get("extra", {})
