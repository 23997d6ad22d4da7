"""ServingWorkload: latency accounting, determinism, fault composition."""

import functools
import json

import pytest

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.errors import WorkloadError
from repro.faults.harness import run_with_faults
from repro.faults.plan import FaultPlan
from repro.runner import Cell, execute_cells
from repro.sim.machine import machine_a
from repro.traffic.arrivals import ArrivalSpec
from repro.traffic.serving import ServingWorkload, latency_bounds
from repro.workloads.kv.ycsb import YCSBSpec

SLO = 10_000.0


def _spec(operations=300, num_keys=128, value_size=256):
    return YCSBSpec(mix="A", num_keys=num_keys, operations=operations, value_size=value_size)


def _workload(**kwargs):
    defaults = dict(
        spec=_spec(),
        clients=2,
        arrival=ArrivalSpec(rate_per_kcycle=0.25),
        slo_cycles=SLO,
    )
    defaults.update(kwargs)
    return ServingWorkload(**defaults)


#: Picklable factory for the worker-count identity test.
_FACTORY = functools.partial(
    ServingWorkload,
    spec=_spec(),
    clients=2,
    arrival=ArrivalSpec(rate_per_kcycle=0.25),
    slo_cycles=SLO,
)


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(WorkloadError):
            _workload(clients=0)
        with pytest.raises(WorkloadError):
            _workload(store="rocksdb")
        with pytest.raises(WorkloadError):
            _workload(slo_cycles=0.0)

    def test_rejects_more_clients_than_cores(self):
        workload = _workload(clients=64)
        with pytest.raises(WorkloadError):
            workload.run(machine_a(), PatchConfig.baseline(), seed=1)

    def test_latency_bounds_reject_nonpositive_slo(self):
        with pytest.raises(WorkloadError):
            latency_bounds(0.0)
        bounds = latency_bounds(SLO)
        assert bounds == tuple(sorted(bounds))
        assert SLO in bounds


class TestServingExtras:
    def test_result_reports_latency_slo_and_durability(self):
        workload = _workload()
        result = workload.run(machine_a(), PatchConfig.baseline(), seed=7).run
        serving = result.extra["serving"]
        assert serving["ops_scheduled"] == 300
        assert serving["ops_completed"] == 300
        assert serving["latency_p50"] > 0
        assert serving["latency_p50"] <= serving["latency_p99"] <= serving["latency_p999"]
        assert serving["latency_p999"] <= serving["latency_max"]
        assert serving["slo_cycles"] == SLO
        assert serving["slo_violations"] >= 0
        assert serving["slo_violation_rate"] is not None
        assert serving["acked_writes"] > 0
        hist = serving["histogram"]
        assert hist["bounds"] == list(latency_bounds(SLO))
        assert sum(hist["counts"]) == 300
        # The whole extra must survive the canonical JSON round-trip.
        json.loads(result.to_json())

    def test_fast_path_bit_identical_to_reference(self):
        fast = _workload().run(
            machine_a(), PatchConfig.baseline(), seed=11, streams=True
        ).run
        reference = _workload().run(
            machine_a(), PatchConfig.baseline(), seed=11, streams=False
        ).run
        assert fast.to_json() == reference.to_json()

    def test_reference_env_var_matches_fast_path(self, monkeypatch):
        fast = _workload().run(machine_a(), PatchConfig.baseline(), seed=13).run
        monkeypatch.setenv("REPRO_SIM_REFERENCE", "1")
        reference = _workload().run(machine_a(), PatchConfig.baseline(), seed=13).run
        assert fast.to_json() == reference.to_json()

    def test_fresh_instances_reproduce(self):
        a = _workload().run(machine_a(), PatchConfig.baseline(), seed=5).run
        b = _workload().run(machine_a(), PatchConfig.baseline(), seed=5).run
        assert a.to_json() == b.to_json()
        c = _workload().run(machine_a(), PatchConfig.baseline(), seed=6).run
        assert a.to_json() != c.to_json()


class TestWorkerCountIdentity:
    def test_results_identical_at_any_worker_count(self):
        cells = [
            Cell(_FACTORY, machine_a(), mode, seed=21)
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
        ]
        serial = execute_cells(cells, workers=1)
        pooled = execute_cells(cells, workers=2)
        assert [o.result_json for o in serial] == [o.result_json for o in pooled]


class TestFaultComposition:
    def _crash_plan(self, workload):
        horizon = workload.arrival.expected_horizon_cycles(workload.spec.operations)
        return FaultPlan.crash_at_cycle(0.6 * horizon)

    def test_crash_under_none_loses_acked_writes(self):
        workload = _workload()
        report = run_with_faults(
            workload,
            machine_a(),
            self._crash_plan(workload),
            patches=PatchConfig.baseline(),
            seed=31,
        )
        assert report.crashed
        serving = report.result.extra["serving"]
        assert 0 < serving["ops_completed"] < 300
        assert serving["acked_writes"] > 0
        assert report.recovery is not None
        assert report.recovery["lost_count"] > 0  # the unsafe-ack window

    def test_crash_under_clean_loses_nothing(self):
        from repro.experiments.common import endorsed_patches

        workload = _workload()
        report = run_with_faults(
            workload,
            machine_a(),
            self._crash_plan(workload),
            patches=endorsed_patches(workload, PrestoreMode.CLEAN),
            seed=31,
        )
        assert report.crashed
        assert report.result.extra["serving"]["acked_writes"] > 0
        assert report.recovery is not None
        assert report.recovery["ok"]
        assert report.recovery["lost_count"] == 0


class TestFaultPlanCells:
    def test_plan_cells_crash_and_plain_cells_do_not(self):
        workload = _FACTORY()
        horizon = workload.arrival.expected_horizon_cycles(workload.spec.operations)
        plan = FaultPlan.crash_at_cycle(0.6 * horizon)
        cells = [
            Cell(_FACTORY, machine_a(), PrestoreMode.NONE, seed=seed, fault_plan=fault_plan)
            for fault_plan in (None, plan)
            for seed in (1, 2)
        ]
        outcomes = execute_cells(cells, workers=2, on_error="raise")
        assert [o.cell.fault_plan for o in outcomes] == [None, None, plan, plan]
        reports = [o.result.extra.get("fault_report") for o in outcomes]
        assert reports[:2] == [None, None]
        assert all(report["crashed"] for report in reports[2:])
        assert all(o.result.extra["serving"]["ops_completed"] == 300 for o in outcomes[:2])
        assert all(o.result.extra["serving"]["ops_completed"] < 300 for o in outcomes[2:])
        # The plan is part of the cell's identity: same seed, different bytes.
        assert outcomes[0].result_json != outcomes[2].result_json
