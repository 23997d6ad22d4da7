"""Smoke and behaviour tests for the remaining workload ports."""

import pytest

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.errors import WorkloadError
from repro.workloads.microbench import Listing1, Listing2, Listing3
from repro.workloads.nas import (
    ALL_NAS,
    FTWorkload,
    ISWorkload,
    LUWorkload,
    MGWorkload,
)
from repro.workloads.phoronix import PHORONIX_APPS, ReadMostlyWorkload
from repro.workloads.registry import WORKLOAD_FACTORIES, make_workload
from repro.workloads.tensorflow_sim import TensorFlowWorkload
from repro.workloads.x9 import X9Workload


class TestMicrobenchmarks:
    def test_listing1_parameter_validation(self):
        with pytest.raises(WorkloadError):
            Listing1(element_size=0)

    def test_listing1_clean_eliminates_wa(self, tiny_machine_a):
        runs = {}
        for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN):
            w = Listing1(element_size=1024, num_elements=256, iterations=400, threads=2)
            runs[mode] = w.run(tiny_machine_a, PatchConfig({w.SITE.name: mode})).run
        assert runs[PrestoreMode.CLEAN].write_amplification == pytest.approx(1.0, abs=0.1)
        assert runs[PrestoreMode.NONE].write_amplification > 1.5

    def test_listing2_demote_helps_with_window(self, tiny_machine_b):
        runs = {}
        for mode in (PrestoreMode.NONE, PrestoreMode.DEMOTE):
            w = Listing2(reads_before_fence=20, iterations=400)
            runs[mode] = w.run(tiny_machine_b, PatchConfig({w.SITE.name: mode})).run
        assert runs[PrestoreMode.DEMOTE].cycles < runs[PrestoreMode.NONE].cycles

    def test_listing3_clean_is_catastrophic(self, tiny_machine_a):
        runs = {}
        for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN):
            w = Listing3(iterations=1000)
            runs[mode] = w.run(tiny_machine_a, PatchConfig({w.SITE.name: mode})).run
        assert runs[PrestoreMode.CLEAN].cycles > 10 * runs[PrestoreMode.NONE].cycles


class TestNAS:
    @pytest.mark.parametrize("cls", ALL_NAS, ids=lambda c: c.name)
    def test_kernels_run(self, cls, tiny_machine_a):
        workload = cls(grid=8, iterations=1, threads=2)
        result = workload.run(tiny_machine_a, PatchConfig.baseline())
        assert result.run.cycles > 0
        assert result.run.instructions > 0

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            MGWorkload(grid=1)
        with pytest.raises(WorkloadError):
            MGWorkload(flops_per_point=0)

    def test_mg_patch_sites(self):
        names = {s.name for s in MGWorkload().patch_sites()}
        assert names == {"mg.resid", "mg.psinv"}

    def test_ft_cleaning_fftz2_hurts(self, tiny_machine_a):
        base = FTWorkload(grid=12, iterations=1, threads=2).run(
            tiny_machine_a, PatchConfig.baseline()
        )
        bad = FTWorkload(grid=12, iterations=1, threads=2).run(
            tiny_machine_a, PatchConfig({"ft.fftz2": PrestoreMode.CLEAN})
        )
        assert bad.run.cycles_with_drain > 1.2 * base.run.cycles_with_drain

    def test_is_writes_are_scattered(self, tiny_machine_a):
        """IS must show high write amplification (random bucket writes)."""
        result = ISWorkload(grid=12, iterations=1, threads=2).run(
            tiny_machine_a, PatchConfig.baseline()
        )
        assert result.run.write_amplification > 2.0


class TestTensorFlow:
    def test_runs_and_counts_iterations(self, tiny_machine_a):
        w = TensorFlowWorkload(batch_size=4, iterations=2, threads=2, large_tensor_kb=16)
        result = w.run(tiny_machine_a, PatchConfig.baseline())
        assert result.run.work_items == 2 * 2  # iterations x threads

    def test_clean_beats_skip(self, tiny_machine_a):
        runs = {}
        for mode in (PrestoreMode.CLEAN, PrestoreMode.SKIP):
            w = TensorFlowWorkload(batch_size=8, iterations=1, threads=2, large_tensor_kb=32)
            runs[mode] = w.run(tiny_machine_a, PatchConfig({w.SITE.name: mode})).run
        assert (
            runs[PrestoreMode.CLEAN].cycles_with_drain
            <= runs[PrestoreMode.SKIP].cycles_with_drain
        )


class TestX9:
    def test_messages_all_delivered(self, tiny_machine_b):
        w = X9Workload(messages=200)
        result = w.run(tiny_machine_b, PatchConfig.baseline())
        assert result.run.work_items == 200

    def test_demote_reduces_latency(self, tiny_machine_b):
        runs = {}
        for mode in (PrestoreMode.NONE, PrestoreMode.DEMOTE):
            w = X9Workload(messages=300)
            runs[mode] = w.run(tiny_machine_b, PatchConfig({w.SITE.name: mode})).run
        assert runs[PrestoreMode.DEMOTE].cycles < runs[PrestoreMode.NONE].cycles


class TestPhoronixAndRegistry:
    def test_suite_covers_table2_rows(self):
        assert len(PHORONIX_APPS) == 10
        assert all(make_workload(name).flavour == flavour for name, flavour in PHORONIX_APPS)

    def test_flavour_validation(self):
        with pytest.raises(WorkloadError):
            ReadMostlyWorkload("x", flavour="gpu")

    def test_read_mostly_is_read_mostly(self, tiny_machine_a):
        w = ReadMostlyWorkload("pytorch", "stream", scale=200)
        result = w.run(tiny_machine_a, PatchConfig.baseline())
        stores = sum(c.writes for c in result.run.cores)
        loads = sum(c.reads for c in result.run.cores)
        assert stores < 0.1 * loads

    def test_make_workload_by_name(self):
        assert make_workload("listing1").name == "listing1"
        assert make_workload("pytorch").name == "pytorch"
        with pytest.raises(WorkloadError):
            make_workload("doom")

    def test_registry_holds_table2_roster(self):
        from repro.experiments.table2_classification import EXPECTED_TABLE2

        # Every Table 2 application is registered, each under its own name.
        assert set(EXPECTED_TABLE2) <= set(WORKLOAD_FACTORIES)
        assert all(make_workload(name).name == name for name in WORKLOAD_FACTORIES)
