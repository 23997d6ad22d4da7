"""Unit tests for the Workload contract and experiment plumbing."""

import pytest

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.errors import WorkloadError
from repro.experiments.common import MANUAL_MISUSE_SITES, endorsed_patches
from repro.runner import Cell, execute_cells
from repro.runner.cells import cache_key
from repro.workloads.microbench import Listing1
from repro.workloads.nas import FTWorkload


class TestWorkloadContract:
    def test_site_lookup(self):
        workload = Listing1()
        assert workload.site("listing1.element").function == "listing1_loop"
        with pytest.raises(WorkloadError):
            workload.site("nope")

    def test_run_reports_patch_summary(self, tiny_machine_a):
        workload = Listing1(element_size=256, num_elements=64, iterations=50)
        result = workload.run(
            tiny_machine_a, PatchConfig({"listing1.element": PrestoreMode.CLEAN})
        )
        assert "listing1.element=clean" in result.patch_summary
        baseline = Listing1(element_size=256, num_elements=64, iterations=50).run(
            tiny_machine_a
        )
        assert baseline.patch_summary == "baseline"

    def test_same_seed_is_deterministic(self, tiny_machine_a):
        def cycles():
            w = Listing1(element_size=256, num_elements=64, iterations=100)
            return w.run(tiny_machine_a, seed=77).run.cycles

        assert cycles() == cycles()

    def test_different_seed_differs(self, tiny_machine_a):
        def cycles(seed):
            w = Listing1(element_size=256, num_elements=64, iterations=100)
            return w.run(tiny_machine_a, seed=seed).run.cycles

        assert cycles(1) != cycles(2)


class TestExperimentPatching:
    def test_patch_all_sites(self):
        workload = FTWorkload()
        config = PatchConfig.uniform(PrestoreMode.CLEAN, workload.patch_sites())
        assert config.mode("ft.cffts1") is PrestoreMode.CLEAN
        assert config.mode("ft.fftz2") is PrestoreMode.CLEAN

    def test_uniform_patches_are_not_the_baseline(self, tiny_machine_a):
        # Every site is set explicitly, so a run names them in its patch
        # summary and a cell carrying the config gets its own cache key.
        (site,) = Listing1().patch_sites()
        patches = PatchConfig.uniform(PrestoreMode.CLEAN, [site])
        run = Listing1(iterations=20).run(tiny_machine_a, patches, seed=3)
        assert run.patch_summary == f"{site.name}=clean"

        def key(config):
            return cache_key(Cell(Listing1, tiny_machine_a, mode=None, patches=config))

        assert key(patches) != key(PatchConfig.baseline())

    def test_endorsed_patches_skip_misuse_sites(self):
        workload = FTWorkload()
        config = endorsed_patches(workload, PrestoreMode.CLEAN)
        assert config.mode("ft.cffts1") is PrestoreMode.CLEAN
        assert config.mode("ft.fftz2") is PrestoreMode.NONE
        assert "ft.fftz2" in MANUAL_MISUSE_SITES

    def test_execute_cells_covers_modes(self, tiny_machine_a):
        modes = (PrestoreMode.NONE, PrestoreMode.CLEAN, PrestoreMode.SKIP)
        factory = lambda: Listing1(element_size=256, num_elements=64, iterations=60)  # noqa: E731
        outcomes = execute_cells([Cell(factory, tiny_machine_a, mode) for mode in modes])
        assert [o.cell.mode for o in outcomes] == list(modes)
        assert all(o.ok and o.result.cycles > 0 for o in outcomes)
