"""Unit tests for the experiment framework and the cheap experiments."""

import functools

import pytest

import repro.runner
from repro.core.prestore import PrestoreMode
from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.registry import (
    Experiment,
    ExperimentResult,
    SeriesRow,
    all_ids,
    get,
    register,
    run_all,
)
from repro.runner import Cell, cache_key
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1

PAPER_IDS = {
    "table1",
    "table2",
    "fig3",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "x9",
    "listing3",
    "sec741",
    "sec742",
}

ABLATION_IDS = {"abl-replacement", "abl-combiner", "abl-ycsb-mixes", "abl-granularity"}

#: Beyond-the-paper artifacts (ROADMAP extensions) that register too.
EXTRA_IDS = {"faults-window", "serve"}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(all_ids()) == PAPER_IDS | ABLATION_IDS | EXTRA_IDS

    def test_get_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get("fig99")

    def test_duplicate_registration_rejected(self):
        class Dup(Experiment):
            id = "table1"

            def run(self, fast=True, seed=1234):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ExperimentError):
            register(Dup)

    def test_registration_outside_the_home_module_rejected(self, monkeypatch):
        monkeypatch.delitem(registry._REGISTRY, "table1", raising=False)

        class Elsewhere(Experiment):
            id = "table1"

        with pytest.raises(ExperimentError, match="belongs to repro.experiments.table1_devices"):
            register(Elsewhere)
        assert "table1" not in registry._REGISTRY

    def test_non_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            register(dict)

    def test_all_experiments_have_claims(self):
        for eid in all_ids():
            exp = get(eid)
            assert exp.title and exp.paper_claim


class TestResultHelpers:
    def _result(self):
        rows = [
            SeriesRow({"x": 1}, {"y": 2.0}),
            SeriesRow({"x": 2}, {"y": 4.0}),
        ]
        return ExperimentResult("t", "title", "claim", rows)

    def test_rows_where(self):
        result = self._result()
        assert len(result.rows_where(x=1)) == 1
        assert result.rows_where(x=3) == []

    def test_metric_access(self):
        row = SeriesRow({"x": 1}, {"y": 2.0})
        assert row.metric("y") == 2.0
        with pytest.raises(ExperimentError):
            row.metric("z")

    def test_table_and_render(self):
        text = self._result().render()
        assert "claim" in text and "4.000" in text


class TestCheapExperiments:
    """Full runs of the experiments cheap enough for the unit suite."""

    def test_table1_passes_checks(self):
        result = get("table1").run_checked(fast=True)
        assert not [n for n in result.notes if n.startswith("SHAPE")]

    def test_listing3_passes_checks(self):
        result = get("listing3").run_checked(fast=True)
        assert not [n for n in result.notes if n.startswith("SHAPE")]
        clean = result.rows_where(variant="clean")[0]
        assert clean.metric("slowdown") > 20

    def test_x9_passes_checks(self):
        result = get("x9").run_checked(fast=True)
        assert not [n for n in result.notes if n.startswith("SHAPE")]
        for row in result.rows:
            assert row.metric("latency_reduction_pct") > 0


def _tiny_listing1(element_size):
    """Module-level spy factory: describable, picklable, and countable."""
    _tiny_listing1.calls += 1
    return Listing1(element_size=element_size, num_elements=64, iterations=120)


_tiny_listing1.calls = 0


def _tiny_cell(element_size, mode=PrestoreMode.NONE):
    return Cell(functools.partial(_tiny_listing1, element_size), machine_a(), mode, seed=7)


class _Declares(Experiment):
    """A stub experiment with one cell of its own and one it shares."""

    id = "stub-declares"

    def cells(self, fast, seed):
        return {"own": _tiny_cell(256), "shared": _tiny_cell(512)}

    def reduce(self, results, fast, seed):
        return self._result(
            [SeriesRow({"key": key}, {"cycles": run.cycles}) for key, run in results.items()]
        )


class _AlsoDeclares(_Declares):
    id = "stub-also-declares"

    def cells(self, fast, seed):
        return {"shared": _tiny_cell(512), "clean": _tiny_cell(512, PrestoreMode.CLEAN)}


class TestProtocol:
    """Experiments declare cells; run_all runs every experiment's cells as one sweep."""

    @pytest.mark.parametrize("fast", [True, False])
    def test_every_declared_cell_is_cacheable(self, fast):
        for eid in all_ids():
            for key, cell in get(eid).cells(fast, 1234).items():
                assert cache_key(cell) is not None, (eid, key)

    def test_run_all_is_one_sweep_that_simulates_shared_cells_once(self, monkeypatch):
        for cls in (_Declares, _AlsoDeclares):
            monkeypatch.setitem(registry._REGISTRY, cls.id, cls)
        sweeps = []
        execute = repro.runner.execute_cells

        def spy(cells, **kw):
            sweeps.append(len(cells))
            return execute(cells, **kw)

        monkeypatch.setattr(repro.runner, "execute_cells", spy)
        before = _tiny_listing1.calls
        results = run_all([_AlsoDeclares.id, _Declares.id])
        assert sweeps == [3]
        assert _tiny_listing1.calls - before == 3
        assert list(results) == [_AlsoDeclares.id, _Declares.id]
        shared = [r.rows_where(key="shared")[0].metric("cycles") for r in results.values()]
        assert shared[0] == shared[1]
        assert all(r.wall_s > 0 for r in results.values())

    def test_run_all_sums_path_counts_of_simulated_cells(self, monkeypatch, tmp_path):
        for cls in (_Declares, _AlsoDeclares):
            monkeypatch.setitem(registry._REGISTRY, cls.id, cls)
        ids = [_AlsoDeclares.id, _Declares.id]
        cold = run_all(ids, cache_dir=str(tmp_path))
        # Each experiment counts the cells it declared first: the shared
        # cell belongs to the first declarer.
        accesses = {eid: sum(r.path_counts.values()) for eid, r in cold.items()}
        assert accesses[_AlsoDeclares.id] > accesses[_Declares.id] > 0
        assert all(set(r.path_counts) == {"fused", "unrolled", "single"} for r in cold.values())
        warm = run_all(ids, cache_dir=str(tmp_path))
        assert warm == cold
        assert all(set(r.path_counts.values()) == {0} for r in warm.values())

    def test_pooled_run_all_matches_serial(self):
        ids = ["fig5", "x9", "listing3"]
        serial = run_all(ids)
        assert run_all(ids, workers=2) == serial
        assert serial == {eid: get(eid).run_checked() for eid in ids}
