"""Resuming a sweep through the result cache.

``execute_cells`` stores each cell the moment it finishes, so a sweep
that stopped part-way (killed, or only partly run) resumes by running
the same cells against the same cache directory: stored cells come
back as hits, only the rest simulate, and every result is the same
bytes a fresh, uninterrupted run produces.
"""

import json

import pytest

from repro.core.prestore import PrestoreMode
from repro.runner import Cell, ResultCache, execute_cells
from repro.runner.cache import MANIFEST_NAME
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1

MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN)


def _counting_factory():
    """Module-level spy factory: describable, picklable, and countable inline."""
    _counting_factory.calls += 1
    return Listing1(element_size=512, num_elements=32, iterations=40)


_counting_factory.calls = 0


def _sweep(seeds=(1, 2, 3)):
    return [
        Cell(make_workload=_counting_factory, spec=machine_a(), mode=mode, seed=seed)
        for seed in seeds
        for mode in MODES
    ]


def _manifest_adds(root):
    lines = (root / MANIFEST_NAME).read_text().splitlines()
    return [json.loads(line) for line in lines if '"op": "add"' in line]


@pytest.fixture(scope="module")
def reference():
    """An uninterrupted, uncached run of the whole sweep."""
    return [o.result_json for o in execute_cells(_sweep(), workers=1)]


class TestResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_run_is_bit_identical_to_a_fresh_one(self, tmp_path, reference, workers):
        cells = _sweep()
        execute_cells(cells[:3], workers=workers, cache=tmp_path)
        resumed = execute_cells(cells, workers=workers, cache=tmp_path)
        assert [o.status for o in resumed] == ["cached"] * 3 + ["ok"] * 3
        assert [o.result_json for o in resumed] == reference

    def test_resume_stores_exactly_the_missing_cells(self, tmp_path):
        cells = _sweep()
        execute_cells(cells[:2], workers=1, cache=tmp_path)
        assert len(ResultCache(tmp_path)) == 2
        before = _manifest_adds(tmp_path)
        execute_cells(cells, workers=1, cache=tmp_path)
        assert len(ResultCache(tmp_path)) == len(cells)
        appended = _manifest_adds(tmp_path)[len(before):]
        # One new entry per cell the first run did not store, none for the rest.
        assert len(appended) == len(cells) - 2
        assert {op["key"] for op in before}.isdisjoint(op["key"] for op in appended)

    def test_resume_skips_the_workload_factory_for_stored_cells(self, tmp_path):
        cells = _sweep()
        execute_cells(cells[:4], workers=1, cache=tmp_path)
        before = _counting_factory.calls
        execute_cells(cells, workers=1, cache=tmp_path)
        assert _counting_factory.calls - before == 2

    def test_a_finished_sweep_resumes_to_all_hits(self, tmp_path, reference):
        cells = _sweep()
        execute_cells(cells, workers=2, cache=tmp_path)
        again = execute_cells(cells, workers=2, cache=tmp_path)
        assert all(o.status == "cached" for o in again)
        assert [o.result_json for o in again] == reference

    def test_without_a_cache_every_cell_runs_again(self, tmp_path):
        cells = _sweep(seeds=(1,))
        execute_cells(cells, workers=1, cache=tmp_path)
        rerun = execute_cells(cells, workers=1)
        assert [o.status for o in rerun] == ["ok", "ok"]
        assert not any(o.cached for o in rerun)

    def test_cache_hits_report_no_work(self, tmp_path):
        cells = _sweep(seeds=(1,))
        fresh = execute_cells(cells, workers=1, cache=tmp_path)
        hits = execute_cells(cells, workers=1, cache=tmp_path)
        for first, hit in zip(fresh, hits):
            assert hit.cached and hit.ok
            assert hit.worker == "cache"
            assert hit.attempts == 0
            assert hit.wall_s == 0.0
            assert hit.path_counts == {}
            assert hit.run_id == first.run_id  # from the provenance sidecar

    def test_stored_cells_carry_provenance(self, tmp_path):
        (cell,) = _sweep(seeds=(5,))[:1]
        (outcome,) = execute_cells([cell], workers=1, cache=tmp_path)
        cache = ResultCache(tmp_path)
        meta = cache.load_meta(cache.key_for(cell))
        assert meta["run_id"] == outcome.run_id
        assert meta["seed"] == 5
        assert meta["machine"] == cell.spec.name
        assert meta["worker"] == outcome.worker

    def test_a_different_seed_is_a_different_cell(self, tmp_path):
        execute_cells(_sweep(seeds=(1,)), workers=1, cache=tmp_path)
        other = execute_cells(_sweep(seeds=(9,)), workers=1, cache=tmp_path)
        assert [o.status for o in other] == ["ok", "ok"]
        assert len(ResultCache(tmp_path)) == 4


class TestDamagedCacheStillResumes:
    def test_torn_manifest_tail_is_tolerated(self, tmp_path, reference):
        cells = _sweep()
        execute_cells(cells[:3], workers=1, cache=tmp_path)
        with open(tmp_path / MANIFEST_NAME, "a") as fh:
            fh.write('{"op": "add", "key": "torn-by-a-ki')  # a kill mid-append
        resumed = execute_cells(cells, workers=1, cache=tmp_path)
        assert [o.status for o in resumed] == ["cached"] * 3 + ["ok"] * 3
        assert [o.result_json for o in resumed] == reference

    def test_lost_manifest_is_rebuilt_from_the_payloads(self, tmp_path, reference):
        cells = _sweep()
        execute_cells(cells[:3], workers=1, cache=tmp_path)
        (tmp_path / MANIFEST_NAME).unlink()
        resumed = execute_cells(cells, workers=1, cache=tmp_path)
        assert [o.status for o in resumed] == ["cached"] * 3 + ["ok"] * 3
        assert [o.result_json for o in resumed] == reference
        assert len(ResultCache(tmp_path)) == len(cells)

    def test_corrupt_payload_is_simulated_again(self, tmp_path, reference):
        cells = _sweep()
        execute_cells(cells, workers=1, cache=tmp_path)
        cache = ResultCache(tmp_path)
        path = cache._payload_path(cache.key_for(cells[0]))
        path.write_text(path.read_text()[:40])  # a torn payload
        resumed = execute_cells(cells, workers=1, cache=tmp_path)
        assert [o.status for o in resumed] == ["ok"] + ["cached"] * 5
        assert [o.result_json for o in resumed] == reference
        assert path.read_text() == reference[0]  # rewritten in place
