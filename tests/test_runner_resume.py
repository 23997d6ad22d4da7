"""Resuming a sweep through the result cache.

``execute_cells`` stores each cell the moment it finishes, so a sweep
that stopped part-way (killed, or only partly run) resumes by running
the same cells against the same cache directory: stored cells come
back as hits, only the rest simulate, and every result is the same
bytes a fresh, uninterrupted run produces.
"""

import shutil

import pytest

from repro.core.prestore import PrestoreMode
from repro.runner import Cell, ResultCache, cache_key, execute_cells
from repro.runner.cells import cell_run_id
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


def _payloads(root):
    """The names of the payload files the cache holds."""
    return {path.name for path in root.glob("*.json")}


def _snapshot(root):
    """Every file under ``root``: name, size and modification time."""
    return {
        path.relative_to(root): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
    }


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
        before = _payloads(tmp_path)
        execute_cells(cells, workers=1, cache=tmp_path)
        assert len(ResultCache(tmp_path)) == len(cells)
        added = _payloads(tmp_path) - before
        # One new entry per cell the first run did not store, none for the rest.
        assert added == {f"{cache_key(cell)}.json" for cell in cells[2:]}

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
            assert hit.status == "cached"
            assert hit.wall_s == 0.0
            assert hit.path_counts == {}
            # The workload is never built for a hit: its name is unknown.
            assert hit.run_id == cell_run_id(hit.cell, "?")
            assert first.run_id == cell_run_id(first.cell, "listing1")

    def test_a_stored_cell_is_one_file_holding_its_result_bytes(self, tmp_path):
        (cell,) = _sweep(seeds=(5,))[:1]
        (outcome,) = execute_cells([cell], workers=1, cache=tmp_path)
        payload = tmp_path / f"{cache_key(cell)}.json"
        assert [path.name for path in tmp_path.iterdir()] == [payload.name]
        assert payload.read_text() == outcome.result_json

    def test_a_warm_sweep_writes_nothing(self, tmp_path):
        cells = _sweep()
        execute_cells(cells, workers=1, cache=tmp_path)
        before = _snapshot(tmp_path)
        again = execute_cells(cells, workers=1, cache=tmp_path)
        assert all(o.status == "cached" for o in again)
        # No file created, rewritten or touched: a hit only reads.
        assert _snapshot(tmp_path) == before

    def test_a_different_seed_is_a_different_cell(self, tmp_path):
        execute_cells(_sweep(seeds=(1,)), workers=1, cache=tmp_path)
        other = execute_cells(_sweep(seeds=(9,)), workers=1, cache=tmp_path)
        assert [o.status for o in other] == ["ok", "ok"]
        assert len(ResultCache(tmp_path)) == 4


class TestDamagedCacheStillResumes:
    def test_a_killed_stores_temp_file_is_ignored(self, tmp_path, reference):
        cells = _sweep()
        execute_cells(cells[:3], workers=1, cache=tmp_path)
        (tmp_path / ".tmp-killed").write_text('{"cycles": 12')  # a kill mid-store
        resumed = execute_cells(cells, workers=1, cache=tmp_path)
        assert [o.status for o in resumed] == ["cached"] * 3 + ["ok"] * 3
        assert [o.result_json for o in resumed] == reference
        assert len(ResultCache(tmp_path)) == len(cells)

    def test_corrupt_payload_is_simulated_again(self, tmp_path, reference):
        cells = _sweep()
        execute_cells(cells, workers=1, cache=tmp_path)
        path = tmp_path / f"{cache_key(cells[0])}.json"
        path.write_text(path.read_text()[:40])  # a torn payload
        resumed = execute_cells(cells, workers=1, cache=tmp_path)
        assert [o.status for o in resumed] == ["ok"] + ["cached"] * 5
        assert [o.result_json for o in resumed] == reference
        assert path.read_text() == reference[0]  # rewritten in place

    def test_payload_files_alone_resume_in_a_new_directory(self, tmp_path, reference):
        # The payloads are the whole cache: copied without anything else
        # (say, restored from a backup), they resume the sweep.
        cells = _sweep()
        first, moved = tmp_path / "first", tmp_path / "moved"
        execute_cells(cells[:3], workers=1, cache=first)
        moved.mkdir()
        for name in _payloads(first):
            shutil.copyfile(first / name, moved / name)
        resumed = execute_cells(cells, workers=1, cache=moved)
        assert [o.status for o in resumed] == ["cached"] * 3 + ["ok"] * 3
        assert [o.result_json for o in resumed] == reference
