"""Runner durability: raising cells, broken pools, orphaned workers, corrupt cache entries.

The worker-side saboteurs are module-level functions (picklable) driven
by a file-based counter, so their behaviour is identical whichever
process — pool worker or parent — invokes them.
"""

import functools
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.prestore import PrestoreMode
from repro.errors import CellExecutionError, RunnerError
from repro.runner import Cell, ResultCache, cache_key, execute_cells
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1


def _tiny_workload():
    return Listing1(element_size=512, num_elements=32, iterations=40)


def _cell(seed=7, factory=_tiny_workload, **kwargs):
    return Cell(make_workload=factory, spec=machine_a(), mode=PrestoreMode.NONE, seed=seed, **kwargs)


def _flaky_factory(counter_path, fail_times):
    """Fails the first ``fail_times`` invocations, then succeeds.

    The counter lives in a file so the count survives process hops.
    """
    try:
        with open(counter_path) as fh:
            count = int(fh.read() or 0)
    except FileNotFoundError:
        count = 0
    with open(counter_path, "w") as fh:
        fh.write(str(count + 1))
    if count < fail_times:
        raise RuntimeError(f"flaky failure #{count + 1}")
    return _tiny_workload()


def _always_raises():
    raise RuntimeError("kaboom")


def _kills_worker():
    os._exit(17)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Runs two cells in a 2-worker pool; each worker leaves a file named
#: after its pid in ``argv[1]`` and then sleeps far past the test.
_ORPHAN_DRIVER = """
import functools, os, sys, time
from repro.core.prestore import PrestoreMode
from repro.runner import Cell, execute_cells
from repro.sim.machine import machine_a

def record_pid_and_sleep(directory):
    open(os.path.join(directory, str(os.getpid())), "w").close()
    time.sleep(120)

factory = functools.partial(record_pid_and_sleep, sys.argv[1])
execute_cells([Cell(factory, machine_a(), PrestoreMode.NONE, seed=s) for s in (1, 2)], workers=2)
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestSweepNotLost:
    """The acceptance criterion: one bad cell never costs the others."""

    def test_failing_cell_reports_structured_outcome(self):
        cells = [_cell(seed=1), _cell(factory=_always_raises, seed=2), _cell(seed=3)]
        outcomes = execute_cells(cells, workers=2)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert len(outcomes) == len(cells)
        bad = outcomes[1]
        assert "RuntimeError: kaboom" in bad.error
        assert bad.result is None and bad.result_json is None
        assert outcomes[0].result_json == execute_cells([_cell(seed=1)])[0].result_json

    def test_worker_killing_cell_is_contained(self):
        # os._exit in a worker breaks the whole pool; the driver must
        # rebuild it, re-probe suspects solo, and never run the killer
        # in the parent process (which it would take down too).
        cells = [_cell(seed=1), _cell(factory=_kills_worker, seed=2), _cell(seed=3)]
        outcomes = execute_cells(cells, workers=2)
        assert outcomes[1].status == "failed"
        assert "worker process died" in outcomes[1].error
        assert outcomes[0].status == "ok"
        assert outcomes[2].status == "ok"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_cell_is_not_retried(self, tmp_path, workers):
        # A cell is a deterministic function of its inputs: it runs once,
        # and its failure is final.
        counter = str(tmp_path / "flaky-count")
        cell = _cell(factory=functools.partial(_flaky_factory, counter, 1))
        (outcome,) = execute_cells([cell], workers=workers)
        assert outcome.status == "failed"
        assert "flaky failure #1" in outcome.error
        assert open(counter).read() == "1"

    def test_failed_cell_is_not_cached_and_runs_again(self, tmp_path):
        # A re-run against the same cache resumes the sweep: stored cells
        # come back as hits, and a failed cell was never stored, so it
        # runs (and fails) again instead of resuming as a result.
        cells = [_cell(seed=1), _cell(factory=_always_raises, seed=2)]
        first = execute_cells(cells, workers=1, cache=tmp_path)
        assert [o.status for o in first] == ["ok", "failed"]
        assert len(ResultCache(tmp_path)) == 1
        again = execute_cells(cells, workers=1, cache=tmp_path)
        assert [o.status for o in again] == ["cached", "failed"]
        assert not again[1].cached
        assert again[0].result_json == first[0].result_json

    def test_on_error_raise_carries_all_outcomes(self):
        cells = [_cell(seed=1), _cell(factory=_always_raises, seed=2)]
        with pytest.raises(CellExecutionError) as info:
            execute_cells(cells, workers=1, on_error="raise")
        outcomes = info.value.outcomes
        assert [o.status for o in outcomes] == ["ok", "failed"]
        assert outcomes[0].result is not None

    def test_on_error_validated(self):
        with pytest.raises(RunnerError):
            execute_cells([_cell()], on_error="explode")


class TestOrphans:
    def test_pool_workers_exit_when_their_parent_is_killed(self, tmp_path):
        # SIGKILL gives the parent no chance to shut its pool down; the
        # workers must notice on their own and exit.
        driver = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_DRIVER, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=SRC),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
                assert driver.poll() is None, "the driver exited before both cells started"
                time.sleep(0.01)
            workers = [int(name) for name in os.listdir(tmp_path)]
            assert len(workers) == 2
            driver.kill()  # the driver alone, not its process group
            driver.wait(timeout=30)
            deadline = time.monotonic() + 5
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            try:
                os.killpg(driver.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            driver.wait(timeout=30)


class TestCorruptCache:
    def _store_one(self, tmp_path):
        cell = _cell()
        (outcome,) = execute_cells([cell], workers=1, cache=tmp_path)
        path = tmp_path / f"{cache_key(cell)}.json"
        assert path.read_text() == outcome.result_json
        return cell, path, outcome.result_json

    def _damage_and_rerun(self, tmp_path, damage):
        """Damage the stored payload; the re-run simulates and rewrites it."""
        cell, path, stored = self._store_one(tmp_path)
        damage(path)
        (outcome,) = execute_cells([cell], workers=1, cache=tmp_path)
        assert outcome.status == "ok" and not outcome.cached
        assert path.read_text() == stored

    def test_truncated_payload_is_a_miss_not_a_crash(self, tmp_path):
        # Truncated mid-JSON, as a failing disk might leave it.
        self._damage_and_rerun(
            tmp_path, lambda path: path.write_text(path.read_text()[: path.stat().st_size // 2])
        )

    def test_valid_json_wrong_shape_is_also_a_miss(self, tmp_path):
        self._damage_and_rerun(tmp_path, lambda path: path.write_text('{"not": "a RunResult"}'))

    def test_payload_that_is_not_utf8_is_a_miss(self, tmp_path):
        self._damage_and_rerun(tmp_path, lambda path: path.write_bytes(b"\xff\xfe garbage"))

    def test_unparseable_payload_is_deleted_by_load(self, tmp_path):
        cell, path, _ = self._store_one(tmp_path)
        path.write_text("}{")
        cache = ResultCache(tmp_path)
        assert cache.load(cache_key(cell)) is None
        assert not path.exists() and len(cache) == 0
