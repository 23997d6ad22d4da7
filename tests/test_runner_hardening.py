"""Runner durability: retries, timeouts, broken pools, corrupt cache entries.

The worker-side saboteurs are module-level functions (picklable) driven
by a file-based counter, so their behaviour is identical whichever
process — pool worker or parent — invokes them.
"""

import functools
import os
import time

import pytest

from repro.core.prestore import PrestoreMode
from repro.errors import CellExecutionError, RunnerError
from repro.runner import Cell, ResultCache, execute_cells, runner_session
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1


def _tiny_workload():
    return Listing1(element_size=512, num_elements=32, iterations=40)


def _cell(seed=7, factory=_tiny_workload, **kwargs):
    return Cell(make_workload=factory, spec=machine_a(), mode=PrestoreMode.NONE, seed=seed, **kwargs)


def _flaky_factory(counter_path, fail_times):
    """Fails the first ``fail_times`` invocations, then succeeds.

    The counter lives in a file so the count survives process hops;
    retries of one cell are sequential, so there is no write race.
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


def _sleeps_forever():
    time.sleep(30)
    return _tiny_workload()


class TestRetries:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_flaky_cell_succeeds_after_bounded_retries(self, tmp_path, workers):
        counter = str(tmp_path / "flaky-count")
        cell = _cell(factory=functools.partial(_flaky_factory, counter, 2))
        (outcome,) = execute_cells([cell], workers=workers, retries=2, backoff_s=0.01)
        assert outcome.status == "ok"
        assert outcome.attempts == 3
        assert outcome.result is not None
        # The third invocation was the charm — and the last.
        assert open(counter).read() == "3"

    def test_retries_exhausted_yields_failed_outcome(self, tmp_path):
        counter = str(tmp_path / "flaky-count")
        cell = _cell(factory=functools.partial(_flaky_factory, counter, 5))
        (outcome,) = execute_cells([cell], workers=1, retries=1, backoff_s=0.01)
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "flaky failure" in outcome.error

    def test_no_retries_by_default(self, tmp_path):
        counter = str(tmp_path / "flaky-count")
        cell = _cell(factory=functools.partial(_flaky_factory, counter, 1))
        (outcome,) = execute_cells([cell], workers=1)
        assert outcome.status == "failed"
        assert outcome.attempts == 1


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

    def test_hanging_cell_times_out_and_sweep_continues(self):
        cells = [_cell(seed=1), _cell(factory=_sleeps_forever, seed=2)]
        started = time.monotonic()
        outcomes = execute_cells(cells, workers=2, timeout_s=1.0)
        elapsed = time.monotonic() - started
        assert outcomes[0].status == "ok"
        assert outcomes[1].status == "timeout"
        assert "timeout_s" in outcomes[1].error
        assert elapsed < 15  # nowhere near the 30s sleep

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
        assert again[1].attempts == 1
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


class TestSessionDefaults:
    def test_session_retry_policy_is_ambient(self, tmp_path):
        counter = str(tmp_path / "flaky-count")
        cell = _cell(factory=functools.partial(_flaky_factory, counter, 1))
        with runner_session(workers=1, retries=1, backoff_s=0.01):
            (outcome,) = execute_cells([cell])
        assert outcome.status == "ok"
        assert outcome.attempts == 2


class TestCorruptCache:
    def _store_one(self, cache):
        cell = _cell()
        (outcome,) = execute_cells([cell], workers=1, cache=cache)
        key = cache.key_for(cell)
        assert cache.load(key) is not None
        return cell, key

    def test_truncated_payload_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell, key = self._store_one(cache)
        path = cache._payload_path(key)
        # Truncate mid-JSON: still parses as a str prefix? No — json.loads
        # fails; and even a *valid-JSON* fragment must be rejected below.
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        (outcome,) = execute_cells([cell], workers=1, cache=cache)
        assert outcome.status == "ok" and not outcome.cached
        assert cache.corrupt == 1
        # The corrupt entry was evicted and rewritten by the re-run.
        assert cache.load_result(key) is not None

    def test_valid_json_wrong_shape_is_also_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell, key = self._store_one(cache)
        cache._payload_path(key).write_text('{"not": "a RunResult"}')
        (outcome,) = execute_cells([cell], workers=1, cache=cache)
        assert outcome.status == "ok" and not outcome.cached
        assert cache.corrupt == 1

    def test_corrupt_counts_in_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell, key = self._store_one(cache)
        cache._payload_path(key).write_text("}{")
        assert cache.load_result(key) is None
        stats = cache.stats()
        assert stats["corrupt"] == 1
        assert stats["hits"] == 1  # the original store-then-load round trip
