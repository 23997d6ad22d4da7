"""Chunked dispatch and warm sessions: identical bytes, contained failures."""

import functools
import os
import time

import pytest

from repro.core.prestore import PrestoreMode
from repro.runner import Cell, execute_cells, retry_delay, runner_session
from repro.runner.monitor import SweepMonitor
from repro.runner.pool import MAX_CHUNK_CELLS, _auto_chunk_size
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1

MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN)


def _tiny_workload():
    return Listing1(element_size=512, num_elements=32, iterations=40)


def _cell(seed=7, factory=_tiny_workload, mode=PrestoreMode.NONE):
    return Cell(make_workload=factory, spec=machine_a(), mode=mode, seed=seed)


def _grid_cells(seeds=(1, 2, 3)):
    return [_cell(seed=s, mode=m) for s in seeds for m in MODES]


def _always_raises():
    raise RuntimeError("kaboom")


def _kills_worker():
    os._exit(17)


def _flaky_factory(counter_path, fail_times):
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


class TestChunkSizing:
    def test_auto_chunk_targets_chunks_per_worker(self):
        assert _auto_chunk_size(64, 2) == 8  # 64 / (2 workers * 4)
        assert _auto_chunk_size(3, 2) == 1  # small sweeps stay per-cell
        assert _auto_chunk_size(100_000, 8) == MAX_CHUNK_CELLS  # capped

    def test_auto_chunk_never_below_one(self):
        assert _auto_chunk_size(0, 4) == 1
        assert _auto_chunk_size(1, 16) == 1


class TestBitIdentity:
    @pytest.mark.parametrize("chunk_size", [1, 2, None])
    def test_chunk_size_does_not_change_results(self, chunk_size):
        # The invariant the whole chunking layer is built under: the
        # serialised RunResult bytes are the same at any chunk size.
        cells = _grid_cells()
        reference = [o.result_json for o in execute_cells(cells, workers=1)]
        chunked = [
            o.result_json
            for o in execute_cells(cells, workers=2, chunk_size=chunk_size)
        ]
        assert chunked == reference

    def test_whole_sweep_in_one_chunk(self):
        cells = _grid_cells(seeds=(1, 2))
        reference = [o.result_json for o in execute_cells(cells, workers=1)]
        one_chunk = [
            o.result_json
            for o in execute_cells(cells, workers=2, chunk_size=len(cells))
        ]
        assert one_chunk == reference


class TestChunkFailureIsolation:
    def test_failing_cell_does_not_take_down_chunk_mates(self):
        cells = [_cell(seed=1), _cell(factory=_always_raises, seed=2), _cell(seed=3)]
        outcomes = execute_cells(cells, workers=2, chunk_size=3)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert "kaboom" in outcomes[1].error
        # The survivors' bytes match a serial run (chunk-mates unharmed).
        serial = execute_cells([cells[0], cells[2]], workers=1)
        assert outcomes[0].result_json == serial[0].result_json
        assert outcomes[2].result_json == serial[1].result_json

    def test_flaky_cell_in_chunk_retries_solo_and_succeeds(self, tmp_path):
        flaky = functools.partial(_flaky_factory, str(tmp_path / "count"), 1)
        cells = [_cell(seed=1), _cell(factory=flaky, seed=2), _cell(seed=3)]
        outcomes = execute_cells(cells, workers=2, chunk_size=3, retries=2, backoff_s=0.01)
        assert all(o.status == "ok" for o in outcomes)
        assert outcomes[1].attempts == 2  # failed in the chunk, retried solo

    def test_worker_killer_is_contained_with_chunking(self):
        # A chunk-mate of an os._exit cell dies with the pool; the
        # driver must still isolate blame via solo re-probes and finish
        # every innocent cell.
        cells = [_cell(seed=1), _cell(factory=_kills_worker, seed=2), _cell(seed=3)]
        outcomes = execute_cells(cells, workers=2, chunk_size=3)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert "died" in outcomes[1].error


class TestDeterministicBackoff:
    def test_retry_delay_is_reproducible(self):
        assert retry_delay("cell-abc", 1, 0.5) == retry_delay("cell-abc", 1, 0.5)

    def test_retry_delay_decorrelates_cells_and_attempts(self):
        delays = {
            retry_delay("cell-abc", 1, 0.5),
            retry_delay("cell-abc", 2, 0.5),
            retry_delay("cell-xyz", 1, 0.5),
        }
        assert len(delays) == 3

    def test_retry_delay_bounds(self):
        for attempt in (1, 2, 3):
            base = 0.5 * 2 ** (attempt - 1)
            delay = retry_delay("cell-abc", attempt, 0.5)
            assert base * 0.5 <= delay < base * 1.5


class TestEventsUnderChunking:
    def test_event_symmetry_and_monitor_inflight(self):
        monitor = SweepMonitor()
        cells = _grid_cells()
        execute_cells(cells, workers=2, chunk_size=2, events=monitor)
        assert monitor.done == len(cells)
        assert monitor.counts["ok"] == len(cells)
        assert monitor.inflight == 0  # every submit matched by a terminal event
        assert monitor.total == len(cells)

    def test_chunked_failure_events_match_per_cell_semantics(self):
        monitor = SweepMonitor()
        cells = [_cell(seed=1), _cell(factory=_always_raises, seed=2)]
        execute_cells(cells, workers=2, chunk_size=2, events=monitor)
        assert monitor.counts["ok"] == 1
        assert monitor.counts["failed"] == 1
        assert monitor.inflight == 0


class TestWarmSession:
    def test_session_reuses_one_pool_across_sweeps(self):
        with runner_session(workers=2) as session:
            execute_cells(_grid_cells(seeds=(1,)), workers=2)
            first = session._executor
            assert first is not None
            execute_cells(_grid_cells(seeds=(2,)), workers=2)
            assert session._executor is first  # same warm pool, no respawn
        assert session._executor is None  # closed with the session

    def test_warm_pool_second_sweep_is_not_slower_than_cold_spawn(self):
        # Not a speedup assertion (1-CPU CI boxes): only that reuse
        # never pays the spawn cost twice, and that the warm workers
        # return the same bytes as freshly spawned ones.
        cells = _grid_cells(seeds=(1,))
        with runner_session(workers=2):
            t0 = time.perf_counter()
            first = execute_cells(cells, workers=2)
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            second = execute_cells(cells, workers=2, cache=None)
            warm = time.perf_counter() - t0
        assert warm < cold * 3  # loose: warm must not regress wildly
        assert [o.result_json for o in second] == [o.result_json for o in first]

    def test_session_chunk_size_is_ambient(self):
        cells = _grid_cells()
        reference = [o.result_json for o in execute_cells(cells, workers=1)]
        with runner_session(workers=2, chunk_size=2):
            ambient = [o.result_json for o in execute_cells(cells)]
        assert ambient == reference
