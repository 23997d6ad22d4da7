"""The process-pool runner: determinism, caching, and integration."""

import functools
import os
import time

import pytest

from repro.core.autotune import AutoTuner
from repro.core.prestore import PrestoreMode
from repro.runner import (
    Cell,
    ResultCache,
    active_session,
    cache_key,
    describe_factory,
    execute_cells,
    runner_session,
)
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1

MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN)


def _listing1_factory():
    """Module-level spy factory: describable, picklable, and countable."""
    _listing1_factory.calls += 1
    return Listing1(element_size=512, num_elements=64, iterations=120)


_listing1_factory.calls = 0


def _rendezvous_factory(directory):
    """Listing 1, built once two processes are building a workload at once.

    Each call leaves a marker named after its process and waits until a
    second process has left one, so two cells get past it together only
    when two workers run them side by side.  After 30 s it gives up and
    the test's process count shows the failure.
    """
    open(os.path.join(directory, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 30.0
    while len(os.listdir(directory)) < 2 and time.monotonic() < deadline:
        time.sleep(0.005)
    return Listing1(element_size=512, num_elements=64, iterations=120)


def _cells(seed=7, factory=_listing1_factory):
    return [Cell(make_workload=factory, spec=machine_a(), mode=m, seed=seed) for m in MODES]


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_count_does_not_change_results(self, workers):
        # The determinism contract: same seed, bit-identical serialised
        # RunResult JSON no matter how the cells were sharded.
        reference = [o.result_json for o in execute_cells(_cells(), workers=1)]
        parallel = [o.result_json for o in execute_cells(_cells(), workers=workers)]
        assert parallel == reference

    def test_parallel_runs_use_distinct_processes(self, tmp_path):
        # A rendezvous, not timing: a worker that finished its first cell
        # before the other worker was up would otherwise take both.
        factory = functools.partial(_rendezvous_factory, str(tmp_path))
        outcomes = execute_cells(_cells(factory=factory), workers=2)
        workers = {o.worker for o in outcomes}
        assert all(w.startswith("pid") for w in workers)
        assert len(workers) == 2

    def test_unpicklable_factory_falls_back_inline(self):
        # Lambdas cannot cross the process boundary; they must still run
        # (inline) and produce the same result as a picklable factory.
        reference = execute_cells(_cells(), workers=1)[0].result_json
        cell = Cell(
            make_workload=lambda: Listing1(element_size=512, num_elements=64, iterations=120),
            spec=machine_a(),
            mode=PrestoreMode.NONE,
            seed=7,
        )
        (outcome,) = execute_cells([cell], workers=2)
        assert outcome.result_json == reference


class TestCache:
    def test_warm_run_performs_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = execute_cells(_cells(), workers=1, cache=cache)
        assert not any(o.cached for o in cold)
        calls_after_cold = _listing1_factory.calls

        warm = execute_cells(_cells(), workers=1, cache=cache)
        # Every cell hit; the workload factory was never called again.
        assert all(o.cached for o in warm)
        assert _listing1_factory.calls == calls_after_cold
        assert [o.result_json for o in warm] == [o.result_json for o in cold]

    def test_cache_key_covers_seed_mode_and_machine(self):
        base = cache_key(_cells(seed=7)[0])
        assert base is not None
        assert cache_key(_cells(seed=8)[0]) != base
        assert base != cache_key(_cells(seed=7)[1])  # NONE vs CLEAN

    def test_lambda_factory_is_uncacheable(self):
        cell = Cell(make_workload=lambda: Listing1(), spec=machine_a(), mode=PrestoreMode.NONE)
        assert describe_factory(cell.make_workload) is None
        assert cache_key(cell) is None

    def test_partial_factory_is_describable(self):
        factory = functools.partial(Listing1, element_size=512, iterations=10)
        desc = describe_factory(factory)
        assert "Listing1" in desc and "element_size=512" in desc

    def test_cache_holds_one_payload_per_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        execute_cells(_cells(), workers=1, cache=cache)
        assert len(cache) == len(MODES)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{cache_key(cell)}.json" for cell in _cells()
        )


class TestIntegration:
    def test_execute_cells_workers_matches_serial(self, tiny_machine_a):
        factory = functools.partial(Listing1, element_size=512, num_elements=64, iterations=120)
        cells = [Cell(factory, tiny_machine_a, mode, seed=7) for mode in MODES]
        serial = execute_cells(cells, on_error="raise")
        pooled = execute_cells(cells, workers=2, on_error="raise")
        assert [o.result.to_json() for o in pooled] == [o.result.to_json() for o in serial]

    def test_execute_cells_returns_one_outcome_per_cell(self, tiny_machine_a):
        factory = functools.partial(Listing1, element_size=512, num_elements=64, iterations=120)
        cells = [Cell(factory, tiny_machine_a, mode, seed=7) for mode in MODES]
        outcomes = execute_cells(cells)
        assert [o.cell for o in outcomes] == cells
        assert all("listing1" in o.run_id and o.wall_s > 0 for o in outcomes)

    def test_runner_session_is_ambient(self, tmp_path):
        assert active_session() is None
        with runner_session(workers=2, cache_dir=tmp_path) as session:
            assert active_session() is session
            execute_cells(_cells())
            warm = execute_cells(_cells())
        assert active_session() is None
        assert all(o.cached for o in warm)

    def test_autotuner_through_pool_matches_serial(self, tiny_machine_a):
        factory = functools.partial(Listing1, element_size=1024, num_elements=128, iterations=300)
        serial = AutoTuner().tune(factory, tiny_machine_a, seed=7)
        with runner_session(workers=2):
            pooled = AutoTuner().tune(factory, tiny_machine_a, seed=7)
        assert pooled.kept == serial.kept
        assert pooled.adopted == serial.adopted
        assert pooled.baseline.to_json() == serial.baseline.to_json()
        assert pooled.speedup == pytest.approx(serial.speedup)
