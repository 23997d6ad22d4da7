"""One cell per submission: ``_drive_pool``'s dispatch and blame protocol.

Most cases here replace ``ProcessPoolExecutor`` with :class:`_FakePool`,
which runs cells in the test process when ``_drive_pool`` waits and
can break on cue, so its bookkeeping — what it submits, how many
cells it keeps in flight, whom it quarantines and whom it blames — is
checked exactly, without timing.  The remaining cases start real
processes: a pool under a start method other than ``fork``, and the
serial path's imports.
"""

import concurrent.futures
import inspect
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.prestore import PrestoreMode
from repro.runner import (
    Cell,
    ResultCache,
    active_session,
    execute_cells,
    runner_session,
)
from repro.runner import cells as cells_module
from repro.runner import pool as pool_module
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _tiny_workload():
    return Listing1(element_size=512, num_elements=32, iterations=40)


def _breaks_the_pool():
    """Marks a cell that takes its worker down in :class:`_FakePool`.

    The fake never calls it; if ``execute_cells`` ever ran it in the parent,
    the test fails here instead of losing the test process.
    """
    raise AssertionError("a pool-breaking cell ran in the parent process")


def _cell(seed, factory=_tiny_workload):
    return Cell(make_workload=factory, spec=machine_a(), mode=PrestoreMode.NONE, seed=seed)


class _Recorder:
    """What the fake pools saw, across every pool one call built."""

    def __init__(self):
        #: Resolve the newest pending cell first instead of the oldest.
        self.lifo = False
        #: Indices of pools that break just after returning their first result.
        self.break_after_first_result = set()
        self.pools = []
        #: Seeds of the cells the parent ran inline.
        self.inline = []

    def submissions(self):
        return [pool.submitted for pool in self.pools]


class _FakePool:
    """A ``ProcessPoolExecutor`` stand-in, resolved by the fixture's ``wait``.

    Submitted cells stay pending until ``_drive_pool`` waits.  Then the next
    pending cell (the oldest, or the newest with ``lifo``) resolves: a
    :func:`_breaks_the_pool` cell fails every pending future with
    ``BrokenProcessPool`` and leaves the pool broken, as a dying worker
    does; any other cell runs here and returns its ``CellRun``.
    """

    def __init__(self, recorder, max_workers, mp_context=None, initializer=None, initargs=()):
        self.recorder = recorder
        self.index = len(recorder.pools)
        recorder.pools.append(self)
        self.max_workers = max_workers
        self.mp_context = mp_context
        self.initializer = initializer
        self.initargs = initargs
        self.pending = []
        self.submitted = []
        self.payloads = []
        self.most_in_flight = 0
        self.broken = False
        self.shutdown_calls = []

    def submit(self, fn, payload):
        assert fn is pool_module._run_pickled
        if self.broken:
            raise BrokenProcessPool("a worker died since the last wait")
        cell = pickle.loads(payload)
        future = Future()
        self.pending.append((future, cell))
        self.submitted.append(cell.seed)
        self.payloads.append(payload)
        self.most_in_flight = max(self.most_in_flight, len(self.pending))
        return future

    def fail_pending(self):
        """The pool is broken: every pending future fails with it."""
        self.broken = True
        for pending, _ in self.pending:
            pending.set_exception(BrokenProcessPool("a worker died"))
        done = {pending for pending, _ in self.pending}
        self.pending = []
        return done

    def resolve_next(self):
        if self.broken:
            return self.fail_pending()
        future, cell = self.pending[-1] if self.recorder.lifo else self.pending[0]
        if cell.make_workload is _breaks_the_pool:
            return self.fail_pending()
        self.pending = [(f, c) for f, c in self.pending if f is not future]
        try:
            future.set_result(cells_module.run_cell(cell))
        except Exception as exc:
            future.set_exception(exc)
        if self.index in self.recorder.break_after_first_result:
            self.recorder.break_after_first_result.discard(self.index)
            self.broken = True
        return {future}

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append((wait, cancel_futures))


@pytest.fixture
def fake_pool(monkeypatch):
    """Route every pool ``_drive_pool`` builds through :class:`_FakePool`."""
    recorder = _Recorder()

    def make_pool(max_workers, mp_context=None, initializer=None, initargs=()):
        return _FakePool(recorder, max_workers, mp_context, initializer, initargs)

    def fake_wait(futures, return_when=None):
        return recorder.pools[-1].resolve_next(), set()

    def run_inline(cell):
        recorder.inline.append(cell.seed)
        return cells_module.run_cell(cell)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make_pool)
    monkeypatch.setattr(concurrent.futures, "wait", fake_wait)
    monkeypatch.setattr(pool_module, "run_cell", run_inline)
    return recorder


def _reference(seeds):
    """The serialised results of the clean cells ``seeds``, run directly."""
    return [cells_module.run_cell(_cell(s)).result_json for s in seeds]


class TestSignatures:
    def test_execute_cells_takes_cells_workers_cache_and_on_error(self):
        params = list(inspect.signature(execute_cells).parameters)
        assert params == ["cells", "workers", "cache", "on_error"]

    def test_runner_session_takes_workers_and_cache_dir(self):
        params = list(inspect.signature(runner_session).parameters)
        assert params == ["workers", "cache_dir"]


class TestOneCellPerSubmission:
    def test_each_submission_is_one_cell_pickled_once(self, fake_pool):
        cells = [_cell(s) for s in (1, 2, 3)]
        execute_cells(cells, workers=2)
        (pool,) = fake_pool.pools
        assert pool.submitted == [1, 2, 3]
        assert pool.payloads == [pickle.dumps(c) for c in cells]
        assert fake_pool.inline == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_cells_in_flight(self, fake_pool, workers):
        outcomes = execute_cells([_cell(s) for s in range(1, 8)], workers=workers)
        assert all(o.status == "ok" for o in outcomes)
        (pool,) = fake_pool.pools
        assert pool.max_workers == workers
        assert pool.most_in_flight == workers

    def test_each_call_builds_its_own_pool_and_shuts_it_down(self, fake_pool):
        execute_cells([_cell(1), _cell(2)], workers=2)
        execute_cells([_cell(3), _cell(4)], workers=2)
        assert fake_pool.submissions() == [[1, 2], [3, 4]]
        assert [p.shutdown_calls for p in fake_pool.pools] == [[(True, True)], [(True, True)]]

    def test_workers_are_forked_and_watch_their_parent(self, fake_pool):
        execute_cells([_cell(1), _cell(2)], workers=2)
        (pool,) = fake_pool.pools
        assert pool.mp_context.get_start_method() == "fork"
        assert pool.initializer is pool_module._exit_with_parent
        assert pool.initargs == ()

    def test_serial_and_fully_cached_sweeps_build_no_pool(self, fake_pool, tmp_path):
        cells = [_cell(1), _cell(2)]
        execute_cells(cells, workers=1, cache=tmp_path)
        assert fake_pool.inline == [1, 2]
        outcomes = execute_cells(cells, workers=2, cache=tmp_path)
        assert [o.status for o in outcomes] == ["cached", "cached"]
        assert fake_pool.pools == []

    def test_outcomes_follow_cell_order_not_completion_order(self, fake_pool):
        fake_pool.lifo = True
        outcomes = execute_cells([_cell(s) for s in (1, 2, 3, 4)], workers=2)
        assert [o.cell.seed for o in outcomes] == [1, 2, 3, 4]
        assert [o.result_json for o in outcomes] == _reference((1, 2, 3, 4))


class TestBlame:
    def test_cells_in_flight_at_a_break_are_reprobed_solo(self, fake_pool):
        cells = [_cell(1, factory=_breaks_the_pool), _cell(2), _cell(3), _cell(4)]
        outcomes = execute_cells(cells, workers=2)
        assert [o.status for o in outcomes] == ["failed", "ok", "ok", "ok"]
        # Pool 1 breaks with 1 and 2 in flight; pool 2 runs the clean
        # queue, then probes 1 alone and breaks; pool 3 exonerates 2.
        assert fake_pool.submissions() == [[1, 2], [3, 4, 1], [2]]
        assert [p.most_in_flight for p in fake_pool.pools] == [2, 2, 1]
        assert outcomes[1].result_json == _reference((2,))[0]
        assert fake_pool.inline == []

    def test_a_solo_probe_that_breaks_the_pool_is_blamed_at_once(self, fake_pool):
        cells = [_cell(1, factory=_breaks_the_pool), _cell(2)]
        outcomes = execute_cells(cells, workers=2)
        assert "solo probe" in outcomes[0].error
        assert outcomes[1].status == "ok"
        # Submitted twice: once beside its neighbour, once alone.
        assert [p.submitted.count(1) for p in fake_pool.pools] == [1, 1, 0]

    def test_a_broken_pool_shuts_down_without_waiting(self, fake_pool):
        execute_cells([_cell(1, factory=_breaks_the_pool), _cell(2)], workers=2)
        assert [p.shutdown_calls for p in fake_pool.pools] == [
            [(False, True)],
            [(False, True)],
            [(True, True)],
        ]

    def test_restarts_are_bounded_and_clean_leftovers_run_inline(self, fake_pool):
        killers = [_cell(s, factory=_breaks_the_pool) for s in range(1, 7)]
        outcomes = execute_cells(killers + [_cell(7), _cell(8)], workers=2)
        assert len(fake_pool.pools) == pool_module.MAX_POOL_RESTARTS + 1
        assert fake_pool.submissions() == [[1, 2], [3, 4], [5, 6]]
        assert [o.status for o in outcomes] == ["failed"] * 6 + ["ok", "ok"]
        assert all("restarts exhausted" in o.error for o in outcomes[:6])
        assert [o.result_json for o in outcomes[6:]] == _reference((7, 8))

    def test_a_suspect_never_runs_in_the_parent(self, fake_pool):
        killers = [_cell(s, factory=_breaks_the_pool) for s in range(1, 7)]
        execute_cells(killers + [_cell(7), _cell(8)], workers=2)
        assert fake_pool.inline == [7, 8]

    def test_a_submit_into_a_broken_pool_leaves_its_cell_queued(self, fake_pool):
        # Pool 1 returns cell 1, then a worker dies before cell 3 is
        # submitted: 3 was never in flight, so it is no suspect.
        fake_pool.break_after_first_result = {0}
        outcomes = execute_cells([_cell(s) for s in (1, 2, 3)], workers=2)
        assert [o.status for o in outcomes] == ["ok", "ok", "ok"]
        assert fake_pool.submissions() == [[1, 2], [3, 2]]
        assert [p.most_in_flight for p in fake_pool.pools] == [2, 1]
        assert [o.result_json for o in outcomes] == _reference((1, 2, 3))


def _run_python(code, timeout=30):
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestWorkerProcess:
    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the forkserver start method",
    )
    def test_workers_whose_parent_is_a_fork_server_run_their_cells(self, monkeypatch):
        # A forkserver worker's parent is the fork server, not this
        # process: its exit-with-parent watch must not take that for
        # the parent's death.
        forkserver = multiprocessing.get_context("forkserver")
        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: forkserver)
        outcomes = execute_cells([_cell(1), _cell(2)], workers=2, on_error="raise")
        assert all(o.worker != f"pid{os.getpid()}" for o in outcomes)
        assert [o.result_json for o in outcomes] == _reference((1, 2))

    def test_a_serial_sweep_never_imports_the_process_pool(self):
        done = _run_python(
            "import sys\n"
            "from repro.core.prestore import PrestoreMode\n"
            "from repro.runner import Cell, execute_cells\n"
            "from repro.sim.machine import machine_a\n"
            "from repro.workloads.microbench import Listing1\n"
            "def tiny():\n"
            "    return Listing1(element_size=512, num_elements=32, iterations=40)\n"
            "(o,) = execute_cells([Cell(tiny, machine_a(), PrestoreMode.NONE, seed=1)])\n"
            "assert o.status == 'ok', o.error\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestSession:
    def test_session_workers_are_at_least_one(self):
        with runner_session(workers=0) as session:
            assert session.workers == 1

    def test_nested_sessions_restore_the_outer_one(self, tmp_path):
        with runner_session(workers=2) as outer:
            with runner_session(workers=3, cache_dir=tmp_path) as inner:
                assert active_session() is inner
            assert active_session() is outer
        assert active_session() is None

    def test_session_is_removed_when_the_block_raises(self):
        with pytest.raises(KeyError):
            with runner_session(workers=2):
                raise KeyError("boom")
        assert active_session() is None

    def test_explicit_workers_override_the_session(self, fake_pool):
        with runner_session(workers=2):
            execute_cells([_cell(1), _cell(2)], workers=1)
            assert fake_pool.pools == []
            execute_cells([_cell(3), _cell(4)])
        assert fake_pool.inline == [1, 2]
        assert fake_pool.submissions() == [[3, 4]]

    def test_an_explicit_cache_overrides_the_session_cache(self, tmp_path):
        ambient, explicit = tmp_path / "ambient", tmp_path / "explicit"
        with runner_session(cache_dir=ambient):
            execute_cells([_cell(1)])
            execute_cells([_cell(2)], cache=explicit)
        assert len(ResultCache(ambient)) == 1
        assert len(ResultCache(explicit)) == 1
        (hit,) = execute_cells([_cell(2)], cache=explicit)
        assert hit.status == "cached"
