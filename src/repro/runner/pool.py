"""Process-pool execution of cells, with caching and failure isolation.

:func:`execute_cells` is the one entry point: it resolves each cell
against the :class:`~repro.runner.cache.ResultCache` (when one is
configured), runs the misses — in a ``ProcessPoolExecutor`` when
``workers > 1`` and the cell pickles, inline otherwise — and returns
outcomes in cell order.  Because every cell constructs its workload
and machine fresh inside :func:`~repro.runner.cells.run_cell`, the
serialised results are bit-identical however the cells were scheduled.

Dispatch is one cell per submission (DESIGN.md §16): the parent pickles
each cell once, submits the bytes to :func:`_run_pickled`, and keeps at
most ``workers`` cells in flight.  Each call builds its own pool and
shuts it down before returning; the workers are forked whatever the
interpreter's default start method, so they inherit the parent's
imports, and each exits on its own if its parent dies.

A sweep is never lost to one bad cell.  Every cell produces a
:class:`CellOutcome` whose ``status`` says how it ended:

``"ok"`` / ``"cached"``
    A result, freshly simulated or bit-identical from the cache.
``"failed"``
    The cell raised, or it took a worker process down with it.  A cell
    is a deterministic function of its inputs, so a failed cell is not
    retried: it would fail again.

A worker process dying (``BrokenProcessPool``) kills every in-flight
future, so the driver cannot tell the killer from its neighbours: every
cell that was in flight goes to quarantine, the pool is rebuilt — up to
:data:`MAX_POOL_RESTARTS` times — and each quarantined cell is re-probed
alone; a probe that breaks the pool is the killer and is marked failed.
Once restarts are exhausted the cells never in flight during a break run
inline, and the quarantined ones are marked failed (a genuine killer
would take the parent down too).  With ``on_error="raise"`` (what the
experiments and the AutoTuner use) any failed outcome raises
:class:`~repro.errors.CellExecutionError` carrying the full outcome list.

:func:`runner_session` sets ambient worker-count and cache defaults so
callers several layers up (``repro.experiments.run_all``, a benchmark
running experiments one by one) can parallelise and cache every
``execute_cells`` call underneath without threading arguments through
each experiment's ``run`` method.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.errors import CellExecutionError, RunnerError
from repro.obs.log import get_logger
from repro.runner.cache import ResultCache
from repro.runner.cells import Cell, CellRun, cell_run_id, run_cell
from repro.sim.stats import RunResult

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "CellOutcome",
    "execute_cells",
    "runner_session",
    "active_session",
    "RunnerSession",
    "MAX_POOL_RESTARTS",
]

_log = get_logger("runner")

#: How many times one ``execute_cells`` call rebuilds a broken process
#: pool before running whatever is left inline.
MAX_POOL_RESTARTS = 2
#: How often a pool worker checks that its parent is still alive.
_PARENT_POLL_S = 0.2


@dataclass
class CellOutcome:
    """One cell's result plus how it was obtained (or why it wasn't)."""

    cell: Cell
    #: None when :attr:`status` is ``"failed"``.
    result: Optional[RunResult]
    #: The canonical serialised form (what the cache stores and what
    #: determinism tests compare); None when there is no result.
    result_json: Optional[str]
    run_id: str
    #: ``pid<N>`` of the process that simulated, or ``"cache"``.
    worker: str
    cached: bool
    wall_s: float
    #: ``"ok"`` | ``"cached"`` | ``"failed"``.
    status: str = "ok"
    #: Human-readable failure description (failed outcomes only).
    error: Optional[str] = None
    #: ``Machine.path_counts()`` of the simulation; empty when nothing
    #: ran (cache hits, failures).
    path_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class _Job:
    """One pending cell: scheduling state the driver threads through."""

    index: int
    cell: Cell
    key: Optional[str]
    #: The cell pickled exactly once in the parent (None: unpicklable).
    payload: Optional[bytes] = None


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent is gone.

    An idle worker blocks reading the executor's call queue, and its
    siblings hold that queue's write end, so when the parent is killed
    with SIGKILL the read never reaches EOF and the worker would sleep
    forever.  A daemon thread polls ``os.getppid()`` instead and exits
    the worker as soon as it has been re-parented.  The parent is read
    here, in the worker, not passed in: under the ``forkserver`` start
    method a worker's parent is the fork server, not the pool's builder.
    """
    parent_pid = os.getppid()

    def watch() -> None:  # pragma: no cover - runs inside pool workers
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


@dataclass
class RunnerSession:
    """Ambient execution defaults installed by :func:`runner_session`."""

    workers: int = 1
    cache: Optional[ResultCache] = None


_session: Optional[RunnerSession] = None


def active_session() -> Optional[RunnerSession]:
    return _session


@contextmanager
def runner_session(
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Iterator[RunnerSession]:
    """Install ambient runner defaults for the block.

    Every :func:`execute_cells` call inside the block — including the
    one an experiment's ``run`` makes for its declared cells — inherits
    ``workers`` and the cache unless explicitly overridden.
    """
    global _session
    previous = _session
    session = RunnerSession(
        workers=max(1, int(workers)),
        cache=ResultCache(cache_dir) if cache_dir is not None else None,
    )
    _session = session
    try:
        yield session
    finally:
        _session = previous


def _coerce_cache(cache: Union[ResultCache, str, Path, None]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _run_pickled(payload: bytes) -> CellRun:
    """Worker entry point: the parent pickled the cell exactly once.

    Shipping the pre-pickled bytes (instead of the cell object) means
    the cell graph is serialised a single time, by the parent's probe
    for picklability, not again inside ``submit``.
    """
    return run_cell(pickle.loads(payload))


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def execute_cells(
    cells: Sequence[Cell],
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, Path, None] = None,
    on_error: str = "return",
) -> List[CellOutcome]:
    """Run every cell; outcomes come back in cell order, one per cell.

    ``workers`` and ``cache`` default to the ambient
    :func:`runner_session` (serial and uncached when none is active).
    Cache hits skip simulation entirely — the workload factory is never
    called — and a stored payload that fails to parse is treated as a
    miss and evicted, not an exception.  Cells whose factory cannot
    pickle (lambdas, closures) fall back to inline execution instead of
    failing; they produce identical results, just without the
    parallelism.

    ``on_error="return"`` reports failures as structured outcomes
    (``status``/``error``); ``"raise"`` raises
    :class:`~repro.errors.CellExecutionError` after the whole sweep ran,
    with every outcome attached.
    """
    if on_error not in ("return", "raise"):
        raise RunnerError(f'on_error must be "return" or "raise", got {on_error!r}')
    session = _session
    if workers is None:
        workers = session.workers if session is not None else 1
    workers = max(1, int(workers))
    resolved_cache = _coerce_cache(cache)
    if resolved_cache is None and session is not None:
        resolved_cache = session.cache

    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    jobs: List[_Job] = []

    for i, cell in enumerate(cells):
        key = resolved_cache.key_for(cell) if resolved_cache is not None else None
        if key is not None:
            loaded = resolved_cache.load_result(key)
            if loaded is not None:
                text, result = loaded
                meta = resolved_cache.load_meta(key)
                run_id = str(meta.get("run_id", key[:12]))
                outcomes[i] = CellOutcome(
                    cell=cell,
                    result=result,
                    result_json=text,
                    run_id=run_id,
                    worker="cache",
                    cached=True,
                    wall_s=0.0,
                    status="cached",
                )
                continue
        jobs.append(_Job(index=i, cell=cell, key=key))

    def finish(job: _Job, run: CellRun) -> None:
        if job.key is not None and resolved_cache is not None:
            resolved_cache.store(
                job.key,
                run.result_json,
                meta={
                    "run_id": run.run_id,
                    "workload": run.workload,
                    "machine": job.cell.spec.name,
                    "seed": job.cell.seed,
                    "worker": run.worker,
                    "wall_s": run.wall_s,
                },
            )
        outcomes[job.index] = CellOutcome(
            cell=job.cell,
            result=RunResult.from_json(run.result_json),
            result_json=run.result_json,
            run_id=run.run_id,
            worker=run.worker,
            cached=False,
            wall_s=run.wall_s,
            status="ok",
            path_counts=run.path_counts,
        )

    def fail(job: _Job, error: str) -> None:
        outcomes[job.index] = CellOutcome(
            cell=job.cell,
            result=None,
            result_json=None,
            run_id=cell_run_id(job.cell, "?"),
            worker="none",
            cached=False,
            wall_s=0.0,
            status="failed",
            error=error,
        )

    inline: List[_Job] = []
    pooled: List[_Job] = []
    if workers > 1 and jobs:
        for job in jobs:
            try:
                job.payload = pickle.dumps(job.cell)
            except Exception:
                _log.info(
                    "%s",
                    f"cell {cell_run_id(job.cell, '?')}: factory not picklable, running inline",
                )
                inline.append(job)
            else:
                pooled.append(job)
    else:
        inline = jobs

    if pooled:
        inline.extend(_drive_pool(pooled, workers, finish, fail))

    for job in inline:
        try:
            run = run_cell(job.cell)
        except Exception as exc:
            fail(job, _describe(exc))
        else:
            finish(job, run)

    missing = [i for i, o in enumerate(outcomes) if o is None]
    if missing:  # pragma: no cover - every path above fills its slot
        raise RunnerError(f"internal: cells {missing} produced no outcome")
    complete: List[CellOutcome] = [o for o in outcomes if o is not None]
    failed = [o for o in complete if not o.ok]
    if failed and on_error == "raise":
        head = "; ".join(f"{o.run_id}: {o.error}" for o in failed[:3])
        more = "" if len(failed) <= 3 else f" (+{len(failed) - 3} more)"
        raise CellExecutionError(
            f"{len(failed)}/{total} cells failed: {head}{more}", tuple(complete)
        )
    return complete


def _drive_pool(
    pooled: Sequence[_Job],
    workers: int,
    finish: Callable[[_Job, CellRun], None],
    fail: Callable[[_Job, str], None],
) -> List[_Job]:
    """Run picklable jobs through a pool; returns jobs left for inline.

    One cell per submission, at most ``workers`` in flight; a cell that
    raises fails only itself.  Survives worker death: ``BrokenProcessPool``
    fails *every* in-flight future at once, so the killer cannot be
    identified from the wreckage.  Everything that was in flight goes to
    quarantine, the pool is rebuilt (bounded by :data:`MAX_POOL_RESTARTS`),
    and quarantined jobs are re-probed **one at a time** once the clean
    queue is empty — a solo probe that takes the pool down is blamed with
    certainty and marked failed; a probe that completes is exonerated.
    Quarantined jobs never fall back to inline execution (a genuine killer
    would take the parent process with it); only clean jobs are returned
    for inline when restarts are exhausted.
    """
    # Imported here: concurrent.futures.process pulls in multiprocessing,
    # which a serial process never needs.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    fork = multiprocessing.get_context("fork")

    queue: Deque[_Job] = deque(pooled)
    quarantine: Deque[_Job] = deque()
    restarts = 0
    while queue or quarantine:
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=fork, initializer=_exit_with_parent
        )
        in_flight: Dict[Future[CellRun], _Job] = {}
        probe: Optional[_Job] = None
        broke = False

        def submit(source: Deque[_Job]) -> None:
            # Pop only once submitted: on a broken pool the job stays queued.
            future = executor.submit(_run_pickled, source[0].payload)  # type: ignore[arg-type]
            in_flight[future] = source.popleft()

        try:
            while not broke:
                while queue and len(in_flight) < workers:
                    submit(queue)
                if not in_flight and quarantine:
                    probe = quarantine[0]
                    _log.info(
                        "%s",
                        f"cell {cell_run_id(probe.cell, '?')}: re-probing solo "
                        f"after a pool break",
                    )
                    submit(quarantine)
                if not in_flight:
                    break
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    error = future.exception()
                    if isinstance(error, BrokenProcessPool):
                        broke = True  # its job stays in flight: a suspect
                        continue
                    job = in_flight.pop(future)
                    if error is None:
                        finish(job, future.result())
                    else:
                        fail(job, _describe(error))
        except BrokenProcessPool:  # submit() on a pool that broke since the last wait
            broke = True
        finally:
            executor.shutdown(wait=not broke, cancel_futures=True)
        if not broke:
            continue
        restarts += 1
        _log.warning(
            "%s",
            f"process pool broke (restart {restarts}/{MAX_POOL_RESTARTS}); "
            f"{len(in_flight)} cells were in flight",
        )
        suspects = list(in_flight.values())
        if len(suspects) == 1 and suspects[0] is probe:
            # It was alone in the pool: certain blame.
            fail(suspects[0], "worker process died while running this cell (solo probe)")
        else:
            quarantine.extend(suspects)
        if restarts > MAX_POOL_RESTARTS:
            for job in quarantine:
                fail(
                    job,
                    "pool restarts exhausted; cell was in flight during a "
                    "break and is not safe to run inline",
                )
            _log.warning(
                "%s", f"pool restarts exhausted; running {len(queue)} clean cells inline"
            )
            return list(queue)
    return []
