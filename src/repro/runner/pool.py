"""Process-pool execution of cells, with caching, retries, and fault tolerance.

:func:`execute_cells` is the one entry point: it resolves each cell
against the :class:`~repro.runner.cache.ResultCache` (when one is
configured), runs the misses — in a ``ProcessPoolExecutor`` when
``workers > 1`` and the cell pickles, inline otherwise — and returns
outcomes in cell order.  Because every cell constructs its workload
and machine fresh inside :func:`~repro.runner.cells.run_cell`, the
serialised results are bit-identical however the cells were scheduled.

Throughput comes from two mechanisms (DESIGN.md §16):

* **persistent warm workers** — pools start with
  :func:`_pool_initializer`, which pre-imports the simulator stack and
  primes per-preset construction caches (PLRU LUTs, module imports), and
  a :func:`runner_session` keeps one pool alive across every
  ``execute_cells`` call in the block, so spawn + import cost is paid
  once per session, not once per sweep;
* **chunked dispatch** — cells are submitted in size-adaptive chunks
  (:func:`_auto_chunk_size`), amortising pickle/future/IPC overhead;
  the worker runs each cell of a chunk independently and reports
  per-cell results, so one failing cell never takes its chunk-mates'
  results down — it is isolated and re-run solo through the normal
  retry path, and per-cell SweepEvents are unchanged.

A sweep is never lost to one bad cell.  Every cell produces a
:class:`CellOutcome` whose ``status`` says how it ended:

``"ok"`` / ``"cached"``
    A result, freshly simulated or bit-identical from the cache.
``"failed"``
    The cell raised (after ``retries`` bounded-backoff re-attempts) or
    repeatedly took the worker process down with it.
``"timeout"``
    The cell exceeded ``timeout_s``; its worker is abandoned, the rest
    of the sweep continues.  Timeouts are not retried.  (A timeout
    budget forces chunks of one cell, so the deadline stays per-cell.)

A worker process dying (``BrokenProcessPool``) kills every in-flight
future, so the driver rebuilds the pool — up to :data:`MAX_POOL_RESTARTS`
times — and requeues the unfinished cells; a cell that brings the pool
down :data:`MAX_CELL_BREAKS` times is marked failed instead of requeued,
and once restarts are exhausted whatever remains runs inline.  With
``on_error="raise"`` (what the experiments and the AutoTuner use) any
non-ok outcome raises :class:`~repro.errors.CellExecutionError` carrying
the full outcome list.

Retry backoff is exponential with **deterministic jitter** seeded from
the cell's run id (:func:`retry_delay`), so retry timing — and the
SweepEvent order within one cell — is reproducible run to run.

:func:`runner_session` sets ambient worker-count/cache/retry/chunking
defaults so callers several layers up (``repro.experiments.run_all``,
a benchmark running experiments one by one) can parallelise and cache
every ``execute_cells`` call underneath without threading arguments
through each experiment's ``run`` method.
"""

from __future__ import annotations

import math
import pickle
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import CellExecutionError, RunnerError
from repro.obs.log import get_logger
from repro.runner.cache import ResultCache
from repro.runner.cells import Cell, CellRun, cell_run_id, run_cell
from repro.runner.monitor import SweepEvent
from repro.sim.stats import RunResult

__all__ = [
    "CellOutcome",
    "execute_cells",
    "runner_session",
    "active_session",
    "retry_delay",
    "RunnerSession",
    "MAX_POOL_RESTARTS",
    "MAX_CELL_BREAKS",
    "MAX_CHUNK_CELLS",
]

_log = get_logger("runner")

Progress = Optional[Callable[[str], None]]
#: The event-bus seam: anything callable that accepts a SweepEvent
#: (e.g. :class:`repro.runner.monitor.SweepMonitor`).
EventBus = Optional[Callable[[SweepEvent], None]]

#: How many times one ``execute_cells`` call rebuilds a broken process
#: pool before running whatever is left inline.
MAX_POOL_RESTARTS = 2
#: A cell whose worker dies with the pool this many times is marked
#: failed rather than requeued — it is almost certainly the killer.
MAX_CELL_BREAKS = 2
#: Upper bound on cells per dispatch chunk: big enough to amortise IPC,
#: small enough that a late straggler chunk cannot starve the pool.
MAX_CHUNK_CELLS = 32
#: Adaptive chunking targets this many chunks per worker, so the tail
#: of a sweep still load-balances across the pool.
_CHUNKS_PER_WORKER = 4


@dataclass
class CellOutcome:
    """One cell's result plus how it was obtained (or why it wasn't)."""

    cell: Cell
    #: None when :attr:`status` is ``"failed"`` or ``"timeout"``.
    result: Optional[RunResult]
    #: The canonical serialised form (what the cache stores and what
    #: determinism tests compare); None when there is no result.
    result_json: Optional[str]
    run_id: str
    #: ``pid<N>`` of the process that simulated, ``"cache"``, or
    #: ``"journal"`` for outcomes resumed from a sweep journal.
    worker: str
    cached: bool
    wall_s: float
    #: ``"ok"`` | ``"cached"`` | ``"failed"`` | ``"timeout"``.
    status: str = "ok"
    #: Human-readable failure description (non-ok outcomes only).
    error: Optional[str] = None
    #: Execution attempts consumed (0 for cache hits).
    attempts: int = 1
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
    #: Execution attempts consumed so far.
    attempts: int = 0
    #: Times this job's future died with the pool (BrokenProcessPool).
    breaks: int = 0


def retry_delay(run_id: str, attempt: int, backoff_s: float) -> float:
    """Exponential backoff with jitter seeded from the cell's run id.

    The jitter factor is drawn from ``Random(f"{run_id}#{attempt}")``,
    uniform in ``[0.5, 1.5)`` — decorrelated across cells (so a burst of
    failures does not retry in lockstep) yet bit-reproducible for a
    given cell and attempt, which keeps retry timing and per-cell
    SweepEvent ordering deterministic in tests.
    """
    base = backoff_s * (2 ** (max(1, attempt) - 1))
    jitter = random.Random(f"{run_id}#{attempt}").random()
    return base * (0.5 + jitter)


def _auto_chunk_size(n_jobs: int, workers: int) -> int:
    """Cells per chunk: ~4 chunks per worker, capped, never below 1."""
    return max(1, min(MAX_CHUNK_CELLS, math.ceil(n_jobs / (workers * _CHUNKS_PER_WORKER))))


def _pool_initializer() -> None:
    """Warm a fresh worker before it takes cells (best-effort).

    Pre-imports the simulator/workload/experiment stack and constructs
    one throwaway :class:`~repro.sim.machine.Machine` per common preset,
    priming process-wide caches (tree-PLRU victim LUTs, module import
    machinery) so the first real cell pays simulation cost only.  Any
    failure here is swallowed: warming is an optimisation, never a
    correctness dependency.
    """
    try:  # pragma: no cover - exercised inside pool workers
        import repro.experiments.common  # noqa: F401
        import repro.workloads.microbench  # noqa: F401
        import repro.workloads.nas  # noqa: F401
        from repro.sim.machine import Machine, machine_a, machine_b_fast

        for preset in (machine_a, machine_b_fast):
            Machine(preset())
    except Exception:  # pragma: no cover - warming must never break a pool
        pass


def _new_executor(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_pool_initializer)


@dataclass
class RunnerSession:
    """Ambient execution defaults installed by :func:`runner_session`."""

    workers: int = 1
    cache: Optional[ResultCache] = None
    timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.5
    #: None: size-adaptive (:func:`_auto_chunk_size`); 1 disables chunking.
    chunk_size: Optional[int] = None
    _executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> Optional[ProcessPoolExecutor]:
        """A warm pool shared across the session's execute_cells calls."""
        if self.workers > 1 and self._executor is None:
            self._executor = _new_executor(self.workers)
        return self._executor

    def invalidate_executor(self) -> None:
        """Drop a broken pool so the next call builds a fresh one."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


_session: Optional[RunnerSession] = None


def active_session() -> Optional[RunnerSession]:
    return _session


@contextmanager
def runner_session(
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    chunk_size: Optional[int] = None,
    cache_max_bytes: Optional[int] = None,
) -> Iterator[RunnerSession]:
    """Install ambient runner defaults (and one shared warm process pool).

    Every :func:`execute_cells` call inside the block — including the
    one an experiment's ``run`` makes for its declared cells — inherits
    ``workers``, the cache, chunking, and the retry policy unless
    explicitly overridden.  The pool is created once, warmed by
    :func:`_pool_initializer`, and reused by every call in the block.
    """
    global _session
    previous = _session
    session = RunnerSession(
        workers=max(1, int(workers)),
        cache=ResultCache(cache_dir, max_bytes=cache_max_bytes) if cache_dir is not None else None,
        timeout_s=timeout_s,
        retries=max(0, int(retries)),
        backoff_s=backoff_s,
        chunk_size=chunk_size,
    )
    _session = session
    try:
        yield session
    finally:
        _session = previous
        session.close()


def _coerce_cache(cache: Union[ResultCache, str, Path, None]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _run_pickled(payload: bytes) -> CellRun:
    """Worker entry point: the parent pickled the cell exactly once.

    Shipping the pre-pickled bytes (instead of the cell object) means
    the cell graph is serialised a single time per submission — the old
    path pickled it twice, once in a probe and again inside ``submit``.
    """
    return run_cell(pickle.loads(payload))


#: Per-cell chunk result: ``("ok", CellRun)`` or ``("error", message)``.
_ChunkItem = Tuple[str, object]


def _run_chunk(payloads: Tuple[bytes, ...]) -> List[_ChunkItem]:
    """Worker entry point for a chunk: run each cell independently.

    One submission carries many cells (amortising pickle + future + IPC
    overhead), but each cell still runs in its own fresh-workload,
    fresh-machine world, so results are byte-identical to per-cell
    dispatch.  A raising cell is reported as an ``("error", message)``
    item in its slot — its chunk-mates' results survive, and the parent
    re-runs the failure solo through the normal retry path.
    """
    items: List[_ChunkItem] = []
    for payload in payloads:
        try:
            items.append(("ok", run_cell(pickle.loads(payload))))
        except Exception as exc:
            items.append(("error", f"{type(exc).__name__}: {exc}"))
    return items


class _PoolBroke(Exception):
    """Internal: the process pool died while ``chunk`` was in flight."""

    def __init__(self, chunk: List[_Job]) -> None:
        self.chunk = chunk
        super().__init__("process pool broke")


def execute_cells(
    cells: Sequence[Cell],
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, Path, None] = None,
    progress: Progress = None,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    backoff_s: Optional[float] = None,
    chunk_size: Optional[int] = None,
    on_error: str = "return",
    events: EventBus = None,
) -> List[CellOutcome]:
    """Run every cell; outcomes come back in cell order, one per cell.

    ``workers``/``cache``/retry/chunking policy default to the ambient
    :func:`runner_session` (serial, uncached, no retries, adaptive
    chunks when none is active).  Cache hits skip simulation entirely —
    the workload factory is never called — and a stored payload that
    fails to parse is treated as a miss and evicted, not an exception.
    Cells whose factory cannot pickle (lambdas, closures) fall back to
    inline execution instead of failing; they produce identical
    results, just without the parallelism.

    ``chunk_size`` bounds how many cells ride one pool submission
    (None: adaptive via :func:`_auto_chunk_size`; results are identical
    at any value).  A ``timeout_s`` budget forces chunks of one so the
    deadline applies per cell, exactly as before.

    ``on_error="return"`` reports failures as structured outcomes
    (``status``/``error``/``attempts``); ``"raise"`` raises
    :class:`~repro.errors.CellExecutionError` after the whole sweep ran,
    with every outcome attached.

    ``events`` is the observability seam (DESIGN.md §14): every
    lifecycle edge — sweep begin/end, cache hit, submit, finish, retry,
    timeout, failure, quarantine — is delivered as a
    :class:`~repro.runner.monitor.SweepEvent` to the callable, *after*
    the outcome exists, so a subscriber can never influence results
    (attaching one changes no RunResult byte).  Chunked dispatch emits
    the same per-cell events.  A subscriber that raises is detached
    with a warning rather than failing the sweep.
    """
    if on_error not in ("return", "raise"):
        raise RunnerError(f'on_error must be "return" or "raise", got {on_error!r}')
    session = _session
    if workers is None:
        workers = session.workers if session is not None else 1
    workers = max(1, int(workers))
    if timeout_s is None and session is not None:
        timeout_s = session.timeout_s
    if retries is None:
        retries = session.retries if session is not None else 0
    retries = max(0, int(retries))
    if backoff_s is None:
        backoff_s = session.backoff_s if session is not None else 0.5
    if chunk_size is None and session is not None:
        chunk_size = session.chunk_size
    resolved_cache = _coerce_cache(cache)
    if resolved_cache is None and session is not None:
        resolved_cache = session.cache

    total = len(cells)
    outcomes: List[Optional[CellOutcome]] = [None] * total
    jobs: List[_Job] = []

    subscriber: List[EventBus] = [events]

    def emit_event(kind: str, **kw: object) -> None:
        """Deliver one SweepEvent; a raising subscriber is detached."""
        bus = subscriber[0]
        if bus is None:
            return
        try:
            bus(SweepEvent(kind=kind, total=total, **kw))  # type: ignore[arg-type]
        except Exception:
            subscriber[0] = None
            _log.warning("sweep event subscriber raised; detaching it", exc_info=True)

    emit_event("sweep_begin")

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
                    attempts=0,
                )
                _emit(progress, f"[{i + 1}/{total}] {run_id}: cache hit")
                emit_event(
                    "cache_hit",
                    index=i,
                    run_id=run_id,
                    worker="cache",
                    status="cached",
                    outcome=outcomes[i],
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
        result = RunResult.from_json(run.result_json)
        outcomes[job.index] = CellOutcome(
            cell=job.cell,
            result=result,
            result_json=run.result_json,
            run_id=run.run_id,
            worker=run.worker,
            cached=False,
            wall_s=run.wall_s,
            status="ok",
            attempts=max(1, job.attempts),
            path_counts=run.path_counts,
        )
        _emit(
            progress,
            f"[{job.index + 1}/{total}] {run.run_id}: {result.cycles:,.0f} cycles, "
            f"WA={result.write_amplification:.2f}x ({run.wall_s:.2f}s wall, {run.worker})",
        )
        emit_event(
            "finish",
            index=job.index,
            run_id=run.run_id,
            worker=run.worker,
            status="ok",
            wall_s=run.wall_s,
            attempts=max(1, job.attempts),
            outcome=outcomes[job.index],
        )

    def fail(job: _Job, status: str, error: str) -> None:
        run_id = cell_run_id(job.cell, "?")
        outcomes[job.index] = CellOutcome(
            cell=job.cell,
            result=None,
            result_json=None,
            run_id=run_id,
            worker="none",
            cached=False,
            wall_s=0.0,
            status=status,
            error=error,
            attempts=max(1, job.attempts),
        )
        _emit(progress, f"[{job.index + 1}/{total}] {run_id}: {status.upper()} — {error}")
        emit_event(
            status if status == "timeout" else "failed",
            index=job.index,
            run_id=run_id,
            worker="none",
            status=status,
            attempts=max(1, job.attempts),
            error=error,
            outcome=outcomes[job.index],
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
        leftovers = _drive_pool(
            pooled,
            workers,
            session,
            timeout_s,
            retries,
            backoff_s,
            chunk_size,
            finish,
            fail,
            emit_event,
        )
        inline.extend(leftovers)

    for job in inline:
        _run_inline(job, retries, backoff_s, finish, fail, emit_event)

    missing = [i for i, o in enumerate(outcomes) if o is None]
    if missing:  # pragma: no cover - every path above fills its slot
        raise RunnerError(f"internal: cells {missing} produced no outcome")
    emit_event("sweep_end")
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
    session: Optional[RunnerSession],
    timeout_s: Optional[float],
    retries: int,
    backoff_s: float,
    chunk_size: Optional[int],
    finish: Callable[[_Job, CellRun], None],
    fail: Callable[[_Job, str, str], None],
    emit_event: Callable[..., None],
) -> List[_Job]:
    """Run picklable jobs through a pool; returns jobs left for inline.

    Dispatch is chunked: each submission carries ``chunk_size`` cells
    (adaptive when None; forced to 1 under a per-cell timeout budget),
    the worker reports per-cell results, and the parent unpacks them
    into individual outcomes — a failure inside a chunk costs only that
    cell, which re-enters the bounded-retry path as a solo submission.

    Survives worker death.  ``BrokenProcessPool`` fails *every* in-flight
    future at once, so the killer cannot be identified from the wreckage:
    everything that was in flight goes to quarantine, the pool is rebuilt
    (bounded by :data:`MAX_POOL_RESTARTS`), and quarantined jobs are then
    re-probed **one at a time** — a solo probe that takes the pool down is
    blamed with certainty and marked failed; a probe that completes is
    exonerated.  Quarantined jobs never fall back to inline execution (a
    genuine killer would take the parent process with it); only clean
    jobs are returned for inline when restarts are exhausted.
    """
    if timeout_s is not None:
        size = 1  # the deadline is per cell; chunks would stretch it
    elif chunk_size is not None:
        size = max(1, int(chunk_size))
    else:
        size = _auto_chunk_size(len(pooled), workers)
    queue: Deque[List[_Job]] = deque(
        [list(pooled[i : i + size]) for i in range(0, len(pooled), size)]
    )
    quarantine: Deque[_Job] = deque()
    restarts = 0
    while queue or quarantine:
        executor, own = _acquire_executor(session, workers)
        futures: Dict[Future, List[_Job]] = {}
        deadlines: Dict[Future, float] = {}
        timed_out = False
        probe: Optional[_Job] = None

        def submit(chunk: List[_Job]) -> None:
            try:
                future = executor.submit(
                    _run_chunk, tuple(job.payload for job in chunk)  # type: ignore[misc]
                )
            except BrokenProcessPool:
                raise _PoolBroke(chunk)
            futures[future] = chunk
            if timeout_s is not None:
                deadlines[future] = time.monotonic() + timeout_s
            for job in chunk:
                emit_event("submit", index=job.index, run_id=cell_run_id(job.cell, "?"))

        def refill() -> None:
            nonlocal probe
            while queue and len(futures) < workers:
                submit(queue.popleft())
            if not futures and quarantine:
                probe = quarantine.popleft()
                _log.info(
                    "%s",
                    f"cell {cell_run_id(probe.cell, '?')}: re-probing solo "
                    f"after a pool break",
                )
                submit([probe])

        try:
            refill()
            while futures:
                done, _ = wait(
                    set(futures), timeout=_poll_timeout(deadlines), return_when=FIRST_COMPLETED
                )
                for future in done:
                    chunk = futures.pop(future)
                    deadlines.pop(future, None)
                    if probe is not None and any(job is probe for job in chunk):
                        probe = None
                    try:
                        items = future.result()
                    except BrokenProcessPool:
                        raise _PoolBroke(chunk)
                    except Exception as exc:
                        # The chunk itself failed to round-trip (result
                        # unpickling, executor internals): every member
                        # gets the error and its own retry budget.
                        items = [("error", f"{type(exc).__name__}: {exc}")] * len(chunk)
                    if len(items) < len(chunk):  # pragma: no cover - defensive
                        items = list(items) + [("error", "chunk returned too few results")] * (
                            len(chunk) - len(items)
                        )
                    for job, (tag, value) in zip(chunk, items):
                        if tag == "ok":
                            job.attempts += 1
                            finish(job, value)  # type: ignore[arg-type]
                            continue
                        job.attempts += 1
                        error = str(value)
                        if job.attempts <= retries:
                            run_id = cell_run_id(job.cell, "?")
                            delay = retry_delay(run_id, job.attempts, backoff_s)
                            _log.info(
                                "%s",
                                f"cell {run_id}: attempt {job.attempts} failed "
                                f"({error}); retrying in {delay:.2f}s",
                            )
                            emit_event(
                                "retry",
                                index=job.index,
                                run_id=run_id,
                                attempts=job.attempts,
                                error=error,
                            )
                            time.sleep(delay)
                            submit([job])
                        else:
                            fail(job, "failed", error)
                now = time.monotonic()
                for future in [f for f, dl in deadlines.items() if dl <= now]:
                    chunk = futures.pop(future)
                    deadlines.pop(future)
                    if probe is not None and any(job is probe for job in chunk):
                        probe = None
                    future.cancel()  # queued: cancelled; running: abandoned
                    timed_out = True
                    for job in chunk:
                        job.attempts += 1
                        fail(job, "timeout", f"cell exceeded timeout_s={timeout_s}")
                refill()
        except _PoolBroke as broke:
            restarts += 1
            broke_ids = {id(job) for job in broke.chunk}
            in_flight = list(broke.chunk) + [
                job
                for chunk in futures.values()
                for job in chunk
                if id(job) not in broke_ids
            ]
            solo_probe_broke = len(broke.chunk) == 1 and broke.chunk[0] is probe
            futures.clear()
            deadlines.clear()
            _log.warning(
                "%s",
                f"process pool broke (restart {restarts}/{MAX_POOL_RESTARTS}); "
                f"{len(in_flight)} cells were in flight",
            )
            if own:
                executor.shutdown(wait=False, cancel_futures=True)
            elif session is not None:
                session.invalidate_executor()
            for job in sorted(in_flight, key=lambda j: j.index):
                job.breaks += 1
                if solo_probe_broke and job is probe:
                    # It was alone in the pool: certain blame.
                    fail(
                        job,
                        "failed",
                        f"worker process died while running this cell "
                        f"(solo probe, {job.breaks} pool break(s))",
                    )
                elif job.breaks >= MAX_CELL_BREAKS:
                    fail(
                        job,
                        "failed",
                        f"worker process died with this cell in flight "
                        f"{job.breaks} times",
                    )
                else:
                    quarantine.append(job)
                    emit_event(
                        "quarantine",
                        index=job.index,
                        run_id=cell_run_id(job.cell, "?"),
                        attempts=job.attempts,
                        error=f"pool break {job.breaks}",
                    )
            if restarts > MAX_POOL_RESTARTS:
                for job in sorted(quarantine, key=lambda j: j.index):
                    fail(
                        job,
                        "failed",
                        "pool restarts exhausted; cell was in flight during a "
                        "break and is not safe to run inline",
                    )
                clean = sorted((job for chunk in queue for job in chunk), key=lambda j: j.index)
                _log.warning(
                    "%s",
                    f"pool restarts exhausted; running {len(clean)} clean cells inline",
                )
                return clean
        else:
            if own:
                # A timed-out worker may still be running; don't block on it.
                executor.shutdown(wait=not timed_out, cancel_futures=timed_out)
    return []


def _acquire_executor(
    session: Optional[RunnerSession], workers: int
) -> Tuple[ProcessPoolExecutor, bool]:
    """The session's shared warm pool when it matches, else a private one."""
    if session is not None and session.workers == workers:
        executor = session.executor()
        if executor is not None:
            return executor, False
    return _new_executor(workers), True


def _poll_timeout(deadlines: Dict[Future, float]) -> Optional[float]:
    """How long ``wait`` may block before a deadline needs checking."""
    if not deadlines:
        return None
    return max(0.0, min(deadlines.values()) - time.monotonic())


def _run_inline(
    job: _Job,
    retries: int,
    backoff_s: float,
    finish: Callable[[_Job, CellRun], None],
    fail: Callable[[_Job, str, str], None],
    emit_event: Callable[..., None],
) -> None:
    """Serial execution with the same bounded-retry policy as the pool."""
    while True:
        emit_event("submit", index=job.index, run_id=cell_run_id(job.cell, "?"))
        try:
            run = run_cell(job.cell)
        except Exception as exc:
            job.attempts += 1
            if job.attempts <= retries:
                run_id = cell_run_id(job.cell, "?")
                emit_event(
                    "retry",
                    index=job.index,
                    run_id=run_id,
                    attempts=job.attempts,
                    error=f"{type(exc).__name__}: {exc}",
                )
                time.sleep(retry_delay(run_id, job.attempts, backoff_s))
                continue
            fail(job, "failed", f"{type(exc).__name__}: {exc}")
            return
        else:
            job.attempts += 1
            finish(job, run)
            return


def _emit(progress: Progress, message: str) -> None:
    _log.info("%s", message)
    if progress is not None:
        progress(message)
