"""repro.runner: shard experiment cells across worker processes.

The runner turns any sweep — the cells every registered experiment
declares (one sweep for ``prestores-experiments --all``), an AutoTuner
measurement pair — into a list of :class:`~repro.runner.cells.Cell`
values and executes them through one
:func:`~repro.runner.pool.execute_cells` entry point, with

* **determinism** — a cell constructs its workload and machine fresh
  inside the worker, so the serialised ``RunResult`` is bit-identical
  whether it ran serially, in a 4-way pool, or came from the cache;
* **a content-addressed cache** — keyed on factory identity, machine
  spec, mode/patches, seed, and a fingerprint of the simulator sources
  (:class:`~repro.runner.cache.ResultCache`); and
* **resumable sweeps** — :func:`~repro.runner.grid.run_grid` journals
  terminal outcomes and skips completed cells on a re-run
  (``python -m repro.runner sweep``, ``make sweep-smoke``).

See DESIGN.md ("The runner") for the sharding model and cache-key
contract.
"""

from repro.errors import CellExecutionError, RunnerError
from repro.runner.cache import ResultCache
from repro.runner.cells import (
    Cell,
    CellRun,
    cache_key,
    code_fingerprint,
    describe_factory,
    run_cell,
)
from repro.runner.grid import Grid, load_journal, run_grid
from repro.runner.monitor import SweepEvent, SweepMonitor
from repro.runner.pool import (
    CellOutcome,
    RunnerSession,
    active_session,
    execute_cells,
    retry_delay,
    runner_session,
)

__all__ = [
    "Cell",
    "CellRun",
    "CellExecutionError",
    "CellOutcome",
    "Grid",
    "ResultCache",
    "RunnerError",
    "RunnerSession",
    "SweepEvent",
    "SweepMonitor",
    "active_session",
    "cache_key",
    "code_fingerprint",
    "describe_factory",
    "execute_cells",
    "load_journal",
    "retry_delay",
    "run_cell",
    "run_grid",
    "runner_session",
]
