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
  (:class:`~repro.runner.cache.ResultCache`).  The cache is also how a
  killed sweep resumes: every finished cell is stored as it completes,
  so re-running the same sweep with the same cache directory
  (``prestores-experiments ... --cache-dir DIR``) simulates only the
  cells the kill lost.

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
    "ResultCache",
    "RunnerError",
    "RunnerSession",
    "active_session",
    "cache_key",
    "code_fingerprint",
    "describe_factory",
    "execute_cells",
    "retry_delay",
    "run_cell",
    "runner_session",
]

