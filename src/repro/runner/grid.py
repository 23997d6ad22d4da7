"""Declarative parameter grids and resumable sweep execution.

The config-matrix shape of the paper's evaluation — machines × modes ×
workloads × seeds — made first-class: a :class:`Grid` expands its axes
into the runner's :class:`~repro.runner.cells.Cell` list in a fixed
row-major order, and :func:`run_grid` executes it with an append-only
**outcome journal** so a killed sweep restarts where it stopped.

The journal protocol (DESIGN.md §16) is one JSON line per event:

* a ``begin`` line per invocation (total cells, code fingerprint), then
* one ``outcome`` line per terminal cell, appended and flushed *as the
  sweep runs* (via the pool's event-bus seam), so a ``kill -9`` loses at
  most the in-flight cells.

Completed (``ok``/``cached``) lines carry the cell's content-addressed
cache key and its canonical ``result_json`` verbatim; on re-run with
``resume=True`` those cells are skipped and their outcomes rebuilt from
the journal — byte-identical to a fresh run, because the key already
embeds the code fingerprint (a journal written by an older tree simply
never matches).  ``failed``/``timeout`` lines are recorded for
observability but never resumed: those cells run again.  A torn final
line (the kill landed mid-write) is skipped, not fatal.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.prestore import PrestoreMode
from repro.obs.log import get_logger
from repro.runner.cells import Cell, cache_key, code_fingerprint
from repro.runner.monitor import SweepEvent
from repro.runner.pool import CellOutcome, EventBus, execute_cells
from repro.sim.machine import MachineSpec
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["Grid", "run_grid", "load_journal", "JOURNAL_SCHEMA"]

_log = get_logger("grid")

JOURNAL_SCHEMA = "repro.sweep_journal/v1"

#: Terminal statuses a journal entry can resume (they carry a result).
_RESUMABLE = ("ok", "cached")


@dataclass(frozen=True)
class Grid:
    """A declarative sweep: axes that expand into a cell list.

    Cells come out in row-major order — factories slowest, seeds
    fastest — so a grid's expansion is stable across runs (the resume
    protocol and bit-identity comparisons rely on that).

    ``factories`` are the same zero-argument workload factories
    :class:`~repro.runner.cells.Cell` takes (module-level callables and
    :func:`functools.partial` over them cache and journal; lambdas run
    but do neither).
    """

    factories: Sequence[Callable[[], Workload]]
    machines: Sequence[MachineSpec]
    modes: Sequence[Optional[PrestoreMode]] = (PrestoreMode.NONE,)
    seeds: Sequence[int] = (1234,)
    endorsed_only: bool = True
    obs: bool = False
    sanitize: bool = False
    crashcheck: bool = False
    #: Fault-plan axis (e.g. steady / degraded / crash): None or an empty
    #: plan is the plain, bit-identical run.
    fault_plans: Sequence[Optional["FaultPlan"]] = (None,)

    def __post_init__(self) -> None:
        # Freeze the axes: a Grid is a value, not a mutable builder.
        for name in ("factories", "machines", "modes", "fault_plans", "seeds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def __len__(self) -> int:
        return (
            len(self.factories)
            * len(self.machines)
            * len(self.modes)
            * len(self.fault_plans)
            * len(self.seeds)
        )

    def cells(self) -> List[Cell]:
        """The expanded cell list, row-major over the axes."""
        return [
            Cell(
                make_workload=factory,
                spec=spec,
                mode=mode,
                seed=seed,
                endorsed_only=self.endorsed_only,
                obs=self.obs,
                sanitize=self.sanitize,
                crashcheck=self.crashcheck,
                fault_plan=plan,
            )
            for factory, spec, mode, plan, seed in itertools.product(
                self.factories, self.machines, self.modes, self.fault_plans, self.seeds
            )
        ]

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells())


def load_journal(path: Union[str, Path]) -> Dict[str, Dict[str, object]]:
    """Resumable entries of a journal: cache key -> newest outcome line.

    Tolerates a missing file, unparseable (torn) lines, and unknown
    kinds; only ``ok``/``cached`` outcomes with a key and a result are
    candidates, and the newest line per key wins.
    """
    entries: Dict[str, Dict[str, object]] = {}
    journal = Path(path)
    if not journal.is_file():
        return entries
    try:
        lines = journal.read_text().splitlines()
    except OSError:
        return entries
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue  # torn tail from a killed writer
        if not isinstance(doc, dict) or doc.get("kind") != "outcome":
            continue
        key = doc.get("key")
        if (
            isinstance(key, str)
            and doc.get("status") in _RESUMABLE
            and isinstance(doc.get("result_json"), str)
        ):
            entries[key] = doc
    return entries


@dataclass
class _JournalWriter:
    """Event-bus tee: forward to the user's bus, append outcome lines.

    Lives on the pool's ``events=`` seam so lines land (and flush) the
    moment each cell finishes — what makes kill-and-resume lose at most
    the in-flight cells.  A raising user subscriber is detached here
    (mirroring the pool's own policy) so journaling survives it; a
    journal write failure is logged and disables further writes rather
    than failing the sweep.
    """

    path: Path
    #: Cache key per pending cell, aligned with the sweep's indices.
    keys: Sequence[Optional[str]]
    user_bus: EventBus = None
    _fh: Optional[IO[str]] = field(default=None, repr=False)
    _broken: bool = False

    def __call__(self, event: SweepEvent) -> None:
        if self.user_bus is not None:
            try:
                self.user_bus(event)
            except Exception:
                self.user_bus = None
                _log.warning("journal tee: user subscriber raised; detaching it", exc_info=True)
        if event.kind not in ("finish", "cache_hit", "timeout", "failed"):
            return
        outcome = event.outcome
        if outcome is None or self._broken:
            return
        key = self.keys[event.index] if 0 <= event.index < len(self.keys) else None
        doc: Dict[str, object] = {
            "kind": "outcome",
            "key": key,
            "run_id": outcome.run_id,
            "status": outcome.status,
            "worker": outcome.worker,
            "wall_s": round(outcome.wall_s, 6),
            "attempts": outcome.attempts,
        }
        if outcome.status in _RESUMABLE and outcome.result_json is not None:
            doc["result_json"] = outcome.result_json
        if outcome.error:
            doc["error"] = outcome.error
        self._write(doc)

    def begin(self, total: int, resumed: int) -> None:
        self._write(
            {
                "kind": "begin",
                "schema": JOURNAL_SCHEMA,
                "total": total,
                "resumed": resumed,
                "fingerprint": code_fingerprint(),
                "t": time.time(),
            }
        )

    def _write(self, doc: Dict[str, object]) -> None:
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a")
            self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
            self._fh.flush()
        except OSError:
            self._broken = True
            _log.warning("journal write failed; disabling journaling", exc_info=True)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def run_grid(
    grid: Union[Grid, Sequence[Cell]],
    journal: Union[str, Path, None] = None,
    resume: bool = True,
    limit: Optional[int] = None,
    events: EventBus = None,
    **execute_kw: object,
) -> List[CellOutcome]:
    """Execute a grid (or explicit cell list), resumably.

    With a ``journal`` path, every terminal outcome is appended as the
    sweep runs; when ``resume`` is true, cells whose completed outcome
    is already journalled are *not* re-executed — their outcomes come
    back rebuilt from the journal (``worker="journal"``, ``cached``),
    with ``result_json`` byte-identical to the original run.

    ``limit`` caps how many pending cells this invocation executes
    (the rest stay pending for the next resume) — the deterministic
    stand-in for a killed sweep in tests and smoke jobs.

    Remaining keyword arguments (``workers``, ``cache``, ``chunk_size``,
    ``retries``, ``timeout_s``, ``progress``, ``on_error``) pass through
    to :func:`~repro.runner.pool.execute_cells`; outcomes return in grid
    order (resumed cells first-class among them).  Cells that were
    neither resumed nor executed (beyond ``limit``) produce no outcome.
    """
    cells = grid.cells() if isinstance(grid, Grid) else list(grid)
    keys = [cache_key(cell) for cell in cells]
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)

    resumed = 0
    if journal is not None and resume:
        from repro.sim.stats import RunResult

        journalled = load_journal(journal)
        for i, key in enumerate(keys):
            entry = journalled.get(key) if key is not None else None
            if entry is None:
                continue
            text = str(entry["result_json"])
            try:
                result = RunResult.from_json(text)
            except Exception:
                continue  # corrupt journal payload: just re-run the cell
            outcomes[i] = CellOutcome(
                cell=cells[i],
                result=result,
                result_json=text,
                run_id=str(entry.get("run_id", "")),
                worker="journal",
                cached=True,
                wall_s=0.0,
                status="cached",
                attempts=0,
            )
            resumed += 1

    pending = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if limit is not None:
        pending = pending[: max(0, int(limit))]

    writer: Optional[_JournalWriter] = None
    bus: EventBus = events
    if journal is not None:
        writer = _JournalWriter(
            path=Path(journal),
            keys=[keys[i] for i in pending],
            user_bus=events,
        )
        writer.begin(total=len(cells), resumed=resumed)
        bus = writer
    try:
        if pending:
            executed = execute_cells(
                [cells[i] for i in pending], events=bus, **execute_kw  # type: ignore[arg-type]
            )
            for slot, outcome in zip(pending, executed):
                outcomes[slot] = outcome
    finally:
        if writer is not None:
            writer.close()
    return [outcome for outcome in outcomes if outcome is not None]
