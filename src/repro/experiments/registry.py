"""Experiment framework: one registered experiment per paper table/figure.

Every experiment produces an :class:`ExperimentResult` — a list of
measured rows plus the paper's claim about their shape — and implements
:meth:`Experiment.check`, which verifies the *shape* (who wins, by
roughly what factor, where crossovers fall) rather than absolute cycle
counts (DESIGN.md §3 explains why absolute numbers are simulator
constants).

Experiments declare their simulations as runner cells and reduce the
results to rows; :func:`run_all` runs many as one sweep (DESIGN.md §10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import repro.runner
from repro.errors import ExperimentError
from repro.experiments.common import Cells, Results
from repro.runner import Cell, CellOutcome, cache_key, runner_session

__all__ = ["SeriesRow", "ExperimentResult", "Experiment", "register", "get", "all_ids", "run_all"]


@dataclass
class SeriesRow:
    """One measured point: a figure's data point or a table's row."""

    #: The configuration that produced it, e.g. {"threads": 2, "size": 1024}.
    config: Dict[str, object]
    #: The measured values, e.g. {"speedup": 2.2, "wa_baseline": 3.3}.
    metrics: Dict[str, float]

    def metric(self, name: str) -> float:
        try:
            return float(self.metrics[name])
        except KeyError:
            raise ExperimentError(f"row {self.config} has no metric {name!r}") from None


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    experiment_id: str
    title: str
    #: The paper's claim this experiment reproduces, quoted or summarised.
    paper_claim: str
    rows: List[SeriesRow]
    #: Deviations or caveats discovered while reproducing.
    notes: List[str] = field(default_factory=list)
    #: Host seconds :func:`run_all` charges to this experiment: the wall
    #: time of the cells it declared first, plus its reduce and check.
    wall_s: float = field(default=0.0, compare=False)
    #: ``Machine.path_counts()`` summed over the same cells; cells served
    #: from the ResultCache count nothing.
    path_counts: Dict[str, int] = field(default_factory=dict, compare=False)

    def rows_where(self, **config) -> List[SeriesRow]:
        """Rows whose config matches all given key/values."""
        out = []
        for row in self.rows:
            if all(row.config.get(k) == v for k, v in config.items()):
                out.append(row)
        return out

    def table(self) -> str:
        """Render rows as an aligned text table."""
        if not self.rows:
            return f"{self.experiment_id}: (no rows)"
        config_keys = sorted({k for r in self.rows for k in r.config})
        metric_keys = sorted({k for r in self.rows for k in r.metrics})
        header = config_keys + metric_keys
        lines = ["  ".join(f"{h:>14s}" for h in header)]
        for row in self.rows:
            cells = [str(row.config.get(k, "")) for k in config_keys]
            for k in metric_keys:
                v = row.metrics.get(k)
                cells.append("" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v))
            lines.append("  ".join(f"{c:>14s}" for c in cells))
        return "\n".join(lines)

    def render(self) -> str:
        head = [f"== {self.experiment_id}: {self.title} ==", f"paper claim: {self.paper_claim}"]
        body = [self.table()]
        tail = [f"note: {n}" for n in self.notes]
        return "\n".join(head + body + tail)


class Experiment:
    """One paper table or figure: the cells it needs and how to reduce them."""

    #: Stable id, e.g. ``"fig3"``; used by benches and the CLI.
    id: str = "abstract"
    title: str = ""
    paper_claim: str = ""

    def cells(self, fast: bool, seed: int) -> Cells:
        """Runner cells keyed by configuration, e.g. ``("B-fast", 20, DEMOTE)``."""
        return {}

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        """Rows from the results of :meth:`cells`, keyed and ordered as declared."""
        raise NotImplementedError

    def run(self, fast: bool = True, seed: int = 1234) -> ExperimentResult:
        """Execute the experiment's cells in one sweep and reduce them."""
        outcomes = _sweep(self.cells(fast, seed))
        return self.reduce({key: o.result for key, o in outcomes.items()}, fast, seed)

    def check(self, result: ExperimentResult) -> List[str]:
        """Verify the reproduced shape; returns human-readable failures.

        An empty list means the paper's qualitative claims held.
        """
        return []

    def run_checked(self, fast: bool = True, seed: int = 1234) -> ExperimentResult:
        """Run and append check failures to the result notes."""
        return self._checked(self.run(fast=fast, seed=seed))

    def _checked(self, result: ExperimentResult) -> ExperimentResult:
        for failure in self.check(result):
            result.notes.append(f"SHAPE CHECK FAILED: {failure}")
        return result

    def _result(self, rows: List[SeriesRow], notes: Optional[List[str]] = None) -> ExperimentResult:
        return ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            rows=rows,
            notes=notes or [],
        )


def _sweep(cells: Cells) -> Dict[Hashable, CellOutcome]:
    """Run ``cells`` in one sweep; a failed cell raises CellExecutionError."""
    if not cells:
        return {}
    # Looked up at call time: bench-e2e's span probes wrap it there.
    outcomes = repro.runner.execute_cells(list(cells.values()), on_error="raise")
    return dict(zip(cells, outcomes))


_REGISTRY: Dict[str, Callable[[], Experiment]] = {}


def register(cls: type) -> type:
    """Class decorator registering an Experiment by its id."""
    if not issubclass(cls, Experiment):
        raise ExperimentError(f"{cls!r} is not an Experiment")
    if cls.id in _REGISTRY:
        raise ExperimentError(f"duplicate experiment id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def get(experiment_id: str) -> Experiment:
    """Instantiate a registered experiment."""
    try:
        return _REGISTRY[experiment_id]()
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_ids() -> List[str]:
    return sorted(_REGISTRY)


def run_all(
    ids: Optional[Sequence[str]] = None,
    fast: bool = True,
    seed: int = 1234,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, ExperimentResult]:
    """Run the given experiments (default: all) as one sweep.

    Every experiment's cells go through one ``execute_cells`` call in a
    ``runner_session(workers, cache_dir)``; a cell several experiments
    declare (same cache key) runs once.  Each experiment is then reduced
    and checked, in ``ids`` order.
    """
    experiments = {eid: get(eid) for eid in (all_ids() if ids is None else ids)}
    # A cell's identity in the sweep is its cache key.
    idents: Dict[str, Dict[Hashable, Hashable]] = {}
    sweep: Dict[Hashable, Tuple[str, Cell]] = {}  # identity -> (first declarer, cell)
    for eid, experiment in experiments.items():
        idents[eid] = {}
        for key, cell in experiment.cells(fast, seed).items():
            ident = cache_key(cell) or (eid, key)  # uncacheable cells are never shared
            idents[eid][key] = ident
            sweep.setdefault(ident, (eid, cell))
    with runner_session(workers=workers or 1, cache_dir=cache_dir):
        outcomes = _sweep({ident: cell for ident, (_, cell) in sweep.items()})
    results: Dict[str, ExperimentResult] = {}
    for eid, experiment in experiments.items():
        started = time.perf_counter()
        found = {key: outcomes[ident].result for key, ident in idents[eid].items()}
        result = experiment._checked(experiment.reduce(found, fast, seed))
        own = [outcomes[i] for i, (first, _) in sweep.items() if first == eid]
        result.wall_s = sum(o.wall_s for o in own) + time.perf_counter() - started
        paths = {"fused": 0, "unrolled": 0, "single": 0}
        for outcome in own:
            for path, count in outcome.path_counts.items():
                paths[path] += count
        result.path_counts = paths
        results[eid] = result
    return results
