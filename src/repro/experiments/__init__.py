"""Per-table/figure experiment modules.

Importing this package loads only the registry: each experiment's module
is imported the first time :func:`repro.experiments.get` asks for it
(``registry._HOMES`` maps every id to its module).  Use
:func:`repro.experiments.get`/:func:`run_all` or the
``prestores-experiments`` CLI to run them.
"""

from repro.experiments.registry import (
    Experiment,
    ExperimentResult,
    SeriesRow,
    all_ids,
    get,
    run_all,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "SeriesRow",
    "all_ids",
    "get",
    "run_all",
]
