"""repro.crashcheck — static crash-consistency verification (DESIGN.md §13).

Where :mod:`repro.faults` *samples* crash points by injecting them into
a simulated run, this package *enumerates* them: it extracts a
workload's event stream symbolically (:mod:`extract`), builds the
persist happens-before model over it (:mod:`hb`), classifies every
acknowledgement at every crash boundary (:mod:`verify`), and
differentially checks itself against dynamic fault injection in both
directions (:mod:`crossval`).
"""

from repro.crashcheck.crossval import cross_validate
from repro.crashcheck.extract import AckPoint, ProgramIR, SymbolicOp, extract_ir
from repro.crashcheck.hb import PersistModel
from repro.crashcheck.verify import (
    AckClassification,
    CrashCheckReport,
    check_workload,
    classify,
)

__all__ = [
    "AckClassification",
    "AckPoint",
    "CrashCheckReport",
    "PersistModel",
    "ProgramIR",
    "SymbolicOp",
    "check_workload",
    "classify",
    "cross_validate",
    "extract_ir",
]
