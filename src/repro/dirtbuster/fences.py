"""Step 2b: memory-ordering constraint detection.

Section 6.2.2: "To detect memory ordering constraints, DirtBuster
computes the minimum number of instructions between the writes performed
by the write-intensive functions and the next instruction with fence
semantics.  Instructions with fence semantics comprise memory fence
instructions (e.g., mfence, sfence, ...) and the atomic instructions
that force the CPU to order memory accesses (e.g., cmpxchg)."

Distances are per core: a fence only orders the stores of its own
thread.  Writes never followed by a fence on their core contribute to
``writes_without_fence`` (distance "infinite").
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["FenceProximity", "FenceTracker"]

#: Cap on pending writes remembered per core; writes further than any
#: plausible "before a fence" window add nothing to the minimum.
_MAX_PENDING = 100_000


@dataclass
class FenceProximity:
    """Write-to-fence distance statistics for one function."""

    function: str
    writes: int = 0
    writes_before_fence: int = 0
    min_distance: float = math.inf
    _sum_distance: float = 0.0

    @property
    def writes_without_fence(self) -> int:
        return self.writes - self.writes_before_fence

    @property
    def mean_distance(self) -> float:
        if self.writes_before_fence == 0:
            return math.inf
        return self._sum_distance / self.writes_before_fence

    @property
    def fence_coverage(self) -> float:
        """Fraction of this function's writes later ordered by a fence."""
        return self.writes_before_fence / self.writes if self.writes else 0.0


class FenceTracker:
    """Streams per-core events and accumulates write→fence distances."""

    def __init__(self) -> None:
        #: core -> (functions, instruction indices): two parallel columns
        #: of the writes since the core's last fence, oldest first.
        self._pending: Dict[int, Tuple[List[str], array]] = {}
        self._functions: Dict[str, FenceProximity] = {}

    def _prox(self, function: str) -> FenceProximity:
        prox = self._functions.get(function)
        if prox is None:
            prox = FenceProximity(function=function)
            self._functions[function] = prox
        return prox

    def observe_write(self, core_id: int, function: str, instr_index: int) -> None:
        self._prox(function).writes += 1
        pending = self._pending.get(core_id)
        if pending is None:
            pending = self._pending[core_id] = ([], array("q"))
        functions, indices = pending
        functions.append(function)
        indices.append(instr_index)
        if len(indices) > _MAX_PENDING:
            drop = len(indices) // 2
            del functions[:drop]
            del indices[:drop]

    def observe_fence(self, core_id: int, instr_index: int) -> None:
        """A fence-semantics instruction retired on ``core_id``."""
        pending = self._pending.get(core_id)
        if pending is None or not pending[0]:
            return
        functions, indices = pending
        proxes = self._functions
        for function, write_index in zip(functions, indices):
            prox = proxes[function]
            distance = instr_index - write_index
            prox.writes_before_fence += 1
            prox._sum_distance += distance
            if distance < prox.min_distance:
                prox.min_distance = distance
        functions.clear()
        del indices[:]

    def proximity(self, function: str) -> FenceProximity:
        """Statistics for one function (zeros if it never wrote)."""
        return self._functions.get(function, FenceProximity(function=function))

    def functions(self) -> List[str]:
        return sorted(self._functions)
