"""The per-object hierarchy walk, kept as the oracle for the fill kernels.

The simulator serves every L1 miss with the generated kernels of
``repro.sim.cache`` (DESIGN.md §15).  This module is the walk they
replaced, built only on the per-level methods ``CacheLevel.access``,
``install`` and ``invalidate``: probe each level in turn, fill the levels
inside the hit outermost first, propagate each eviction one object at a
time, then dirty the innermost copy on a write.  It shares no code with
the kernels, so comparing the two checks the kernels.

:func:`use_object_walk` swaps it in for the kernels on every hierarchy
built afterwards, which is how the end-to-end identity tests run whole
workloads on it.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError
from repro.sim import cache
from repro.sim.cache import CacheHierarchy, Eviction, HierarchyAccessResult


def _handle_eviction(levels, idx: int, evicted: Eviction) -> List[int]:
    """Propagate an eviction from ``levels[idx]``; returns the dirty
    lines that reach memory."""
    if idx == len(levels) - 1:
        # LLC eviction: back-invalidate the inner levels and collect
        # their dirt.
        dirty = evicted.dirty
        for inner in levels[:idx]:
            __, inner_dirty = inner.invalidate(evicted.line)
            dirty = dirty or inner_dirty
        return [evicted.line] if dirty else []
    # Inner eviction: push the dirt one level out when that level holds
    # the line; otherwise it goes to memory.
    below = levels[idx + 1]
    if not below.contains(evicted.line):
        return [evicted.line] if evicted.dirty else []
    if evicted.dirty:
        below.install(evicted.line, dirty=True)
    return []


def _install_from(levels, start: int, line: int) -> List[int]:
    """Install ``line`` into levels ``start..0``, outermost first."""
    writebacks: List[int] = []
    for idx in range(start, -1, -1):
        evicted = levels[idx].install(line, dirty=False)
        if evicted is not None:
            writebacks.extend(_handle_eviction(levels, idx, evicted))
    return writebacks


def _mark_dirty_innermost(h: CacheHierarchy, line: int) -> None:
    for lvl in h.levels:
        if lvl.contains(line):
            lvl.access(line, is_write=True)
            # access() above was bookkeeping, not a program access.
            lvl.stats.hits -= 1
            return
    raise SimulationError(f"line {line:#x} vanished during fill")


def access_line(h: CacheHierarchy, line: int, is_write: bool) -> HierarchyAccessResult:
    """The object walk for one access, hit or miss, at any level."""
    latency = 0
    hit_at = None
    for i, lvl in enumerate(h.levels):
        latency += lvl.spec.hit_latency
        if lvl.access(line, is_write):
            hit_at = i
            break
    if hit_at is None:
        writebacks = _install_from(h.levels, len(h.levels) - 1, line)
        if is_write:
            _mark_dirty_innermost(h, line)
        return HierarchyAccessResult("memory", latency, writebacks, memory_access=True)
    writebacks = _install_from(h.levels, hit_at - 1, line)
    if is_write:
        _mark_dirty_innermost(h, line)
    return HierarchyAccessResult(h.levels[hit_at].spec.name, latency, writebacks)


def fill(h: CacheHierarchy, line: int, is_write: bool, wb: List[int]) -> int:
    """``CacheHierarchy.fill`` on the object walk."""
    result = access_line(h, line, is_write)
    wb.extend(result.writebacks)
    names = [lvl.spec.name for lvl in h.levels] + ["memory"]
    return names.index(result.hit_level)


def build_kernel(levels, start: int):
    """``_build_fill_all`` on the object walk: same signature, same result."""

    def kernel(line: int, wb: List[int]) -> int:
        wb.extend(_install_from(levels, start, line))
        return levels[0]._index[line]

    return kernel


def drain_dirty_lines(h: CacheHierarchy) -> List[int]:
    """The end-of-run drain as a per-level sweep, outermost level first,
    plus the historical second sweep over the inner levels."""
    owed: List[int] = []
    seen = set()
    for lvl in reversed(h.levels):
        for line in list(lvl.walk_lines()):
            if lvl.clean(line) and line not in seen:
                seen.add(line)
                owed.append(line)
    for lvl in h.levels[:-1]:
        for line in list(lvl.resident_lines()):
            if lvl.clean(line) and line not in seen:
                seen.add(line)
                owed.append(line)
    return owed


def use_object_walk(monkeypatch) -> None:
    """Route every hierarchy built afterwards through the object walk.

    Replaces the kernel generator and both hierarchy entry points, so
    the cores' fill calls, the stream loops' cold-store kernel and
    ``access_line``'s L1 hit all run the walk above.
    """
    monkeypatch.setattr(cache, "_build_fill_all", build_kernel)
    monkeypatch.setattr(CacheHierarchy, "fill", fill)
    monkeypatch.setattr(CacheHierarchy, "access_line", access_line)
