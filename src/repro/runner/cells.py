"""Cells: the unit of work the runner shards across worker processes.

A :class:`Cell` is one fully-specified simulation — workload factory,
machine spec, pre-store mode (or an explicit :class:`PatchConfig`),
seed and an optional fault plan.  Cells are plain picklable data: the
workload itself is constructed *inside* the worker (:func:`run_cell`),
never shipped across the process boundary, which is what makes
results bit-identical regardless of worker count — every
cell starts from a fresh workload and a fresh per-cell seeded machine,
exactly as the serial path does.

:func:`describe_factory` and :func:`cache_key` derive the stable
identity used by :class:`repro.runner.cache.ResultCache`.  Factories
built from named module-level callables (classes, functions, and
:func:`functools.partial` over them) are describable; lambdas and
closures are not — those cells still run, they just never cache.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.sim.machine import MachineSpec
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["Cell", "CellRun", "run_cell", "describe_factory", "cache_key", "code_fingerprint"]


@dataclass(frozen=True)
class Cell:
    """One simulation the runner can execute, cache, and shard."""

    #: Zero-argument factory returning a fresh :class:`Workload`.
    make_workload: Callable[[], Workload]
    spec: MachineSpec
    #: Pre-store mode applied at the workload's endorsed (or all) sites.
    #: Ignored when :attr:`patches` is given.
    mode: Optional[PrestoreMode] = PrestoreMode.NONE
    seed: int = 1234
    endorsed_only: bool = True
    #: Explicit patch configuration (the AutoTuner path); overrides
    #: the mode-derived config.
    patches: Optional[PatchConfig] = field(default=None, compare=False)
    #: Deterministic fault plan; a non-empty plan routes the cell through
    #: :func:`repro.faults.run_with_faults` and lands the crash report in
    #: ``result.extra["fault_report"]``.  None (or an empty plan) is the
    #: plain, bit-identical run.
    fault_plan: Optional["FaultPlan"] = None


@dataclass(frozen=True)
class CellRun:
    """What a worker sends back: the serialised result plus provenance."""

    #: ``RunResult.to_json()`` — the canonical, bit-stable payload.
    result_json: str
    workload: str
    run_id: str
    #: ``pid<N>`` of the executing process (the parent itself when inline).
    worker: str
    wall_s: float
    #: ``Machine.path_counts()`` of the run; not part of the result, so
    #: cached bytes do not depend on it.
    path_counts: Dict[str, int] = field(default_factory=dict)


def _derive_config(cell: Cell, workload: Workload) -> PatchConfig:
    if cell.patches is not None:
        return cell.patches
    if cell.mode is None or cell.mode is PrestoreMode.NONE:
        return PatchConfig.baseline()
    if not cell.endorsed_only:
        return PatchConfig.uniform(cell.mode, workload.patch_sites())
    # Deferred import: experiments.common itself builds Cells.
    from repro.experiments.common import endorsed_patches

    return endorsed_patches(workload, cell.mode)


def cell_run_id(cell: Cell, workload_name: str) -> str:
    """The run id stamped on log records: workload/machine/mode/seed."""
    if cell.patches is not None and cell.mode is None:
        mode = "patched"
    else:
        mode = (cell.mode or PrestoreMode.NONE).value
    return f"{workload_name}/{cell.spec.name}/{mode}/s{cell.seed}"


def run_cell(cell: Cell) -> CellRun:
    """Execute one cell; top-level so process pools can pickle it.

    Constructs the workload fresh, derives the patch config, and runs
    with the cell's seed — byte-for-byte the same computation whether
    called inline or in a pool worker.  Log records emitted during the
    run carry the run id and the worker's pid.
    """
    from repro.obs.log import run_context

    started = time.perf_counter()
    workload = cell.make_workload()
    config = _derive_config(cell, workload)
    run_id = cell_run_id(cell, workload.name)
    worker = f"pid{os.getpid()}"
    with run_context(run_id=run_id, worker=worker):
        if cell.fault_plan is not None and not cell.fault_plan.is_empty():
            from repro.faults.harness import run_with_faults

            report = run_with_faults(
                workload, cell.spec, cell.fault_plan, patches=config, seed=cell.seed
            )
            result = report.result
            # The report (image digest included) rides inside the
            # RunResult, so caching and determinism checks cover it.
            doc = report.to_dict(include_image=False)
            if report.image is not None:
                doc["image_digest"] = doc["image_summary"]["digest"]
            result.extra["fault_report"] = doc
            path_counts = report.path_counts
        else:
            ran = workload.run(cell.spec, config, seed=cell.seed)
            result = ran.run
            path_counts = ran.path_counts
    return CellRun(
        result_json=result.to_json(),
        workload=workload.name,
        run_id=run_id,
        worker=worker,
        wall_s=time.perf_counter() - started,
        path_counts=path_counts,
    )


# -- stable identity (the cache key) ------------------------------------------


def describe_factory(factory: object) -> Optional[str]:
    """A stable textual identity for a workload factory, or None.

    Module-level classes and functions describe as ``module.qualname``;
    :func:`functools.partial` over a describable callable appends its
    (repr-stable) arguments.  Lambdas, closures, and arbitrary instances
    return None: they run fine but cannot be cached, because nothing
    ties their identity to what they will build.
    """
    if isinstance(factory, functools.partial):
        inner = describe_factory(factory.func)
        if inner is None:
            return None
        args = ", ".join(repr(a) for a in factory.args)
        kwargs = ", ".join(f"{k}={factory.keywords[k]!r}" for k in sorted(factory.keywords))
        return f"partial({inner})({args}|{kwargs})"
    if isinstance(factory, type) or inspect.isfunction(factory):
        name = getattr(factory, "__qualname__", "")
        if "<lambda>" in name or "<locals>" in name:
            return None
        return f"{factory.__module__}.{name}"
    return None


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file: edits invalidate the cache.

    Hashes relative path + contents of ``src/repro/**/*.py`` in sorted
    order, so cached results can never outlive the simulator code that
    produced them.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def cache_key(cell: Cell) -> Optional[str]:
    """Content-addressed key for a cell, or None when uncacheable.

    Covers everything that determines the result: the factory identity,
    the full machine spec, mode/patches, seed, the fault plan, and the
    :func:`code_fingerprint` of the simulator sources.
    """
    import dataclasses

    desc = describe_factory(cell.make_workload)
    if desc is None:
        return None
    patches = (
        None
        if cell.patches is None
        else sorted((s, m.value) for s, m in cell.patches.enabled_sites().items())
    )
    doc = {
        "factory": desc,
        "machine": dataclasses.asdict(cell.spec),
        "mode": None if cell.mode is None else cell.mode.value,
        "patches": patches,
        "seed": cell.seed,
        "endorsed_only": cell.endorsed_only,
        "faults": None if cell.fault_plan is None else cell.fault_plan.to_dict(),
        "code": code_fingerprint(),
    }
    payload = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()
