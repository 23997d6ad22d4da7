"""The fault harness: run a workload under a plan, crash, check recovery.

:func:`run_with_faults` is the subsystem's one entry point (the CLI, the
runner's :class:`~repro.runner.cells.Cell` fault branch and the
``faults_window`` experiment all call it).  It builds the program the
same way :meth:`Workload.run` does, but — for a non-empty plan — swaps
the machine's device for a :class:`~repro.faults.injector.FaultDevice`
and installs a :class:`~repro.faults.injector.FaultInjector` before
spawning the workload.  A crash surfaces as
:class:`~repro.faults.injector.CrashSignal`; the harness then snapshots
partial statistics via :meth:`Machine.abort` (no drain: nothing else
reaches the medium), captures the
:class:`~repro.faults.image.PersistentImage` and replays the workload's
durability log against it.

Under an *empty* plan nothing is swapped or attached and the run is the
plain :meth:`Workload.run` computation — bit-identical results, fast
path included.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.prestore import PatchConfig
from repro.faults.image import PersistentImage
from repro.faults.injector import CrashSignal, FaultDevice, FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import check_durability
from repro.obs.collector import ObsCollector
from repro.obs.log import get_logger
from repro.sim.machine import Machine, MachineSpec, Tracer
from repro.sim.stats import RunResult
from repro.workloads.base import Workload
from repro.workloads.memapi import Program

__all__ = ["FaultRunReport", "run_with_faults", "capture_image"]

_log = get_logger("faults")


@dataclass
class FaultRunReport:
    """Everything one faulted run produced."""

    workload: str
    machine: str
    seed: int
    patch_summary: str
    plan: Dict[str, object]
    crashed: bool
    crash_core: Optional[int]
    crash_cycle: Optional[float]
    crash_instruction: Optional[int]
    read_faults_injected: int
    degraded_accesses: int
    image: Optional[PersistentImage]
    recovery: Optional[Dict[str, object]]
    result: RunResult
    #: ``Machine.path_counts()`` of the run, up to the crash (kept out
    #: of :meth:`to_dict`).
    path_counts: Dict[str, int] = field(default_factory=dict)

    def to_dict(self, include_image: bool = True) -> Dict[str, object]:
        """JSON-stable dict (sorted keys at serialisation time)."""
        doc: Dict[str, object] = {
            "workload": self.workload,
            "machine": self.machine,
            "seed": self.seed,
            "patch_summary": self.patch_summary,
            "plan": self.plan,
            "crashed": self.crashed,
            "crash_core": self.crash_core,
            "crash_cycle": self.crash_cycle,
            "crash_instruction": self.crash_instruction,
            "read_faults_injected": self.read_faults_injected,
            "degraded_accesses": self.degraded_accesses,
            "image_summary": None if self.image is None else self.image.summary(),
            "recovery": self.recovery,
        }
        if include_image:
            doc["image"] = None if self.image is None else self.image.to_dict()
        return doc

    def to_json(self, include_image: bool = True) -> str:
        return json.dumps(self.to_dict(include_image=include_image), sort_keys=True)


def capture_image(
    machine: Machine,
    device: FaultDevice,
    plan: FaultPlan,
    crashed: bool,
    crash_cycle: float,
    crash_instruction: int,
) -> PersistentImage:
    """Freeze the media-visible state plus everything the crash loses.

    Call *after* the run ended (``finish()`` for clean termination —
    its drain/flush legitimately promotes bytes — or ``abort()`` after a
    crash, which promotes nothing).  The image takes over the device's
    version tables rather than copying them: nothing writes them once
    the run has ended.
    """
    store_buffer_lines = [sorted(core.store_buffer.pending_lines()) for core in machine.cores]
    dirty: set = set()
    for level in machine.hierarchy.levels:
        for line in level.resident_lines():
            if level.is_dirty(line):
                dirty.add(line)
    return PersistentImage(
        machine_name=machine.spec.name,
        line_size=machine.line_size,
        adr=plan.combiner_persistent,
        crashed=crashed,
        crash_cycle=crash_cycle,
        crash_instruction=crash_instruction,
        line_versions=device.line_versions,
        accepted_versions=device.accepted_versions,
        media_versions=device.media_versions,
        store_buffer_lines=store_buffer_lines,
        dirty_cache_lines=sorted(dirty),
        combiner_pending={
            block: sorted(entry) for block, entry in device.pending_blocks.items()
        },
    )


def run_with_faults(
    workload: Workload,
    spec: MachineSpec,
    plan: FaultPlan,
    patches: Optional[PatchConfig] = None,
    seed: int = 1234,
    tracer: Optional[Tracer] = None,
    streams: Optional[bool] = None,
) -> FaultRunReport:
    """Run ``workload`` on ``spec`` under ``plan``; returns the report.

    Deterministic: the same (workload parameters, spec, plan, seed)
    produce bit-identical report JSON in any process.  With an empty
    plan the computation — and its ``RunResult`` JSON — is exactly the
    plain :meth:`Workload.run` one.  ``tracer`` observes the run as in
    :meth:`Workload.run`, up to the crash; an
    :class:`~repro.obs.collector.ObsCollector` also gets the plan's
    fault and crash events as ``fault.*`` instants in its trace.
    """
    patches = patches or PatchConfig.baseline()
    program = Program(spec, seed=seed, streams=streams)
    machine = program.machine
    device: Optional[FaultDevice] = None
    if not plan.is_empty():
        # The device goes in before the tracer attaches, so an observer
        # that wraps the device (a profiling ObsCollector) wraps this one.
        device = FaultDevice(spec.device, plan, line_size=spec.line_size)
        machine.device = device
    if tracer is not None:
        machine.attach_observer(tracer)
    if device is not None:
        FaultInjector(plan, device).install(machine)
    workload.spawn(program, patches)
    crash: Optional[CrashSignal] = None
    try:
        result = program.run()
    except CrashSignal as signal:
        # Without its traceback: the frames would hold this one's locals,
        # ``crash`` among them, in a reference cycle.
        crash = signal.with_traceback(None)
        result = machine.abort()
        result.work_items = program.work_items
    result.extra.update(workload.result_extras())
    image: Optional[PersistentImage] = None
    recovery: Optional[Dict[str, object]] = None
    if device is not None:
        image = capture_image(
            machine,
            device,
            plan,
            crashed=crash is not None,
            crash_cycle=crash.cycle if crash is not None else result.cycles,
            crash_instruction=(
                crash.instruction if crash is not None else machine.instruction_count
            ),
        )
        kind = getattr(workload, "recovery_kind", None)
        if kind:
            recovery = check_durability(
                kind, getattr(workload, "durability_log", None), image
            )
        _publish_obs(tracer, device)
    enabled = patches.enabled_sites()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(enabled.items())) or "baseline"
    report = FaultRunReport(
        workload=workload.name,
        machine=spec.name,
        seed=seed,
        patch_summary=summary,
        plan=plan.to_dict(),
        crashed=crash is not None,
        crash_core=crash.core_id if crash is not None else None,
        crash_cycle=crash.cycle if crash is not None else None,
        crash_instruction=crash.instruction if crash is not None else None,
        read_faults_injected=device.read_faults_injected if device is not None else 0,
        degraded_accesses=device.degraded_accesses if device is not None else 0,
        image=image,
        recovery=recovery,
        result=result,
        path_counts=machine.path_counts(),
    )
    if crash is not None and image is not None and _log.isEnabledFor(logging.INFO):
        _log.info(
            "crash at cycle %.0f (instr %d): %d/%d written lines durable, recovery %s",
            crash.cycle,
            crash.instruction,
            len(image.line_versions) - len(image.lost_lines()),
            len(image.line_versions),
            "n/a" if recovery is None else ("ok" if recovery["ok"] else "FAILED"),
        )
    return report


def _publish_obs(tracer: Optional[Tracer], device: FaultDevice) -> None:
    """Mirror fault/crash events into an obs collector's trace."""
    if not isinstance(tracer, ObsCollector) or tracer.trace is None:
        return
    trace = tracer.trace
    for cycle, kind, detail in device.fault_events:
        trace.instant(f"fault.{kind}", cycle, args={"detail": detail})
        _log.info("fault event @%.0f %s: %s", cycle, kind, detail)
