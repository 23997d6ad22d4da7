"""The sanitizer facade: one subscriber fanning out to every dynamic pass.

:class:`Sanitizer` is a :class:`~repro.sim.machine.Tracer` — pass it as
a run's ``tracer=`` (``Program``, ``Workload.run``, ``run_with_faults``)
or through ``machine.attach_observer`` and it observes the run at zero
cost to the simulation's timing (observers never touch core clocks).
Its ``finish`` hook publishes the findings on ``RunResult.diagnostics``,
after a crash as after a clean run.

:func:`sanitize` is the everything-in-one-call entry point the CLI
uses: static-lint source paths, run a workload or program
factory under the dynamic passes, and return the merged diagnostics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.errors import Diagnostic, SanitizerError, SEVERITIES
from repro.sanitize.prestore_lint import PrestoreLint
from repro.sanitize.races import RaceDetector
from repro.sanitize.static import StaticSanitizer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dirtbuster.recommend import Thresholds
    from repro.sim.event import Event
    from repro.sim.machine import Machine, MachineSpec
    from repro.sim.stats import RunResult

__all__ = ["Sanitizer", "sanitize"]


def _severity_rank(diag: Diagnostic) -> int:
    return SEVERITIES.index(diag.severity)


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Errors first, then by first occurrence (static findings by line)."""
    return sorted(
        diagnostics,
        key=lambda d: (
            _severity_rank(d),
            d.instr_index if d.instr_index is not None else -1,
            d.rule,
        ),
    )


class Sanitizer:
    """Fan-out Tracer running every enabled dynamic pass on one stream.

    One instance observes one run (passes accumulate per-run state);
    build a fresh Sanitizer per run, exactly like a Machine.  Race
    detection and lint need every individual access and its instruction
    index, so it has no ``record_stream``: the machine unrolls batched
    streams before fan-out whenever a sanitizer is attached.
    """

    def __init__(
        self,
        races: bool = True,
        prestores: bool = True,
        thresholds: Optional["Thresholds"] = None,
    ) -> None:
        self.race_detector = RaceDetector() if races else None
        self.prestore_lint = PrestoreLint(thresholds=thresholds) if prestores else None
        self._passes = [p for p in (self.race_detector, self.prestore_lint) if p is not None]

    # -- Tracer interface -----------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        for pass_ in self._passes:
            pass_.attach(machine)

    def record(self, core_id: int, event: "Event", instr_index: int, cycles: float) -> None:
        for pass_ in self._passes:
            pass_.record(core_id, event, instr_index, cycles)

    def finish(self, machine: "Machine", result: "RunResult") -> None:
        """Publish the findings on the run's result (after an abort too)."""
        result.diagnostics = self.diagnostics()
        if self.race_detector is not None:
            self.race_detector.finish(machine, result)

    # -- results ---------------------------------------------------------------

    def diagnostics(self) -> List[Diagnostic]:
        """Merged findings from every pass, errors first."""
        merged: List[Diagnostic] = []
        for pass_ in self._passes:
            merged.extend(pass_.diagnostics())
        return sort_diagnostics(merged)

    def check(self) -> List[Diagnostic]:
        """Like :meth:`diagnostics`, raising on error-severity findings."""
        diagnostics = self.diagnostics()
        if any(d.severity == "error" for d in diagnostics):
            raise SanitizerError(tuple(diagnostics))
        return diagnostics


def sanitize(
    workload: Union[None, object, Callable[["MachineSpec"], object]] = None,
    spec: Optional["MachineSpec"] = None,
    *,
    paths: Sequence[str] = (),
    patches: Optional[object] = None,
    seed: int = 1234,
    thresholds: Optional["Thresholds"] = None,
    check: bool = False,
) -> List[Diagnostic]:
    """Run every applicable sanitizer pass and return the diagnostics.

    ``workload`` may be a :class:`~repro.workloads.base.Workload` instance
    (run with the sanitizer as its ``tracer``) or a program factory — a
    callable taking a :class:`MachineSpec` and returning an un-run
    :class:`~repro.workloads.memapi.Program` (the shape example scripts
    expose as ``build_program``).  ``spec`` defaults to the weak-model
    Machine B-fast preset, the platform where visibility races are
    actually possible; pass :func:`~repro.sim.machine.machine_a` to check
    under TSO instead.

    ``paths`` are source files/directories for the static AST pass; the
    three passes share one report.  With ``check=True`` a
    :class:`~repro.errors.SanitizerError` is raised when any
    error-severity diagnostic was found.
    """
    diagnostics: List[Diagnostic] = []
    if paths:
        diagnostics.extend(StaticSanitizer().check_paths(paths))
    if workload is not None:
        # Imported here: repro.workloads imports this package's consumers.
        from repro.workloads.base import Workload

        if spec is None:
            from repro.sim.machine import machine_b_fast

            spec = machine_b_fast()
        sanitizer = Sanitizer(thresholds=thresholds)
        if isinstance(workload, Workload):
            diagnostics.extend(
                workload.run(spec, patches=patches, tracer=sanitizer, seed=seed).run.diagnostics
            )
        elif callable(workload):
            program = workload(spec)
            program.machine.attach_observer(sanitizer)
            diagnostics.extend(program.run().diagnostics)
        else:
            raise TypeError(
                f"workload must be a Workload or a program factory, got {type(workload)!r}"
            )
    diagnostics = sort_diagnostics(diagnostics)
    if check and any(d.severity == "error" for d in diagnostics):
        raise SanitizerError(tuple(diagnostics))
    return diagnostics
