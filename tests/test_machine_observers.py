"""The Machine observer list, and the one ``tracer=`` slot a run takes."""

import pytest

from repro.core.prestore import PatchConfig
from repro.dirtbuster.trace import FullTracer, SamplingTracer
from repro.errors import SimulationError
from repro.sanitize import Sanitizer
from repro.workloads.memapi import Program
from repro.workloads.microbench import Listing1


class RecordingObserver:
    def __init__(self):
        self.events = []
        self.attached_to = None
        self.finished_with = None

    def attach(self, machine):
        self.attached_to = machine

    def record(self, core_id, event, instr_index, cycles):
        self.events.append((core_id, event.kind, instr_index))

    def finish(self, machine, result):
        self.finished_with = result


class BareTracer:
    """Only ``record``: the two other hooks are optional."""

    def __init__(self):
        self.calls = 0

    def record(self, core_id, event, instr_index, cycles):
        self.calls += 1


class TestObserverList:
    def _program(self, spec, tracer=None):
        program = Program(spec, tracer=tracer)
        Listing1(iterations=50, threads=1).spawn(program, PatchConfig.baseline())
        return program

    def test_no_observers_dispatch_is_empty(self, tiny_machine_a):
        program = self._program(tiny_machine_a)
        assert program.machine.observers == ()
        program.run()

    def test_all_observers_see_every_event(self, tiny_machine_a):
        program = self._program(tiny_machine_a)
        a, b = RecordingObserver(), RecordingObserver()
        program.machine.attach_observer(a)
        program.machine.attach_observer(b)
        program.run()
        assert a.events
        assert a.events == b.events

    def test_attach_and_finish_hooks_fire(self, tiny_machine_a):
        program = self._program(tiny_machine_a)
        observer = RecordingObserver()
        program.machine.attach_observer(observer)
        assert observer.attached_to is program.machine
        result = program.run()
        assert observer.finished_with is result

    def test_bare_record_only_tracer_accepted(self, tiny_machine_a):
        program = self._program(tiny_machine_a)
        bare = BareTracer()
        program.machine.attach_observer(bare)
        program.run()
        assert bare.calls > 0

    def test_program_tracer_is_the_first_observer(self, tiny_machine_a):
        bare = BareTracer()
        program = self._program(tiny_machine_a, tracer=bare)
        extra = RecordingObserver()
        program.machine.attach_observer(extra)
        assert program.machine.observers == (bare, extra)
        program.run()
        assert bare.calls == len(extra.events) > 0

    @pytest.mark.parametrize("make", [FullTracer, SamplingTracer], ids=["full", "sampling"])
    def test_empty_tracer_is_still_attached(self, tiny_machine_a, make):
        # A DirtBuster tracer that has recorded nothing has length 0
        # (falsy): the slot tests ``is not None``, so it is attached.
        tracer = make()
        assert not tracer
        program = self._program(tiny_machine_a, tracer=tracer)
        assert program.machine.observers == (tracer,)

    def test_sanitizer_publishes_diagnostics_on_finish(self, tiny_machine_a):
        sanitizer = Sanitizer()
        result = self._program(tiny_machine_a, tracer=sanitizer).run()
        assert result.diagnostics == sanitizer.diagnostics()

    def test_attach_after_finish_is_an_error(self, tiny_machine_a):
        program = self._program(tiny_machine_a)
        program.run()
        with pytest.raises(SimulationError):
            program.machine.attach_observer(RecordingObserver())
