"""Integration tests: cores, the machine scheduler, pre-store semantics, presets."""

import argparse
import importlib

import pytest

from repro.core.prestore import PrestoreOp
from repro.errors import SimulationError, WorkloadError
from repro.sim.event import Mailbox
from repro.sim.machine import PRESETS, Machine
from repro.workloads.memapi import Program


def _run(spec, *bodies, seed=1):
    program = Program(spec, seed=seed)
    for body in bodies:
        program.spawn(body)
    return program.run()


class TestBasicExecution:
    def test_read_hit_is_cheap(self, tiny_machine_dram):
        def body(t):
            r = t.alloc(64)
            yield t.read(r.base, 8)   # miss
            yield t.read(r.base, 8)   # hit

        result = _run(tiny_machine_dram, body)
        assert result.cache_hits["L1"] >= 1
        assert result.cache_misses["L1"] >= 1

    def test_compute_advances_clock(self, tiny_machine_dram):
        def body(t):
            yield t.compute(1000)

        result = _run(tiny_machine_dram, body)
        assert result.cycles == pytest.approx(1000 * 0.5)
        assert result.instructions == 1000

    def test_store_forwarding(self, tiny_machine_a):
        def body(t):
            r = t.alloc(64)
            yield t.write(r.base, 8)
            yield t.read(r.base, 8)  # forwarded from the store buffer

        result = _run(tiny_machine_a, body)
        # The read must not have gone to memory.
        assert result.device_reads <= 1  # only the write's RFO

    def test_machine_is_single_use(self, tiny_machine_dram):
        machine = Machine(tiny_machine_dram)
        machine.finish()
        with pytest.raises(SimulationError):
            machine.finish()

    def test_too_many_threads_rejected(self, tiny_machine_dram):
        program = Program(tiny_machine_dram)

        def body(t):
            yield t.compute(1)

        for _ in range(tiny_machine_dram.num_cores):
            program.spawn(body)
        with pytest.raises(WorkloadError):
            program.spawn(body)


class TestFencesAndVisibility:
    def test_weak_fence_stalls_on_parked_store(self, tiny_machine_b):
        def body(t):
            r = t.alloc(4096)
            yield t.write(r.addr(1024), 128)
            yield t.fence()

        result = _run(tiny_machine_b, body)
        assert result.total_fence_stall_cycles > 0

    def test_demote_before_work_hides_visibility(self, tiny_machine_b):
        def make(demote):
            def body(t):
                array = t.alloc(64 * 1024)
                scratch = t.alloc(4096)
                yield from t.read_block(scratch.base, scratch.size)
                for i in range(200):
                    addr = array.addr((i * 37 * 128) % (array.size - 128))
                    yield t.write(addr, 128)
                    if demote:
                        yield t.prestore(addr, 128, PrestoreOp.DEMOTE)
                    for j in range(20):
                        yield t.read(scratch.addr((j * 64) % scratch.size), 8)
                    yield t.fence()
            return body

        base = _run(tiny_machine_b, make(False))
        opt = _run(tiny_machine_b, make(True))
        assert opt.total_fence_stall_cycles < base.total_fence_stall_cycles
        assert opt.cycles < base.cycles

    def test_load_fence_is_cheap(self, tiny_machine_b):
        def make(scope):
            def body(t):
                r = t.alloc(4096)
                for i in range(50):
                    yield t.write(r.addr((i * 128) % r.size), 128)
                    yield t.fence(scope=scope)
            return body

        full = _run(tiny_machine_b, make("full"))
        load = _run(tiny_machine_b, make("load"))
        assert load.total_fence_stall_cycles == 0
        assert load.cycles < full.cycles

    def test_tso_fence_mostly_free(self, tiny_machine_a):
        def body(t):
            r = t.alloc(4096)
            yield t.write(r.base, 64)
            yield t.compute(2000)  # visibility completes in the background
            yield t.fence()

        result = _run(tiny_machine_a, body)
        assert result.total_fence_stall_cycles == pytest.approx(0.0)


class TestPrestoreSemantics:
    def test_clean_writes_back_and_keeps_line(self, tiny_machine_a):
        def body(t):
            r = t.alloc(256)
            yield from t.write_block(r.base, 256)
            yield t.prestore(r.base, 256, PrestoreOp.CLEAN)
            yield t.compute(5000)

        program = Program(tiny_machine_a)
        program.spawn(body)
        result = program.run()
        assert result.device_bytes_received >= 256
        # Cleaning propagated the data without invalidating the copies:
        # all four lines are still resident somewhere in the hierarchy.
        hierarchy = program.machine.hierarchy
        base_line = program.allocator.regions[0].base // 64
        assert all(hierarchy.contains(base_line + i) for i in range(4))

    def test_clean_of_unwritten_data_is_noop(self, tiny_machine_a):
        def body(t):
            r = t.alloc(256)
            yield t.prestore(r.base, 256, PrestoreOp.CLEAN)

        result = _run(tiny_machine_a, body)
        assert result.device_bytes_received == 0

    def test_nontemporal_write_bypasses_cache(self, tiny_machine_a):
        def body(t):
            r = t.alloc(256)
            yield from t.write_block(r.base, 256, nontemporal=True)
            yield t.read(r.base, 8)  # must go to memory

        program = Program(tiny_machine_a)
        program.spawn(body)
        result = program.run()
        assert result.device_bytes_received == 256
        assert sum(c.memory_read_cycles for c in result.cores) > 0

    def test_clean_stream_has_no_write_amplification(self, tiny_machine_a):
        def make(clean):
            def body(t):
                r = t.alloc(256 * 1024)
                import random
                rng = random.Random(5)
                for _ in range(400):
                    addr = r.addr(rng.randrange(r.size // 1024) * 1024)
                    yield from t.write_block(addr, 1024)
                    if clean:
                        yield t.prestore(addr, 1024, PrestoreOp.CLEAN)
            return body

        base = _run(tiny_machine_a, make(False))
        clean = _run(tiny_machine_a, make(True))
        assert clean.write_amplification < base.write_amplification
        assert clean.write_amplification == pytest.approx(1.0, abs=0.15)


class TestSynchronisation:
    def test_wait_blocks_until_post(self, tiny_machine_dram):
        box = Mailbox()

        def producer(t):
            yield t.compute(1000)  # 500 cycles
            yield t.post(box, "ready")

        def consumer(t):
            yield t.wait(box, "ready")
            yield t.compute(2)

        program = Program(tiny_machine_dram)
        program.spawn(producer)
        program.spawn(consumer)
        result = program.run()
        # The consumer cannot have finished before the producer posted.
        assert result.cores[1].cycles >= 500.0
        assert result.cycles >= 500.0

    def test_wait_with_no_partner_deadlocks_cleanly(self, tiny_machine_dram):
        box = Mailbox()

        def body(t):
            yield t.wait(box, "never")

        program = Program(tiny_machine_dram)
        program.spawn(body)
        with pytest.raises(SimulationError, match="deadlock"):
            program.run()


class TestCrossCoreTransfer:
    def test_reading_anothers_write_costs_transfer(self, tiny_machine_b):
        box = Mailbox()

        def writer(t):
            r = t.allocator.regions[0] if t.allocator.regions else t.alloc(128, "shared")
            yield t.write(r.base, 128)
            yield t.fence()  # make it visible
            yield t.post(box, "written")

        def reader(t):
            yield t.wait(box, "written")
            region = t.allocator.regions[0]
            yield t.read(region.base, 8)

        program = Program(tiny_machine_b)
        program.allocator.alloc(128, "shared")
        program.spawn(writer)
        program.spawn(reader)
        result = program.run()
        assert result.cycles > 0  # executed both sides without error


class TestPresets:
    @pytest.mark.parametrize(
        "cli",
        [
            "repro.crashcheck.cli",
            "repro.dirtbuster.cli",
            "repro.faults.cli",
            "repro.obs.cli",
            "repro.sanitize.cli",
            "repro.traffic.cli",
        ],
    )
    def test_cli_machine_choices_are_the_registry(self, cli, monkeypatch, capsys):
        # One preset table: every CLI's --machine offers exactly the
        # names of repro.sim.machine.PRESETS.
        choices = []
        add_argument = argparse._ActionsContainer.add_argument

        def spy(container, *args, **kwargs):
            action = add_argument(container, *args, **kwargs)
            if "--machine" in action.option_strings:
                choices.append(action.choices)
            return action

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
        with pytest.raises(SystemExit):
            importlib.import_module(cli).main(["--help"])
        assert choices
        assert all(list(c) == sorted(PRESETS) for c in choices)
