"""One link model: every device access from the cores is a device method call.

The device's bus, read-return and media horizons are defined once, in
``MemoryDevice.read``, ``write_back``, ``flush`` and ``backlog``
(``src/repro/sim/memory.py``).  The fused stream loops call those bound
methods instead of re-typing their arithmetic, so a change to the link
model is one edit.  These tests pin that:

* recording wrappers on a plain device's ``read`` and ``write_back`` see
  every access, in both vocabularies, and the same calls in each;
* the fused store loop asks ``backlog`` again after every path that
  queued device work, the weak model's overflow fills included;
* no module under ``src/`` other than ``repro/sim/memory.py`` names a
  horizon attribute or special-cases the base device class.
"""

import dataclasses
import os

import pytest

from repro.sim.machine import machine_a, machine_b_fast, machine_b_slow
from repro.sim.memory import MemoryDevice, fpga_spec
from repro.workloads.memapi import Program
from tests.stream_bodies import BODIES, run_body

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MEMORY = os.path.join("repro", "sim", "memory.py")


def _recorded_run(preset, name, streams):
    """Run stream body ``name`` with the device's read and write_back recorded."""
    body, (buf_bytes, passes) = BODIES[name]
    program = Program(preset(), streams=streams)
    device = program.machine.device
    assert type(device) is MemoryDevice
    calls = {"read": [], "write_back": []}

    def recording(kind, method):
        log = calls[kind]

        def wrapper(addr, size, now):
            log.append((addr, size, now))
            return method(addr, size, now)

        return wrapper

    device.read = recording("read", device.read)
    device.write_back = recording("write_back", device.write_back)
    program.spawn(body, buf_bytes, passes)
    program.run()
    return calls, device.stats


@pytest.mark.parametrize("preset", [machine_a, machine_b_fast], ids=lambda p: p.__name__)
@pytest.mark.parametrize("name", ["rand_write_cold", "mixed_cold", "nt_strided_write"])
def test_device_methods_are_the_only_way_in(preset, name):
    reference, ref_stats = _recorded_run(preset, name, streams=False)
    fast, fast_stats = _recorded_run(preset, name, streams=True)
    for calls, stats in ((reference, ref_stats), (fast, fast_stats)):
        assert len(calls["read"]) == stats.reads
        assert len(calls["write_back"]) == stats.writebacks_received
    assert fast["write_back"], "the body must send writebacks to the device"
    if name != "nt_strided_write":
        assert fast["read"], "a cached-store body must fill lines from the device"
    assert fast == reference


@pytest.mark.parametrize("name", ["seq_write_cold", "mixed_cold"])
def test_backpressure_after_weak_model_overflow_fills(name):
    # On the presets the weak model's overflow stall outlasts the device
    # work each fill queues, so no cached store ever meets backpressure.
    # A link 15x slower than B-slow's makes it bind.
    spec = machine_b_slow()
    spec = dataclasses.replace(
        spec,
        device=fpga_spec(read_latency=spec.device.read_latency, bandwidth=0.05, line_size=spec.line_size),
    )
    reference = run_body(spec, name, streams=False)
    fast = run_body(spec, name, streams=True)
    assert sum(core.backpressure_stall_cycles for core in fast.cores) > 0
    assert fast.to_json() == reference.to_json()


def test_horizons_are_named_only_in_memory_py():
    offenders = []
    for root, dirs, files in os.walk(SRC):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(root, fname)
            if os.path.relpath(path, SRC) == MEMORY:
                continue
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if "_next_free" in line or "is MemoryDevice" in line:
                        offenders.append(f"{os.path.relpath(path, SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "device horizons belong to repro/sim/memory.py alone; call the device's "
        "methods instead:\n" + "\n".join(offenders)
    )
