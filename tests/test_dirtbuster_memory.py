"""Bytes DirtBuster holds per traced access, measured with tracemalloc.

A DirtBuster run keeps the application's whole trace until step 1 has
picked the functions, so the bytes each access costs set the tool's
peak memory.  Each test counts the live allocations made in one module
while the structure is filled, divided by the accesses it holds.
"""

import tracemalloc

import repro.dirtbuster.fences as fences
import repro.dirtbuster.trace as trace
from repro.dirtbuster.fences import FenceTracker
from repro.dirtbuster.trace import FullTracer
from repro.sim.machine import machine_a
from repro.workloads.tensorflow_sim import TensorFlowWorkload


def _bytes_held(module, fill):
    """``fill()``'s result and the bytes of live allocations made in ``module``."""
    tracemalloc.start()
    try:
        result = fill()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    mine = snapshot.filter_traces([tracemalloc.Filter(True, module.__file__)])
    return result, sum(stat.size for stat in mine.statistics("filename"))


def test_full_trace_bytes_per_record():
    # Table 2's tensorflow, scaled down: its fused tensor streams are
    # most of the trace, as in the full-size run.
    def fill():
        tracer = FullTracer()
        workload = TensorFlowWorkload(batch_size=2, iterations=1, threads=2, large_tensor_kb=16)
        workload.run(machine_a(), tracer=tracer)
        return tracer

    tracer, held = _bytes_held(trace, fill)
    assert len(tracer) > 5000
    assert held / len(tracer) <= 64


def test_fence_pending_bytes_per_write():
    writes = 20_000

    def fill():
        tracker = FenceTracker()
        for i in range(writes):
            tracker.observe_write(0, "copy" if i % 3 else "put", 1_000_000 + i)
        return tracker

    tracker, held = _bytes_held(fences, fill)
    assert writes < fences._MAX_PENDING
    assert held / writes <= 32
    tracker.observe_fence(0, 2_000_000)
    assert tracker.proximity("put").writes_before_fence + tracker.proximity(
        "copy"
    ).writes_before_fence == writes
