"""A finished run frees itself (DESIGN.md §4, "Run lifetime").

A run's machine, caches, store buffers, fault state and observers form
no reference cycle, so reference counting frees them as soon as the
caller drops the result.  Each test runs one kind of run, drops what it
returned, and then collects under ``gc.DEBUG_SAVEALL``: the collector
must find nothing, because anything it finds was only ever freeable by
a full collection, which a sweep rarely reaches.
"""

import gc
from collections import Counter
from functools import partial

import pytest

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.dirtbuster import DirtBuster, DirtBusterConfig
from repro.faults import run_with_faults
from repro.faults.plan import FaultPlan
from repro.faults.workloads import KVPersistWorkload
from repro.obs.collector import ObsCollector
from repro.runner import Cell, execute_cells
from repro.sanitize import Sanitizer
from repro.sim.machine import machine_a, machine_b_fast
from repro.traffic.arrivals import ArrivalSpec
from repro.traffic.serving import ServingWorkload
from repro.workloads.kv.ycsb import YCSBSpec
from repro.workloads.microbench import Listing1
from repro.workloads.nas import MGWorkload


def _cyclic_garbage(run):
    """Call ``run()``, drop its result, and return what only the cycle
    collector could free, as a count per type name."""
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def _mg():
    # Small, but with stream events in both vocabularies.
    return MGWorkload(grid=8, iterations=1, threads=2)


def _kv():
    return KVPersistWorkload(keys=16, value_size=320, operations=24, threads=2)


@pytest.mark.parametrize("streams", [True, False], ids=["streams", "reference"])
@pytest.mark.parametrize("make_spec", [machine_a, machine_b_fast], ids=["machine-a", "machine-b"])
def test_plain_run(make_spec, streams):
    def run():
        result = _mg().run(make_spec(), PatchConfig.baseline(), streams=streams)
        assert result.run.instructions > 0

    assert _cyclic_garbage(run) == Counter()


def test_dirtbuster_analyze():
    def run():
        # Write-intensive, so the instrumentation pass runs too.
        workload = Listing1(iterations=200, threads=2)
        report = DirtBuster(DirtBusterConfig(sampling_period=53)).analyze(workload, machine_a())
        assert report.instrumented_functions == ["listing1_loop"]

    assert _cyclic_garbage(run) == Counter()


@pytest.mark.parametrize("crash", [True, False], ids=["crash", "empty-plan"])
def test_run_with_faults(crash):
    plan = FaultPlan.crash_at(60) if crash else FaultPlan()

    def run():
        report = run_with_faults(_kv(), machine_b_fast(), plan, seed=3)
        assert report.crashed is crash

    assert _cyclic_garbage(run) == Counter()


def test_serving_workload():
    def run():
        workload = ServingWorkload(
            spec=YCSBSpec(mix="A", num_keys=64, operations=60, value_size=256),
            clients=2,
            arrival=ArrivalSpec(rate_per_kcycle=0.25),
            slo_cycles=10_000.0,
        )
        assert workload.run(machine_a(), PatchConfig.baseline(), seed=5).run.instructions > 0

    assert _cyclic_garbage(run) == Counter()


@pytest.mark.parametrize(
    "make_observer",
    [ObsCollector, partial(ObsCollector, profile=True), Sanitizer],
    ids=["obs", "obs-profiled", "sanitizer"],
)
def test_observed_run(make_observer):
    def run():
        observer = make_observer()
        result = _mg().run(machine_a(), PatchConfig.baseline(), tracer=observer)
        assert result.run.instructions > 0

    assert _cyclic_garbage(run) == Counter()


def test_execute_cells_sweep():
    def run():
        cells = [
            Cell(Listing1, machine_a(), mode, seed=3)
            for mode in (PrestoreMode.NONE, PrestoreMode.CLEAN)
        ]
        outcomes = execute_cells(cells, workers=1)
        assert [o.status for o in outcomes] == ["ok", "ok"]

    assert _cyclic_garbage(run) == Counter()
