"""The benchmark's workloads: which paper experiments each pass runs.

Why each workload was chosen is recorded with its name in
``BENCHMARK.json`` and in README.md.  Importing this module imports
nothing from ``repro``: the parent process only needs the names, and each
child imports the simulator itself so that its set-up time is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

__all__ = ["BenchWorkload", "WORKLOADS"]


@dataclass(frozen=True)
class BenchWorkload:
    """One workload: a fixed list of experiments run back to back."""

    name: str
    experiments: Tuple[str, ...]
    #: Returns ``(make_workload, spec, mode, make_tracer)`` for the small
    #: representative run the stream-identity check repeats with
    #: ``streams=True`` and ``streams=False``.
    probe: Callable[[], Tuple[Callable[[], object], object, object, Optional[Callable[[], object]]]]


def _nas_probe():
    from repro.core.prestore import PrestoreMode
    from repro.sim.machine import machine_a
    from repro.workloads.nas import FTWorkload

    def make():
        return FTWorkload(grid=16, iterations=1, threads=2)

    return make, machine_a(), PrestoreMode.CLEAN, None


def _dirtbuster_probe():
    from repro.core.prestore import PrestoreMode
    from repro.dirtbuster.trace import FullTracer
    from repro.sim.machine import machine_a
    from repro.workloads.nas import MGWorkload

    def make():
        return MGWorkload(grid=12, iterations=1, threads=2)

    return make, machine_a(), PrestoreMode.NONE, FullTracer


def _listing2_probe():
    from repro.core.prestore import PrestoreMode
    from repro.sim.machine import machine_b_fast
    from repro.workloads.microbench import Listing2

    def make():
        return Listing2(reads_before_fence=5, iterations=100)

    return make, machine_b_fast(), PrestoreMode.DEMOTE, None


def _kv_probe():
    from repro.core.prestore import PrestoreMode
    from repro.sim.machine import machine_a
    from repro.workloads.kv import CLHTWorkload, YCSBSpec

    def make():
        spec = YCSBSpec(mix="A", num_keys=512, operations=200, value_size=1024)
        return CLHTWorkload(spec, threads=2)

    return make, machine_a(), PrestoreMode.CLEAN, None


# Each workload stresses a different layer, so a change to one layer
# shows on the workload that exercises it and not on the others.
WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            name="fence_events",
            experiments=("fig5", "x9", "listing3"),
            probe=_listing2_probe,
        ),
        BenchWorkload(
            name="write_kv",
            experiments=("fig10", "fig11", "fig12", "fig13", "fig14", "serve", "faults-window"),
            probe=_kv_probe,
        ),
        BenchWorkload(
            name="nas_read",
            experiments=("fig9",),
            probe=_nas_probe,
        ),
        BenchWorkload(
            name="dirtbuster",
            experiments=("table2",),
            probe=_dirtbuster_probe,
        ),
    )
}
