"""The one workload registry, and the run options every CLI declares.

:data:`WORKLOAD_FACTORIES` maps each name a tool takes to a factory: the
Table 2 applications, the three listings and the two crash-consistency
workloads of :mod:`repro.faults.workloads`.  :func:`add_run_options`
declares ``--workload``, ``--machine``, ``--mode`` and ``--seed``;
:func:`build_run` turns them into ``(workload, spec, patches, seed)``.
"""

from __future__ import annotations

import argparse
import functools
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.errors import WorkloadError
from repro.faults.workloads import KVPersistWorkload, LogAppendWorkload
from repro.sim.machine import PRESETS, MachineSpec
from repro.workloads.base import Workload
from repro.workloads.kv import CLHTWorkload, MasstreeWorkload, YCSBSpec
from repro.workloads.microbench import Listing1, Listing2, Listing3
from repro.workloads.nas import (
    BTWorkload,
    CGWorkload,
    EPWorkload,
    FTWorkload,
    ISWorkload,
    LUWorkload,
    MGWorkload,
    SPWorkload,
    UAWorkload,
)
from repro.workloads.phoronix import PHORONIX_APPS, ReadMostlyWorkload
from repro.workloads.tensorflow_sim import TensorFlowWorkload
from repro.workloads.x9 import X9Workload

__all__ = [
    "WORKLOAD_FACTORIES", "add_run_options", "build_run", "logged_workloads", "make_workload"
]

WORKLOAD_FACTORIES: Dict[str, Callable[[], Workload]] = {
    "listing1": Listing1,
    "listing2": Listing2,
    "listing3": Listing3,
    "tensorflow": TensorFlowWorkload,
    "x9": X9Workload,
    "clht": lambda: CLHTWorkload(YCSBSpec(mix="A")),
    "masstree": lambda: MasstreeWorkload(YCSBSpec(mix="A")),
    "nas-mg": MGWorkload,
    "nas-ft": FTWorkload,
    "nas-sp": SPWorkload,
    "nas-ua": UAWorkload,
    "nas-bt": BTWorkload,
    "nas-is": ISWorkload,
    "nas-lu": LUWorkload,
    "nas-ep": EPWorkload,
    "nas-cg": CGWorkload,
    **{
        name: functools.partial(ReadMostlyWorkload, name, flavour)
        for name, flavour in PHORONIX_APPS
    },
    "kvpersist": KVPersistWorkload,
    "logappend": LogAppendWorkload,
}


def make_workload(name: str) -> Workload:
    """A fresh default instance of the workload registered as ``name``."""
    if name not in WORKLOAD_FACTORIES:
        known = sorted(WORKLOAD_FACTORIES)
        raise WorkloadError(f"unknown workload {name!r}; choose from {known}")
    return WORKLOAD_FACTORIES[name]()


def logged_workloads() -> List[str]:
    """The registered workloads a crash-recovery check can take, sorted.

    They keep a durability log: they name its check (``recovery_kind``)
    and the events per operation that place a crash (``events_per_op``).
    """
    made = [(name, make()) for name, make in WORKLOAD_FACTORIES.items()]
    return sorted(n for n, w in made if hasattr(w, "recovery_kind") and hasattr(w, "events_per_op"))


def add_run_options(
    parser: argparse.ArgumentParser,
    *options: str,
    workload: Optional[str] = None,
    machine: str = "a",
    mode: str = PrestoreMode.NONE.value,
) -> None:
    """Declare ``--seed`` and the named run ``options`` with this tool's defaults.

    ``options`` are any of ``--workload`` (required without a default),
    ``workload`` (an optional positional name), ``--machine`` and ``--mode``.
    """
    names = f"one of: {', '.join(sorted(WORKLOAD_FACTORIES))}"
    if "workload" in options:
        parser.add_argument("workload", nargs="?", help=names)
    if "--workload" in options:
        parser.add_argument("--workload", default=workload, required=workload is None, help=names)
    if "--machine" in options:
        parser.add_argument("--machine", choices=sorted(PRESETS), default=machine)
    if "--mode" in options:
        modes = [m.value for m in PrestoreMode]
        parser.add_argument(
            "--mode", choices=modes, default=mode, help="pre-store mode at every patch site"
        )
    parser.add_argument("--seed", type=int, default=1234)


def build_run(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    *,
    logged: bool = False,
    workload: Optional[Workload] = None,
) -> Tuple[Workload, MachineSpec, PatchConfig, int]:
    """``(workload, spec, patches, seed)`` for the parsed run options.

    The workload is ``args.workload``'s, unless the tool built its own;
    a bad name (with ``logged``, one without a durability log) is one
    ``parser.error`` line, exit 2.  The spec is the preset's default:
    the run seed never reseeds the machine.  ``--mode`` (``none`` when
    the tool has none) applies at every patch site.
    """
    if workload is None:
        try:
            workload = make_workload(args.workload)
        except WorkloadError as exc:
            parser.error(str(exc))
        if logged and args.workload not in logged_workloads():
            parser.error(
                f"workload {args.workload!r} keeps no durability log; "
                f"this command takes one of {logged_workloads()}"
            )
    mode = PrestoreMode(getattr(args, "mode", "none"))
    patches = PatchConfig.uniform(mode, workload.patch_sites())
    return workload, PRESETS[args.machine](), patches, args.seed
