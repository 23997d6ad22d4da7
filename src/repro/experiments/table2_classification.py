"""Table 2: DirtBuster's classification of every evaluated application.

Runs DirtBuster end to end (sampling -> instrumentation -> analysis) on
scaled-down instances of each Table 2 application and reports the three
classification bits plus the per-function recommendations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dirtbuster.runner import DirtBuster, DirtBusterConfig
from repro.experiments.common import Results
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.sim.machine import MachineSpec, machine_a, machine_b_fast
from repro.workloads.base import Workload
from repro.workloads.kv import CLHTWorkload, MasstreeWorkload, YCSBSpec
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

__all__ = ["Table2Classification", "EXPECTED_TABLE2", "EXPECTED_RECOMMENDATIONS"]

#: name -> (write-intensive, sequential writes, writes before fence),
#: straight from the paper's Table 2.
EXPECTED_TABLE2: Dict[str, Tuple[bool, bool, bool]] = {
    "pytorch": (False, False, False),
    "numpy": (False, False, False),
    "lzma": (False, False, False),
    "c-ray": (False, False, False),
    "arrayfire": (False, False, False),
    "build-kernel": (False, False, False),
    "build-gcc": (False, False, False),
    "gzip": (False, False, False),
    "go-bench": (False, False, False),
    "rust-prime": (False, False, False),
    "tensorflow": (True, True, False),
    "x9": (True, True, True),
    "masstree": (True, True, True),
    "clht": (True, True, True),
    "nas-ua": (True, True, False),
    "nas-lu": (False, False, False),
    "nas-ep": (False, False, False),
    "nas-is": (True, False, False),
    "nas-ft": (True, True, False),
    "nas-cg": (False, False, False),
    "nas-bt": (True, True, False),
    "nas-mg": (True, True, False),
    "nas-sp": (True, True, False),
}


#: The per-function advice reported in the paper's Section 7 analyses.
EXPECTED_RECOMMENDATIONS: Dict[str, str] = {
    "Eigen::TensorEvaluator::run": "clean",   # §7.2.1
    "resid": "clean",                          # §7.2.2 (MG)
    "psinv": "skip",                           # §7.2.2 (MG, Listing 5)
    "fftz2": "none",                           # §7.4.2 (declined)
    "craft_value": "skip",                     # §7.2.3 (KV stores)
    "fill_msg": "demote",                      # §7.3.2 (X9)
    "rank": "none",                            # §7.4.2 (declined)
}


def _small_workloads() -> List[Tuple[Workload, MachineSpec]]:
    """Scaled-down instances fast enough for a full-suite DirtBuster pass."""
    a = machine_a()
    b = machine_b_fast()
    kv_spec = YCSBSpec(mix="A", num_keys=1024, operations=500, value_size=512)
    # Working sets must exceed the (scaled) LLC, as the real benchmarks'
    # do, or the write-intensive kernels never stall on writebacks and
    # the store-time filter cannot see them.
    cases: List[Tuple[Workload, MachineSpec]] = [
        (TensorFlowWorkload(batch_size=16, iterations=1, threads=2, large_tensor_kb=160), a),
        (X9Workload(messages=800), b),
        (CLHTWorkload(kv_spec, threads=2), a),
        (MasstreeWorkload(kv_spec, threads=2), a),
        (MGWorkload(grid=32, iterations=2, threads=4), a),
        (FTWorkload(grid=32, iterations=1, threads=4), a),
        (SPWorkload(grid=24, iterations=1, threads=4), a),
        (UAWorkload(grid=24, iterations=1, threads=4), a),
        (BTWorkload(grid=24, iterations=1, threads=4), a),
        (ISWorkload(grid=20, iterations=2, threads=4), a),
        (LUWorkload(grid=16, iterations=1, threads=2), a),
        (EPWorkload(grid=16, iterations=2, threads=2), a),
        (CGWorkload(grid=20, iterations=2, threads=2), a),
    ]
    for name, flavour in PHORONIX_APPS:
        cases.append((ReadMostlyWorkload(name, flavour, scale=300), a))
    return cases


@register
class Table2Classification(Experiment):
    id = "table2"
    title = "DirtBuster classification of all evaluated applications (Table 2)"
    paper_claim = (
        "DirtBuster classifies each application as write-intensive or not, "
        "and detects sequential writes and writes-before-fence exactly as "
        "Table 2 reports (Phoronix apps, LU, EP, CG not write-intensive; "
        "IS write-intensive but not sequential; KV stores and X9 also show "
        "writes before fences)."
    )

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        # No cells: DirtBuster's one simulation per application carries
        # its own tracers, so it runs here rather than through the runner.
        # A short sampling period so even the scaled-down compute-bound
        # applications (EP and friends) yield enough samples.
        dirtbuster = DirtBuster(DirtBusterConfig(sampling_period=53))
        rows: List[SeriesRow] = []
        for workload, spec in _small_workloads():
            report = dirtbuster.analyze(workload, spec, seed=seed)
            c = report.classification
            expected = EXPECTED_TABLE2.get(workload.name)
            match = expected == (
                c.write_intensive,
                c.sequential_writes,
                c.writes_before_fence,
            )
            rows.append(
                SeriesRow(
                    {
                        "workload": workload.name,
                        "recommendations": ", ".join(
                            f"{r.function}->{r.choice}" for r in report.recommendations
                        ) or "-",
                    },
                    {
                        "write_intensive": float(c.write_intensive),
                        "sequential_writes": float(c.sequential_writes),
                        "writes_before_fence": float(c.writes_before_fence),
                        "matches_paper": float(match),
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures = []
        seen_recs: Dict[str, str] = {}
        for row in result.rows:
            if not row.metric("matches_paper"):
                name = row.config["workload"]
                expected = EXPECTED_TABLE2.get(name)
                failures.append(f"{name}: classification differs from Table 2 ({expected})")
            for item in str(row.config["recommendations"]).split(", "):
                if "->" in item:
                    function, choice = item.split("->")
                    seen_recs[function] = choice
        for function, choice in EXPECTED_RECOMMENDATIONS.items():
            if function in seen_recs and seen_recs[function] != choice:
                failures.append(
                    f"{function}: paper recommends {choice}, got {seen_recs[function]}"
                )
        return failures
