"""Ablation studies for the simulator's design choices (DESIGN.md §5).

These are not paper artifacts; they isolate the mechanisms the
reproduction's claims rest on:

* ``abl-replacement`` — Figure 2's premise: strict LRU would evict in
  written order (no write amplification); the pseudo-random policies of
  real CPUs are what scramble it.
* ``abl-combiner`` — the device write-combining window: sequential
  streams merge at any size, scrambled streams need an implausibly large
  buffer.
* ``abl-ycsb-mixes`` — Section 7.2.3's negative result: "read-only or
  read-mostly workloads (YCSB B-D) do not benefit from pre-storing".
* ``abl-granularity`` — WA requires a granularity mismatch: sweeping the
  device's internal write unit from 64B (DRAM-like) to 512B (CXL-SSD).
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import List

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, Results, by_config
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.runner import Cell
from repro.sim.cache import CacheLevelSpec
from repro.sim.machine import machine_a
from repro.sim.memory import optane_pmem_spec
from repro.workloads.kv import CLHTWorkload, YCSBSpec
from repro.workloads.microbench import Listing1

__all__ = [
    "AblReplacement",
    "AblCombiner",
    "AblYCSBMixes",
    "AblGranularity",
]


_MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN)


def _listing1(threads: int = 2) -> Listing1:
    # Working set of 2x the LLC and enough iterations that steady-state
    # evictions dominate the end-of-run drain.
    return Listing1(
        element_size=1024,
        num_elements=1024,
        iterations=2400,
        threads=threads,
        compute_per_iter=4096,
    )


def _plain_indexed(spec):
    """Drop slice hashing so replacement is the only scrambler."""
    levels = tuple(
        CacheLevelSpec(
            name=l.name,
            size_bytes=l.size_bytes,
            ways=l.ways,
            hit_latency=l.hit_latency,
            hashed_index=False,
        )
        for l in spec.cache_levels
    )
    return replace(spec, cache_levels=levels)


@register
class AblReplacement(Experiment):
    id = "abl-replacement"
    title = "Ablation: replacement policy vs write amplification"
    paper_claim = (
        "Figure 2's premise: under strict LRU the cache would evict data "
        "in written order (no amplification); pseudo-LRU/random policies "
        "scramble evictions and create it."
    )

    POLICIES = ("lru", "tree-plru", "intel-like", "arm-like", "fifo", "random")

    def cells(self, fast: bool, seed: int) -> Cells:
        factory = functools.partial(_listing1, threads=1)
        cells: Cells = {}
        for policy in self.POLICIES:
            spec = _plain_indexed(replace(machine_a(), replacement_policy=policy))
            cells[policy] = Cell(factory, spec, PrestoreMode.NONE, seed)
        return cells

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows = [
            SeriesRow({"policy": policy}, {"wa_baseline": run.write_amplification})
            for policy, run in results.items()
        ]
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures = []
        by_policy = {r.config["policy"]: r.metric("wa_baseline") for r in result.rows}
        if by_policy["lru"] > 1.4:
            failures.append(f"strict LRU should not amplify, got {by_policy['lru']:.2f}")
        for noisy in ("intel-like", "arm-like", "random"):
            if by_policy[noisy] < by_policy["lru"] + 0.3:
                failures.append(f"{noisy} should amplify more than LRU")
        return failures


@register
class AblCombiner(Experiment):
    id = "abl-combiner"
    title = "Ablation: device write-combiner capacity vs amplification"
    paper_claim = (
        "Write amplification is an interaction between eviction order and "
        "the device's bounded combining window: no realistic window size "
        "absorbs a scrambled stream, while an in-order (pre-stored) stream "
        "merges with just a handful of entries."
    )

    ENTRIES = (4, 16, 64, 256)

    def cells(self, fast: bool, seed: int) -> Cells:
        factory = functools.partial(_listing1, threads=2)
        cells: Cells = {}
        for entries in self.ENTRIES:
            spec = replace(machine_a(), device=optane_pmem_spec(combiner_entries=entries))
            for mode in _MODES:
                cells[(entries, mode)] = Cell(factory, spec, mode, seed)
        return cells

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows = [
            SeriesRow(
                {"combiner_entries": entries, "mode": str(mode)},
                {"write_amplification": run.write_amplification},
            )
            for (entries, mode), run in results.items()
        ]
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures = []
        for entries in self.ENTRIES:
            clean = result.rows_where(combiner_entries=entries, mode="clean")[0]
            base = result.rows_where(combiner_entries=entries, mode="none")[0]
            if clean.metric("write_amplification") > 1.3:
                failures.append(
                    f"{entries} entries: an in-order clean stream should merge"
                )
            if entries <= 64 and base.metric("write_amplification") < 1.8:
                failures.append(
                    f"{entries} entries: a scrambled stream should still amplify"
                )
        return failures


@register
class AblYCSBMixes(Experiment):
    id = "abl-ycsb-mixes"
    title = "Ablation: pre-stores across YCSB mixes A-D (Machine A)"
    paper_claim = (
        "Section 7.2.3: 'read-only or read-mostly workloads (YCSB B-D) do "
        "not benefit from pre-storing data'; the update-heavy mix A does. "
        "(In our model B/D retain a residual gain because the few updates' "
        "amplified writebacks contend with reads on the PMEM media.)"
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        cells: Cells = {}
        for mix in ("A", "B", "C", "D"):
            spec = YCSBSpec(mix=mix, num_keys=8192, operations=1000, value_size=1024)
            factory = functools.partial(CLHTWorkload, spec=spec, threads=4)
            for mode in _MODES:
                cells[(mix, mode)] = Cell(factory, machine_a(), mode, seed)
        return cells

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (mix,), runs in by_config(results).items():
            speedup = runs[PrestoreMode.CLEAN].drained_speedup_over(runs[PrestoreMode.NONE])
            rows.append(SeriesRow({"mix": mix}, {"speedup_clean": speedup}))
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures = []
        speedups = {r.config["mix"]: r.metric("speedup_clean") for r in result.rows}
        if speedups["A"] < 1.3:
            failures.append(f"mix A should benefit clearly, got {speedups['A']:.2f}x")
        if not 0.9 <= speedups["C"] <= 1.1:
            failures.append(
                f"mix C is read-only: cleaning can do nothing, got {speedups['C']:.2f}x"
            )
        for mix in ("B", "C", "D"):
            if speedups[mix] >= speedups["A"]:
                failures.append(f"mix {mix} should benefit less than mix A")
        return failures


@register
class AblGranularity(Experiment):
    id = "abl-granularity"
    title = "Ablation: device internal granularity vs the value of cleaning"
    paper_claim = (
        "Sequentiality only matters when the device's internal write unit "
        "exceeds the CPU line: at 64B granularity (DRAM) cleaning buys "
        "nothing; the gain grows through 256B (PMEM) to 512B (CXL SSD)."
    )

    GRANULARITIES = (64, 128, 256, 512)

    def cells(self, fast: bool, seed: int) -> Cells:
        factory = functools.partial(_listing1, threads=4)
        cells: Cells = {}
        for gran in self.GRANULARITIES:
            device = replace(optane_pmem_spec(), internal_granularity=gran, name=f"gran{gran}")
            spec = replace(machine_a(), device=device)
            for mode in _MODES:
                cells[(gran, mode)] = Cell(factory, spec, mode, seed)
        return cells

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (gran,), runs in by_config(results).items():
            base, clean = runs[PrestoreMode.NONE], runs[PrestoreMode.CLEAN]
            rows.append(
                SeriesRow(
                    {"granularity": gran},
                    {
                        "wa_baseline": base.write_amplification,
                        "speedup_clean": clean.drained_speedup_over(base),
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures = []
        rows = sorted(result.rows, key=lambda r: r.config["granularity"])
        if rows[0].metric("wa_baseline") > 1.1:
            failures.append("64B granularity cannot amplify 64B writebacks")
        if rows[-1].metric("wa_baseline") < rows[0].metric("wa_baseline") + 1.0:
            failures.append("amplification should grow with granularity")
        if rows[-1].metric("speedup_clean") < rows[0].metric("speedup_clean"):
            failures.append("cleaning should pay more at larger granularities")
        return failures
