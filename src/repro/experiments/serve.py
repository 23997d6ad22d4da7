"""Serve: KV serving under live traffic — tail latency and durability.

The serving composition the traffic layer exists for: an open-loop
YCSB-A client fleet against the CLHT store on Machine A, swept over
pre-store modes × fault scenarios, one runner cell per pair carrying
the scenario's :class:`~repro.faults.plan.FaultPlan`.

Three scenarios per mode:

* ``steady`` — undisturbed traffic; the baseline tail.
* ``degraded`` — a mid-run degraded-bandwidth window (media work ×8
  for the middle half of the arrival horizon): requests that hit the
  device inside the window pay the stretched media occupancy, so p999
  blows out while p50 (combiner hits) barely moves.
* ``crash`` — power fails at 60% of the horizon; recovery replays the
  durability log against the persistent image and counts acked writes
  whose lines never reached the media (the acked-but-lost window).

The serving tradeoff this reproduces: ``none`` acks straight after the
store writes — fast, but a crash loses acked data; ``clean`` pre-stores
the value lines before the ack, paying tail latency through the
degraded medium but losing nothing on crash.
"""

from __future__ import annotations

import functools
from typing import List, Optional

from repro.core.prestore import PrestoreMode
from repro.experiments.common import Cells, Results
from repro.experiments.registry import Experiment, ExperimentResult, SeriesRow, register
from repro.faults.plan import FaultPlan
from repro.runner import Cell
from repro.sim.machine import machine_a
from repro.traffic.arrivals import ArrivalSpec
from repro.traffic.serving import ServingWorkload
from repro.workloads.kv.ycsb import YCSBSpec

__all__ = ["ServeTraffic"]

#: Working set (num_keys × value_size = 1 MiB) deliberately exceeds
#: Machine A's 512 KiB LLC: mid-run demand misses and combiner closes
#: keep media traffic live, so the degraded window has something to
#: slow down *during* the run, not just at drain time.
_NUM_KEYS = 1024
_VALUE_SIZE = 1024
_RATE_PER_KCYCLE = 0.25  # un-overloaded steady state at 4 clients
_SLO_CYCLES = 10_000.0

_MODES = (PrestoreMode.NONE, PrestoreMode.CLEAN)


def _metric(value: Optional[float]) -> float:
    """None (a JSON-null serving field) renders as NaN, per §10."""
    return float("nan") if value is None else float(value)


@register
class ServeTraffic(Experiment):
    id = "serve"
    title = "KV serving under live traffic: tail latency vs. durability (Machine A)"
    paper_claim = (
        "Pre-storing the value lines before the ack closes the "
        "acked-but-lost window entirely: under a crash the none baseline "
        "loses acked writes while clean loses zero, and the price is "
        "paid only in tail latency when the medium itself degrades."
    )

    def cells(self, fast: bool, seed: int) -> Cells:
        operations = 2000 if fast else 4000
        arrival = ArrivalSpec(kind="poisson", rate_per_kcycle=_RATE_PER_KCYCLE)
        horizon = arrival.expected_horizon_cycles(operations)
        factory = functools.partial(
            ServingWorkload,
            spec=YCSBSpec(
                mix="A",
                num_keys=_NUM_KEYS,
                operations=operations,
                value_size=_VALUE_SIZE,
            ),
            clients=4,
            arrival=arrival,
            slo_cycles=_SLO_CYCLES,
        )
        plans = {
            "steady": None,
            "degraded": FaultPlan.degraded_window(0.25 * horizon, 0.5 * horizon, slowdown=8.0),
            "crash": FaultPlan.crash_at_cycle(0.6 * horizon),
        }
        return {
            (mode, scenario): Cell(factory, machine_a(), mode, seed, fault_plan=plan)
            for mode in _MODES
            for scenario, plan in plans.items()
        }

    def reduce(self, results: Results, fast: bool, seed: int) -> ExperimentResult:
        rows: List[SeriesRow] = []
        for (mode, scenario), run in results.items():
            extra = run.extra
            serving = extra["serving"]
            report = extra.get("fault_report") or {}
            recovery = report.get("recovery") or {}
            lost = recovery.get("lost_count", 0) if report.get("crashed") else 0
            rows.append(
                SeriesRow(
                    {"mode": mode.value, "scenario": scenario},
                    {
                        "latency_p50": _metric(serving["latency_p50"]),
                        "latency_p99": _metric(serving["latency_p99"]),
                        "latency_p999": _metric(serving["latency_p999"]),
                        "slo_violation_rate": _metric(serving["slo_violation_rate"]),
                        "ops_completed": float(serving["ops_completed"]),
                        "acked_writes": float(serving["acked_writes"]),
                        "lost_acked": float(lost),
                    },
                )
            )
        return self._result(rows)

    def check(self, result: ExperimentResult) -> List[str]:
        failures: List[str] = []

        def one(mode: str, scenario: str) -> Optional[SeriesRow]:
            rows = result.rows_where(mode=mode, scenario=scenario)
            if not rows:
                failures.append(f"missing row mode={mode} scenario={scenario}")
                return None
            return rows[0]

        none_crash = one("none", "crash")
        clean_crash = one("clean", "crash")
        if none_crash is not None and none_crash.metric("lost_acked") <= 0:
            failures.append(
                "crash under none should lose acked writes (the unsafe ack), lost 0"
            )
        if clean_crash is not None and clean_crash.metric("lost_acked") != 0:
            failures.append(
                f"crash under clean must lose nothing, lost "
                f"{clean_crash.metric('lost_acked'):.0f} acked writes"
            )
        for mode in ("none", "clean"):
            steady = one(mode, "steady")
            degraded = one(mode, "degraded")
            if steady is None or degraded is None:
                continue
            if degraded.metric("latency_p999") < steady.metric("latency_p999"):
                failures.append(
                    f"{mode}: degraded bandwidth should inflate the tail, p999 "
                    f"{degraded.metric('latency_p999'):.0f} < steady "
                    f"{steady.metric('latency_p999'):.0f}"
                )
            if steady.metric("slo_violation_rate") > 0.05:
                failures.append(
                    f"{mode}: steady state should be un-overloaded, violation "
                    f"rate {steady.metric('slo_violation_rate'):.3f}"
                )
        return failures
