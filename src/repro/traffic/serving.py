"""ServingWorkload: a KV store under open-loop traffic.

Each client thread WAITs on its next request's pre-posted arrival
timestamp (the simulator's mailbox semantics advance the core clock to
``max(now, arrival)`` — exact open-loop pacing with queueing delay when
the client is backlogged), executes the operation against a shared CLHT
or Masstree store, persists-and-acks writes through a
:class:`~repro.faults.recovery.DurabilityLog` (the pre-store mode *is*
the persist protocol, as in :mod:`repro.faults.workloads`), and records
the completion timestamp via :meth:`ThreadCtx.now`.

Latency is ``completion - arrival`` — queueing included — and the
aggregates (exact nearest-rank p50/p99/p999, SLO-violation counts, a
fixed-bucket histogram scaled to the SLO) land in
``RunResult.extra["serving"]`` through the
:meth:`~repro.workloads.base.Workload.result_extras` hook, on clean
completion *and* after an injected crash.  Everything is a
deterministic function of (spec, machine, mode, seed): sorted-latency
statistics make the numbers independent of scheduler interleaving
order, so fast-path and reference runs stay bit-identical.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.prestore import PatchConfig, PatchSite, PrestoreMode
from repro.errors import WorkloadError
from repro.faults.recovery import DurabilityLog
from repro.faults.workloads import _lines_of
from repro.obs.metrics import Histogram
from repro.sim.event import Event, Mailbox
from repro.traffic.arrivals import ArrivalSpec
from repro.traffic.interleave import ServingOp, compile_schedule
from repro.workloads.base import Workload
from repro.workloads.kv.ycsb import OP_READ, YCSBSpec
from repro.workloads.memapi import Program, ThreadCtx

__all__ = ["ServingWorkload", "latency_bounds"]

_STORES = ("clht", "masstree")

#: Histogram bucket edges as multiples of the SLO: sub-SLO resolution
#: below 1.0, tail resolution above.
_SLO_FRACTIONS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def latency_bounds(slo_cycles: float) -> Tuple[float, ...]:
    """Histogram bucket bounds scaled to an SLO (cycles)."""
    if slo_cycles <= 0:
        raise WorkloadError(f"SLO must be positive, got {slo_cycles}")
    return tuple(round(slo_cycles * f, 3) for f in _SLO_FRACTIONS)


class ServingWorkload(Workload):
    """YCSB-over-KV serving under an open-loop arrival schedule."""

    name = "serving"
    default_threads = 4
    recovery_kind = "kv"

    SITE = PatchSite(
        name="serving.craft_value",
        function="craft_value",
        file="ycsb.c",
        line=12,
        description="the crafted PUT value, persisted before the serving ack",
    )

    def __init__(
        self,
        spec: Optional[YCSBSpec] = None,
        clients: int = 4,
        arrival: Optional[ArrivalSpec] = None,
        slo_cycles: float = 50_000.0,
        store: str = "clht",
        op_overhead_instructions: int = 600,
        load_factor: float = 0.66,
    ) -> None:
        self.spec = spec or YCSBSpec()
        if clients <= 0:
            raise WorkloadError(f"need at least one client, got {clients}")
        if store not in _STORES:
            raise WorkloadError(f"unknown store {store!r}; choose from {_STORES}")
        if slo_cycles <= 0:
            raise WorkloadError(f"SLO must be positive, got {slo_cycles}")
        self.clients = clients
        self.arrival = arrival or ArrivalSpec()
        self.slo_cycles = float(slo_cycles)
        self.store_kind = store
        self.op_overhead_instructions = op_overhead_instructions
        self.load_factor = load_factor
        self.durability_log = DurabilityLog()
        #: (arrival, completion, op) per finished request, appended in
        #: scheduler order; every aggregate sorts first, so the stats are
        #: independent of interleaving order.
        self._records: List[Tuple[float, float, str]] = []

    def patch_sites(self) -> Sequence[PatchSite]:
        return (self.SITE,)

    # -- store construction --------------------------------------------------

    def _build_store(self, program: Program):
        spec = self.spec
        if self.store_kind == "clht":
            from repro.workloads.kv.clht import SLOTS_PER_BUCKET, CLHTStore
            from repro.workloads.kv.values import ValuePool

            pool = ValuePool(
                program.allocator,
                slots=spec.num_keys + spec.operations + 8,
                value_size=spec.value_size,
            )
            store = CLHTStore(
                program.allocator,
                num_buckets=max(16, int(spec.num_keys / (SLOTS_PER_BUCKET * self.load_factor))),
                value_pool=pool,
                line_size=program.machine.line_size,
                max_overflow=max(64, spec.num_keys // 4),
            )
        else:
            from repro.workloads.kv.masstree import FANOUT, MasstreeStore
            from repro.workloads.kv.values import ValuePool

            max_keys = spec.num_keys + spec.operations + 8
            pool = ValuePool(
                program.allocator, slots=max_keys, value_size=spec.value_size
            )
            store = MasstreeStore(
                program.allocator,
                value_pool=pool,
                capacity_nodes=max(64, 4 * max_keys // FANOUT + 16),
            )
        for key in range(spec.num_keys):
            store.preload(key, store.values.alloc())
        return store

    # -- spawning ------------------------------------------------------------

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        if self.clients > program.machine.spec.num_cores:
            raise WorkloadError(
                f"{self.clients} serving clients need {self.clients} cores; "
                f"machine {program.machine.spec.name!r} has "
                f"{program.machine.spec.num_cores}"
            )
        mode = patches.mode(self.SITE.name)
        store = self._build_store(program)
        schedule = compile_schedule(
            self.spec, self.arrival, self.clients, self.spec.operations, program.seed
        )
        # Pre-posting every arrival makes each WAIT satisfied on first
        # execution: the waiting core's clock jumps to max(now, arrival).
        # No POST events are ever simulated, so pacing costs nothing.
        mailbox = Mailbox()
        for ops in schedule:
            for op in ops:
                mailbox.post(("arrive", op.client, op.seq), op.arrival)
        self.durability_log = DurabilityLog()
        self._records = []
        for client_id, ops in enumerate(schedule):
            program.spawn(self._client, program, store, mode, mailbox, ops, client_id)

    def _client(
        self,
        t: ThreadCtx,
        program: Program,
        store,
        mode: PrestoreMode,
        mailbox: Mailbox,
        ops: List[ServingOp],
        client_id: int,
    ) -> Iterator[Event]:
        log = self.durability_log
        device = program.machine.device
        line_size = t.line_size
        value_size = self.spec.value_size
        records = self._records
        for op in ops:
            yield t.wait(mailbox, ("arrive", op.client, op.seq))
            if op.op == OP_READ:
                yield from store.get(t, op.key)
            else:
                # update and insert both go through put; the persist
                # protocol is the pre-store mode (faults/workloads.py):
                # NONE acks straight after the stores — the unsafe
                # baseline whose acked-but-lost window the crash
                # scenarios measure.
                yield from store.put(t, op.key, mode)
                if mode is not PrestoreMode.NONE:
                    yield t.fence()
                slot = store.shadow[op.key]
                log.ack(
                    f"c{client_id}/k{op.key}",
                    _lines_of(store.values.addr(slot), value_size, line_size),
                    device,
                )
            if self.op_overhead_instructions:
                yield t.compute(self.op_overhead_instructions)
            records.append((op.arrival, t.now(), op.op))
            program.add_work(1)

    # -- reporting -----------------------------------------------------------

    def result_extras(self) -> dict:
        """Latency/SLO aggregates for ``RunResult.extra["serving"]``.

        Exact nearest-rank quantiles over sorted latencies (not the
        bucket estimates) — plus the histogram itself, whose bucket
        counts add up across runs.  Empty-denominator fields are None
        (JSON null), per the §10 convention.
        """
        lats = sorted(round(done - arrived, 3) for arrived, done, _ in self._records)
        n = len(lats)

        def rank(q: float) -> Optional[float]:
            if n == 0:
                return None
            return lats[min(n - 1, max(0, math.ceil(q * n) - 1))]

        hist = Histogram("serving.latency_cycles", bounds=latency_bounds(self.slo_cycles))
        violations = 0
        for v in lats:
            hist.observe(v)
            if v > self.slo_cycles:
                violations += 1
        serving = {
            "ops_scheduled": self.spec.operations,
            "ops_completed": n,
            "clients": self.clients,
            "store": self.store_kind,
            "arrival": {
                "kind": self.arrival.kind,
                "rate_per_kcycle": self.arrival.rate_per_kcycle,
                "bursty": self.arrival.bursty,
            },
            "latency_p50": rank(0.50),
            "latency_p99": rank(0.99),
            "latency_p999": rank(0.999),
            "latency_mean": round(sum(lats) / n, 3) if n else None,
            "latency_max": lats[-1] if n else None,
            "slo_cycles": self.slo_cycles,
            "slo_violations": violations,
            "slo_violation_rate": round(violations / n, 6) if n else None,
            "acked_writes": len(self.durability_log),
            "histogram": {
                "bounds": list(hist.bounds),
                "counts": list(hist.bucket_counts),
            },
        }
        return {"serving": serving}
