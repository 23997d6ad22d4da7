"""Crash-consistency workloads: persist protocols under the fault harness.

Both workloads acknowledge operations through a
:class:`~repro.faults.recovery.DurabilityLog` the harness checks after a
crash.  The pre-store mode *is* the persistence protocol knob:

``none``
    Ack straight after the stores — the unsafe baseline.  Whatever the
    caches still hold at the crash is lost; the recovery check reports
    the damage, which is exactly the crash-vulnerable dirty window the
    ``faults_window`` experiment measures.
``clean``
    ``prestore(CLEAN)`` (clwb) the data, fence, then ack — the paper's
    persist protocol.  Every acked operation must survive any crash on
    an ADR device.
``demote``
    Demote + fence: makes the data *visible* (pushed to the point of
    unification) but not durable — demotion never leaves the cache
    hierarchy.  Included deliberately: visibility is not persistence.
``skip``
    Non-temporal stores + fence: the data bypasses the caches entirely
    and is accepted by the device before the ack.

Acks execute at true event boundaries: generator code between ``yield``
statements runs after the previously yielded event completed, so a
record's versions are snapshotted only once its fence has executed.
Threads own disjoint key/log slices, so version snapshots never race.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.core.prestore import PatchConfig, PatchSite, PrestoreMode
from repro.errors import WorkloadError
from repro.faults.recovery import DurabilityLog
from repro.sim.event import Event
from repro.workloads.base import Workload
from repro.workloads.memapi import Program, ThreadCtx

__all__ = ["KVPersistWorkload", "LogAppendWorkload"]


def _lines_of(addr: int, size: int, line_size: int) -> List[int]:
    first = addr // line_size
    last = (addr + max(size, 1) - 1) // line_size
    return list(range(first, last + 1))


class KVPersistWorkload(Workload):
    """Persistent KV store front: put = write value slot, persist, ack.

    Each thread owns a disjoint slice of the key space and rewrites
    seeded-random slots within it; the recovery invariant is that every
    acknowledged put's value is readable after a crash (``kv`` check).
    """

    name = "kvpersist"
    recovery_kind = "kv"

    SITE = PatchSite(
        name="kvpersist.value",
        function="kv_put",
        file="kvpersist.c",
        line=7,
        description="the just-written value slot, persisted before the ack",
    )

    def __init__(
        self,
        keys: int = 64,
        value_size: int = 256,
        operations: int = 160,
        threads: int = 1,
        compute_per_op: int = 0,
    ) -> None:
        if keys <= 0 or value_size <= 0 or operations <= 0 or threads <= 0:
            raise WorkloadError("kvpersist parameters must be positive")
        if threads > keys:
            raise WorkloadError("kvpersist needs at least one key per thread")
        self.keys = keys
        self.value_size = value_size
        self.operations = operations
        self.threads = threads
        self.compute_per_op = compute_per_op
        self.durability_log = DurabilityLog()

    def patch_sites(self) -> Sequence[PatchSite]:
        return (self.SITE,)

    def events_per_op(
        self, line_size: int = 64, mode: PrestoreMode = PrestoreMode.CLEAN
    ) -> int:
        """Events one put issues under ``mode`` (for crash placement)."""
        lines = max(1, -(-self.value_size // line_size))
        extra = 1 if mode.op is not None else 0  # prestore
        extra += 1 if mode is not PrestoreMode.NONE else 0  # fence
        extra += 1 if self.compute_per_op else 0
        return lines + extra

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        mode = patches.mode(self.SITE.name)
        per_thread = max(1, self.operations // self.threads)
        keys_per_thread = self.keys // self.threads
        for tid in range(self.threads):
            program.spawn(self._body, program, mode, tid, keys_per_thread, per_thread)

    def _body(
        self,
        t: ThreadCtx,
        program: Program,
        mode: PrestoreMode,
        tid: int,
        nkeys: int,
        operations: int,
    ) -> Iterator[Event]:
        values = t.alloc(nkeys * self.value_size, label=f"kv_values_t{tid}")
        nontemporal = mode is PrestoreMode.SKIP
        line_size = t.line_size
        log = self.durability_log
        device = program.machine.device
        with t.function("kv_put", file="kvpersist.c", line=3):
            for _ in range(operations):
                k = t.rng.randrange(nkeys)
                addr = values.addr(k * self.value_size)
                yield from t.write_block(addr, self.value_size, nontemporal=nontemporal)
                if mode.op is not None:
                    yield t.prestore(addr, self.value_size, mode.op)
                if mode is not PrestoreMode.NONE:
                    yield t.fence()
                if self.compute_per_op:
                    yield t.compute(self.compute_per_op)
                # The put returns to its client here — only now is the
                # operation "acknowledged persisted".
                log.ack(f"t{tid}/k{k}", _lines_of(addr, self.value_size, line_size), device)
                program.add_work(1)


class LogAppendWorkload(Workload):
    """Sequential write-ahead log: append record, persist, ack.

    A single writer appends fixed-size records; recovery must find a
    durable *prefix* of the acked sequence (``prefix`` check).  This is
    the listing-style pattern the paper's clwb/sfence discussion covers:
    without cleaning, eviction order scrambles which records reach the
    medium, so a crash leaves holes recovery has to truncate.
    """

    name = "logappend"
    recovery_kind = "prefix"

    SITE = PatchSite(
        name="logappend.record",
        function="log_append",
        file="logappend.c",
        line=5,
        description="the just-appended record, persisted before the ack",
    )

    def __init__(self, record_size: int = 256, records: int = 200) -> None:
        if record_size <= 0 or records <= 0:
            raise WorkloadError("logappend parameters must be positive")
        self.record_size = record_size
        self.records = records
        self.durability_log = DurabilityLog()

    @property
    def operations(self) -> int:
        """Appends, each one acked operation (what crash placement counts)."""
        return self.records

    def patch_sites(self) -> Sequence[PatchSite]:
        return (self.SITE,)

    def events_per_op(
        self, line_size: int = 64, mode: PrestoreMode = PrestoreMode.CLEAN
    ) -> int:
        lines = max(1, -(-self.record_size // line_size))
        extra = 1 if mode.op is not None else 0
        extra += 1 if mode is not PrestoreMode.NONE else 0
        return lines + extra

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        mode = patches.mode(self.SITE.name)
        program.spawn(self._body, program, mode)

    def _body(self, t: ThreadCtx, program: Program, mode: PrestoreMode) -> Iterator[Event]:
        log_region = t.alloc(self.records * self.record_size, label="wal")
        nontemporal = mode is PrestoreMode.SKIP
        line_size = t.line_size
        log = self.durability_log
        device = program.machine.device
        with t.function("log_append", file="logappend.c", line=2):
            for i in range(self.records):
                addr = log_region.addr(i * self.record_size)
                yield from t.write_block(addr, self.record_size, nontemporal=nontemporal)
                if mode.op is not None:
                    yield t.prestore(addr, self.record_size, mode.op)
                if mode is not PrestoreMode.NONE:
                    yield t.fence()
                log.ack(f"rec{i}", _lines_of(addr, self.record_size, line_size), device)
                program.add_work(1)

