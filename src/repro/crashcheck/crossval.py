"""Static ↔ dynamic differential: each side checks the other.

Direction 1 (*the static pass is not crying wolf*): every statically
reported vulnerable window is turned into a concrete
:class:`~repro.faults.plan.FaultPlan` crash point at the ack's boundary
and replayed through :func:`~repro.faults.harness.run_with_faults`; the
dynamic run must crash there with the acked record present in the log
and **not** durable in the captured image.  Statically
``guaranteed-durable`` acks visible in the same runs must be durable
(soundness: guaranteed ⇒ durable, never violated by the simulator's
extra persistence channels such as capacity evictions).

Direction 2 (*the static pass misses nothing*): crashes are planted at
fixed fractions of the instruction stream; every acked record the
dynamic recovery check finds non-durable must be statically classified
``possibly-lost`` with the actual crash instruction inside its window.

Alignment riding along on every dynamic run (single-threaded programs):
the dynamic durability log must contain exactly the records the static
IR predicts before the crash boundary, with identical keys, lines and
pinned store versions — any drift between the extractor's symbolic
indexing and the machine's real instruction counting surfaces here.

``ordering-violated`` acks are excluded from direction 1: the
simulator's clwb writeback is synchronous, so it cannot lose them — the
warning exists precisely because real hardware could.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.crashcheck.verify import GUARANTEED, POSSIBLY_LOST, check_workload
from repro.faults.harness import run_with_faults
from repro.faults.image import PersistentImage
from repro.faults.plan import FaultPlan
from repro.faults.recovery import AckRecord
from repro.sim.machine import MachineSpec

__all__ = ["cross_validate"]


def _record_durable(record: AckRecord, image: PersistentImage) -> bool:
    """Same invariant :func:`repro.faults.recovery._record_durable` checks,
    reimplemented on the public image API (and uncapped by report limits)."""
    return all(
        image.is_durable(line, record.required_version(line) or image.line_versions.get(line, 0))
        for line in record.lines
    )


def _spread(items: Sequence, limit: Optional[int]) -> List:
    """Up to ``limit`` items spread evenly across ``items`` (ends included)."""
    if limit is None or len(items) <= limit:
        return list(items)
    if limit <= 1:
        return [items[0]]
    picked = []
    last = len(items) - 1
    for i in range(limit):
        picked.append(items[round(i * last / (limit - 1))])
    # round() can collide on short inputs; dedupe preserving order.
    seen: set = set()
    return [x for x in picked if not (id(x) in seen or seen.add(id(x)))]


def cross_validate(
    make_workload,
    spec: MachineSpec,
    mode: PrestoreMode = PrestoreMode.NONE,
    adr: bool = True,
    seed: int = 1234,
    max_probes: Optional[int] = 6,
    fractions: Sequence[float] = (0.3, 0.7),
    streams: Optional[bool] = None,
) -> Dict[str, object]:
    """Differentially test one (workload, machine, mode, domain) config.

    ``make_workload`` is a zero-argument factory: extraction and every
    dynamic run consume a fresh instance.  Returns a JSON-stable dict;
    ``result["ok"]`` is True iff no direction found a mismatch.
    """
    probe_workload = make_workload()
    patches = PatchConfig.uniform(mode, probe_workload.patch_sites())
    static = check_workload(
        probe_workload, spec, patches=patches, adr=adr, seed=seed, streams=streams
    )
    mismatches: List[str] = []
    dynamic_runs = 0

    static_by_index = {a.index: a for a in static.acks}
    guaranteed = [a for a in static.acks if a.status == GUARANTEED]

    def run_dynamic(crash_instruction: int, context: str):
        nonlocal dynamic_runs
        workload = make_workload()
        plan = FaultPlan.crash_at(crash_instruction, combiner_persistent=adr)
        report = run_with_faults(workload, spec, plan, patches=patches, seed=seed, streams=streams)
        dynamic_runs += 1
        if not report.crashed:
            mismatches.append(f"{context}: planned crash at {crash_instruction} never fired")
            return None, None
        log = getattr(workload, "durability_log", None)
        records = log.records if log is not None else []
        if static.exact_indices:
            # The crash fires at the first event whose pre-check sees
            # count >= crash_instruction, i.e. after every ack recorded
            # at boundaries <= the actual crash instruction.
            actual_instr = report.crash_instruction or 0
            expected = sum(1 for a in static.acks if a.boundary <= actual_instr)
            if len(records) != expected:
                mismatches.append(
                    f"{context}: dynamic log has {len(records)} acks, static IR "
                    f"predicts {expected} at instruction {actual_instr}"
                )
            for record in records:
                ack = static_by_index.get(record.index)
                if ack is None or ack.key != record.key:
                    mismatches.append(
                        f"{context}: ack #{record.index} ({record.key}) does not "
                        f"match the static IR"
                    )
                    break
        # Soundness rider: statically guaranteed acks present in this
        # dynamic log must be durable in the captured image.
        if report.image is not None:
            for ack in guaranteed:
                if ack.index < len(records) and not _record_durable(
                    records[ack.index], report.image
                ):
                    mismatches.append(
                        f"{context}: statically guaranteed ack #{ack.index} "
                        f"({ack.key}) lost dynamically"
                    )
        return report, records

    # -- direction 1: every vulnerable window reproduces dynamically -----------
    probes = _spread(static.vulnerable(), max_probes)
    for ack in probes:
        context = f"direction1 ack#{ack.index}@{ack.boundary}"
        report, records = run_dynamic(ack.boundary, context)
        if report is None or report.image is None:
            continue
        if records is None or ack.index >= len(records):
            mismatches.append(
                f"{context}: acked record missing from the dynamic log "
                f"({0 if records is None else len(records)} records)"
            )
            continue
        if _record_durable(records[ack.index], report.image):
            mismatches.append(
                f"{context}: statically possibly-lost record survived the "
                f"crash at its own boundary"
            )

    # -- direction 2: every dynamic loss is statically predicted ----------------
    for fraction in fractions:
        crash_at = max(1, int(static.instr_total * fraction))
        context = f"direction2 frac={fraction:g} (instr {crash_at})"
        report, records = run_dynamic(crash_at, context)
        if report is None or report.image is None or records is None:
            continue
        actual = report.crash_instruction or crash_at
        for record in records:
            durable = _record_durable(record, report.image)
            ack = static_by_index.get(record.index)
            if ack is None:
                continue  # already reported by the alignment check
            if not durable:
                if ack.status != POSSIBLY_LOST:
                    mismatches.append(
                        f"{context}: record #{record.index} ({record.key}) lost "
                        f"dynamically but statically {ack.status}"
                    )
                elif static.exact_indices and not ack.window_contains(actual):
                    mismatches.append(
                        f"{context}: record #{record.index} lost at instruction "
                        f"{actual}, outside its static window {ack.window}"
                    )

    return {
        "workload": static.workload,
        "machine": static.machine,
        "mode": mode.value,
        "adr": adr,
        "seed": seed,
        "static": {
            "acks": len(static.acks),
            "counts": static.counts(),
            "instr_total": static.instr_total,
            "exact_indices": static.exact_indices,
        },
        "probes": len(probes),
        "dynamic_runs": dynamic_runs,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
