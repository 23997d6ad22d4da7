"""The crash-point enumerator: classify every ack at every boundary.

For each acknowledgement in the extracted stream the verifier computes
its *vulnerable window* — the half-open instruction-index interval
``[boundary, end)`` in which a crash loses acked data — and classifies:

``guaranteed-durable``
    Every line's required version was accepted by the device at or
    before the ack boundary, and a full fence orders each persist op
    before the ack.  No crash point anywhere loses this record (ADR).

``ordering-violated``
    Durable in the simulator (whose clwb writeback is synchronous) but
    only by accident of that model: some persist op has no full fence
    between it and the ack, so on real hardware — where clwb is
    asynchronous until fenced — the ack races its own persist.
    Reported as a warning (``crashcheck.missing-fence`` or
    ``crashcheck.fence-scope-too-narrow``); excluded from the
    dynamic-reproduction direction of cross-validation because the
    simulator cannot lose it.

``possibly-lost``
    A crash inside the window leaves the record non-durable.  Rule
    ``crashcheck.acked-before-persist`` when no persist op covers the
    record's lines before the ack (the unsafe baseline), else
    ``crashcheck.missing-clwb`` (demote-only or stale/partial persist).

Under a media-only domain (``adr=False``) open write-combiner entries
die with the power, and close times are not statically knowable: every
ack with a real version requirement is ``possibly-lost`` with a window
open to the program end (``crashcheck.media-domain``, info).  Protocol
rules are still computed from the ADR model so e.g. a demote-only
protocol keeps its ``missing-clwb`` error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.crashcheck.extract import (
    AckPoint,
    PERSIST_KINDS,
    ProgramIR,
    STORE_KINDS,
    extract_ir,
)
from repro.crashcheck.hb import PersistModel
from repro.errors import Diagnostic
from repro.sim.event import CodeSite, UNKNOWN_SITE
from repro.sim.machine import MachineSpec
from repro.workloads.base import Workload

__all__ = ["AckClassification", "CrashCheckReport", "check_workload", "classify"]

GUARANTEED = "guaranteed-durable"
POSSIBLY_LOST = "possibly-lost"
ORDERING = "ordering-violated"


@dataclass(frozen=True)
class AckClassification:
    """One ack's verdict across all crash points."""

    index: int
    key: str
    boundary: int
    status: str
    #: Half-open vulnerable window ``[start, end)`` in instruction
    #: indices; ``end=None`` leaves it open to the program end.  Only
    #: possibly-lost acks carry a window.
    window: Optional[Tuple[int, Optional[int]]]
    rules: Tuple[str, ...] = ()

    def window_contains(self, instruction: int) -> bool:
        if self.window is None:
            return False
        start, end = self.window
        return start <= instruction and (end is None or instruction < end)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "key": self.key,
            "boundary": self.boundary,
            "status": self.status,
            "window": None if self.window is None else list(self.window),
            "rules": list(self.rules),
        }


@dataclass
class CrashCheckReport:
    """The static verifier's output for one workload configuration."""

    workload: str
    machine: str
    patch_summary: str
    adr: bool
    seed: int
    instr_total: int
    threads: int
    exact_indices: bool
    acks: List[AckClassification] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {GUARANTEED: 0, POSSIBLY_LOST: 0, ORDERING: 0}
        for ack in self.acks:
            out[ack.status] = out.get(ack.status, 0) + 1
        return out

    def vulnerable(self) -> List[AckClassification]:
        """Possibly-lost acks whose window a planned crash can reach.

        A boundary at ``instr_total`` is unreachable: no event remains
        to trip the injector's pre-execution check.
        """
        return [
            a
            for a in self.acks
            if a.status == POSSIBLY_LOST and a.boundary < self.instr_total
        ]

    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "machine": self.machine,
            "patch_summary": self.patch_summary,
            "adr": self.adr,
            "seed": self.seed,
            "instr_total": self.instr_total,
            "threads": self.threads,
            "exact_indices": self.exact_indices,
            "counts": self.counts(),
            "acks": [a.to_dict() for a in self.acks],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class _RuleTally:
    """Aggregation of one (rule, site) pair across acks."""

    __slots__ = ("site", "count", "first_index", "first_line", "message", "severity")

    def __init__(
        self, site: CodeSite, index: int, line: Optional[int], message: str, severity: str
    ) -> None:
        self.site = site
        self.count = 1
        self.first_index = index
        self.first_line = line
        self.message = message
        self.severity = severity


def _ack_site(ir: ProgramIR, ack: AckPoint) -> CodeSite:
    """Provenance for an ack: its last covering store's code site."""
    lines = set(ack.record.lines)
    for pos in range(ack.op_pos - 1, -1, -1):
        op = ir.ops[pos]
        if op.tid != ack.tid:
            continue
        if op.kind in STORE_KINDS and lines.intersection(op.lines):
            return op.site
    return UNKNOWN_SITE


def _has_covering_persist(ir: ProgramIR, ack: AckPoint) -> Tuple[bool, bool]:
    """(any persist-ish op covers the lines, only demotes do)."""
    lines = set(ack.record.lines)
    persist = False
    demote_only = True
    for pos in range(ack.op_pos):
        op = ir.ops[pos]
        if op.tid != ack.tid or not lines.intersection(op.lines):
            continue
        if op.kind in PERSIST_KINDS:
            persist = True
            demote_only = False
        elif op.kind == "demote":
            persist = True
    return persist, demote_only and persist


def _ordering_rules(ir: ProgramIR, ack: AckPoint, positions: List[int]) -> List[str]:
    """Protocol check: each accepting persist op needs a full fence
    between itself and the ack (same thread)."""
    rules: List[str] = []
    for pos in positions:
        narrow = False
        fenced = False
        for later in range(pos + 1, ack.op_pos):
            op = ir.ops[later]
            if op.tid != ack.tid:
                continue
            if op.kind in ("fence", "atomic"):
                fenced = True
                break
            if op.kind == "load-fence":
                narrow = True
        if not fenced:
            rules.append(
                "crashcheck.fence-scope-too-narrow" if narrow else "crashcheck.missing-fence"
            )
    return rules


def classify(ir: ProgramIR, adr: bool = True) -> Tuple[List[AckClassification], PersistModel]:
    """Classify every ack of ``ir``; returns (classifications, model)."""
    model = PersistModel(ir)
    out: List[AckClassification] = []
    for ack in ir.acks:
        end = model.persist_window_end(ack)
        adr_durable = end is not None and end <= ack.boundary
        rules: List[str] = []
        if adr_durable:
            ordering = _ordering_rules(ir, ack, model.accepting_positions(ack))
            if adr:
                if ordering:
                    status = ORDERING
                    rules = ordering
                else:
                    status = GUARANTEED
                window = None
            else:
                status = POSSIBLY_LOST
                window = (ack.boundary, None)
                rules = ["crashcheck.media-domain", *ordering]
        else:
            persist, demote_only = _has_covering_persist(ir, ack)
            if not persist:
                rules = ["crashcheck.acked-before-persist"]
            else:
                rules = ["crashcheck.missing-clwb"]
                if demote_only:
                    rules.append("crashcheck.demote-not-durable")
            status = POSSIBLY_LOST
            if adr:
                window = (ack.boundary, end)
            else:
                window = (ack.boundary, None)
                rules.append("crashcheck.media-domain")
        out.append(
            AckClassification(
                index=ack.record.index,
                key=ack.record.key,
                boundary=ack.boundary,
                status=status,
                window=window,
                rules=tuple(rules),
            )
        )
    return out, model


_RULE_SEVERITY = {
    "crashcheck.acked-before-persist": "error",
    "crashcheck.missing-clwb": "error",
    "crashcheck.demote-not-durable": "error",
    "crashcheck.missing-fence": "warning",
    "crashcheck.fence-scope-too-narrow": "warning",
    "crashcheck.redundant-flush": "warning",
    "crashcheck.media-domain": "info",
    "crashcheck.approximate-indices": "info",
}

_RULE_MESSAGE = {
    "crashcheck.acked-before-persist": (
        "operation acknowledged with no persist op (clwb / non-temporal "
        "store) covering its lines: any crash inside the window loses "
        "acked data"
    ),
    "crashcheck.missing-clwb": (
        "acked data is not fully accepted by the device at the ack: a "
        "clwb covering the latest store versions is missing before the ack"
    ),
    "crashcheck.demote-not-durable": (
        "the only pre-store covering the acked lines is a demote "
        "(cldemote): it moves data toward the point of unification but "
        "never off the hierarchy — visibility is not persistence"
    ),
    "crashcheck.missing-fence": (
        "no full fence between the persist op and the ack: the simulator's "
        "synchronous clwb hides it, but on real hardware the unordered ack "
        "races its own persist"
    ),
    "crashcheck.fence-scope-too-narrow": (
        "only a load/acquire fence separates the persist op from the ack: "
        "it neither drains the store buffer nor orders clwb completion — "
        "use a full fence (sfence/mfence)"
    ),
    "crashcheck.redundant-flush": (
        "clean hits lines already accepted at their current version: no "
        "writeback is owed, the flush is dead work"
    ),
    "crashcheck.media-domain": (
        "media-only persistence domain: acceptance into an open "
        "write-combiner entry is not durable and entry close times are "
        "not statically knowable — every ack window extends to the end "
        "of the program"
    ),
    "crashcheck.approximate-indices": (
        "multi-threaded program: the extractor walks threads sequentially, "
        "so instruction indices approximate the machine's time-ordered "
        "interleaving"
    ),
}


def _build_diagnostics(
    ir: ProgramIR, acks: List[AckClassification], model: PersistModel
) -> List[Diagnostic]:
    tallies: Dict[Tuple[str, str], _RuleTally] = {}

    def hit(rule: str, site: CodeSite, index: int, line: Optional[int]) -> None:
        key = (rule, str(site))
        tally = tallies.get(key)
        if tally is not None:
            tally.count += 1
            return
        tallies[key] = _RuleTally(
            site, index, line, _RULE_MESSAGE[rule], _RULE_SEVERITY[rule]
        )

    by_index = {ack.record.index: ack for ack in ir.acks}
    for classification in acks:
        ack = by_index.get(classification.index)
        site = _ack_site(ir, ack) if ack is not None else UNKNOWN_SITE
        line = ack.record.lines[0] if ack is not None and ack.record.lines else None
        for rule in classification.rules:
            hit(rule, site, classification.boundary, line)
    for op in model.redundant_cleans:
        hit("crashcheck.redundant-flush", op.site, op.index, op.lines[0] if op.lines else None)
    if not ir.exact_indices:
        hit("crashcheck.approximate-indices", UNKNOWN_SITE, 0, None)

    out: List[Diagnostic] = []
    for (rule, _site_key), tally in tallies.items():
        message = tally.message
        if tally.count > 1:
            message = f"{message} ({tally.count} occurrences)"
        out.append(
            Diagnostic(
                rule=rule,
                severity=tally.severity,
                message=message,
                site=tally.site,
                cache_line=tally.first_line,
                instr_index=tally.first_index,
                count=tally.count,
            )
        )
    severity_rank = {"error": 0, "warning": 1, "info": 2}
    out.sort(key=lambda d: (severity_rank.get(d.severity, 3), d.rule, str(d.site)))
    return out


def check_workload(
    workload: Workload,
    spec: MachineSpec,
    patches: Optional[PatchConfig] = None,
    mode: Optional[PrestoreMode] = None,
    adr: bool = True,
    seed: int = 1234,
    streams: Optional[bool] = None,
) -> CrashCheckReport:
    """Statically verify one workload configuration.

    Pass either an explicit ``patches`` config or a uniform ``mode``.
    Extraction consumes the workload instance (generators drained,
    durability log appended): hand in a fresh one, as the cross-validation
    harness does.
    """
    if patches is None and mode is not None:
        patches = PatchConfig.uniform(mode, workload.patch_sites())
    ir = extract_ir(workload, spec, patches=patches, seed=seed, streams=streams)
    acks, model = classify(ir, adr=adr)
    diagnostics = _build_diagnostics(ir, acks, model)
    return CrashCheckReport(
        workload=ir.workload,
        machine=ir.machine,
        patch_summary=ir.patch_summary,
        adr=adr,
        seed=seed,
        instr_total=ir.instr_total,
        threads=ir.threads,
        exact_indices=ir.exact_indices,
        acks=acks,
        diagnostics=diagnostics,
    )
