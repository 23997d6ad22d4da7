"""Pass 2: pre-store misuse detection over the simulated event stream.

DirtBuster (Section 6.2.3) *recommends* pre-store placements; this pass
*checks* them.  It replays the run through the same distance machinery
DirtBuster uses (:class:`~repro.dirtbuster.distances.DistanceTracker`,
:class:`~repro.dirtbuster.recommend.Thresholds`) and flags the misuse
classes the paper documents:

``prestore.hot-rewrite``
    A ``clean`` (or a non-temporal "skip" store) hit a line that was
    rewritten shortly after — the Listing 3 / ``fftz2`` pathology, where
    every cache write becomes a memory write (~75x, Section 5).
``prestore.demote-after-fence``
    A ``demote`` issued after the fence that already forced its write
    visible: the round trip it was meant to overlap has been paid.
``prestore.skip-reread``
    Non-temporally written data re-read within the re-read horizon; the
    cached copy was invalidated, so the read pays device latency.
``prestore.unwritten``
    A pre-store on lines no core ever wrote — dead code at best.

Rate gates (``min_count`` / ``min_share``) keep the pass quiet about the
incidental collisions every random-index workload produces: Listing 1's
occasional back-to-back hit on the same element is not misuse, Listing
3's every-iteration rewrite is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.prestore import PrestoreOp
from repro.dirtbuster.distances import DistanceTracker
from repro.dirtbuster.recommend import Thresholds
from repro.errors import Diagnostic
from repro.sim.event import CodeSite, Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine

__all__ = ["PrestoreLint"]


@dataclass
class _SiteTally:
    """Occurrence counting for one (rule, site) pair."""

    site: CodeSite
    violations: int = 0
    opportunities: int = 0
    distance_sum: float = 0.0
    first_instr: Optional[int] = None
    example_addr: Optional[int] = None
    example_line: Optional[int] = None
    core_id: Optional[int] = None
    related: Tuple[CodeSite, ...] = ()

    def hit(
        self,
        instr_index: int,
        addr: int,
        line: int,
        core_id: int,
        distance: float = 0.0,
        related: Optional[CodeSite] = None,
    ) -> None:
        self.violations += 1
        self.distance_sum += distance
        if self.first_instr is None:
            self.first_instr = instr_index
            self.example_addr = addr
            self.example_line = line
            self.core_id = core_id
            if related is not None:
                self.related = (related,)

    @property
    def mean_distance(self) -> float:
        return self.distance_sum / self.violations if self.violations else 0.0


class PrestoreLint:
    """Replays the event stream and flags pre-store misuse.

    Distance tracking and the clean/nt recency maps are per-access.
    Having no ``record_stream``, the lint gets streams unrolled by the
    machine, one READ/WRITE record per access.
    """

    def __init__(
        self,
        thresholds: Optional[Thresholds] = None,
        min_count: int = 4,
        min_share: float = 0.05,
    ) -> None:
        self.thresholds = thresholds or Thresholds()
        #: A rate-gated rule fires only after this many violations ...
        self.min_count = min_count
        #: ... making up at least this share of the site's opportunities.
        self.min_share = min_share
        self._line_size = 64
        self.distances = DistanceTracker(self._line_size)
        #: line -> (instr, site) of the latest CLEAN pre-store.
        self._cleaned: Dict[int, Tuple[int, CodeSite]] = {}
        #: line -> (instr, site) of the latest non-temporal store.
        self._nt_written: Dict[int, Tuple[int, CodeSite]] = {}
        self._nt_lines: Set[int] = set()
        self._nt_lines_reread: Set[int] = set()
        #: per-core write/fence recency for the demote-after-fence rule.
        self._last_write: Dict[int, Dict[int, int]] = {}
        self._last_fence: Dict[int, Tuple[int, CodeSite]] = {}
        self._written_lines: Set[int] = set()
        self._tallies: Dict[Tuple[str, str], _SiteTally] = {}
        #: pre-store issue counts per site (the hot-rewrite denominator).
        self._prestores_at: Dict[str, int] = {}
        self._nt_writes_at: Dict[str, int] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        self._line_size = machine.line_size
        self.distances = DistanceTracker(machine.line_size)

    # -- tallying -------------------------------------------------------------

    def _tally(self, rule: str, site: CodeSite) -> _SiteTally:
        key = (rule, str(site))
        tally = self._tallies.get(key)
        if tally is None:
            tally = _SiteTally(site=site)
            self._tallies[key] = tally
        return tally

    # -- the tracer entry point ------------------------------------------------

    def record(self, core_id: int, event: Event, instr_index: int, cycles: float) -> None:
        kind = event.kind
        if kind is EventKind.WRITE:
            self._on_write(core_id, event, instr_index)
        elif kind is EventKind.READ:
            self._on_read(core_id, event, instr_index)
        elif kind is EventKind.PRESTORE:
            self._on_prestore(core_id, event, instr_index)
        elif kind is EventKind.ATOMIC:
            self._on_fence(core_id, event, instr_index)
            for line in event.lines(self._line_size):
                self._written_lines.add(line)
            self.distances.observe_write(
                core_id, event.site.function, event.addr, event.size, instr_index
            )
        elif kind is EventKind.FENCE and event.has_fence_semantics:
            self._on_fence(core_id, event, instr_index)

    # -- event handlers ---------------------------------------------------------

    def _on_write(self, core_id: int, event: Event, instr_index: int) -> None:
        self.distances.observe_write(
            core_id, event.site.function, event.addr, event.size, instr_index
        )
        writes = self._last_write.setdefault(core_id, {})
        for line in event.lines(self._line_size):
            self._written_lines.add(line)
            writes[line] = instr_index
            cleaned = self._cleaned.pop(line, None)
            if cleaned is not None:
                clean_instr, clean_site = cleaned
                distance = instr_index - clean_instr
                if distance <= self.thresholds.hot_rewrite:
                    self._tally("prestore.hot-rewrite", clean_site).hit(
                        instr_index, event.addr, line, core_id, distance, event.site
                    )
            if event.nontemporal:
                nt = self._nt_written.get(line)
                if nt is not None and instr_index - nt[0] <= self.thresholds.hot_rewrite:
                    self._tally("prestore.hot-rewrite", nt[1]).hit(
                        instr_index, event.addr, line, core_id, instr_index - nt[0], event.site
                    )
                self._nt_written[line] = (instr_index, event.site)
                self._nt_lines.add(line)
                site_key = str(event.site)
                self._nt_writes_at[site_key] = self._nt_writes_at.get(site_key, 0) + 1
            else:
                self._nt_written.pop(line, None)

    def _on_read(self, core_id: int, event: Event, instr_index: int) -> None:
        self.distances.observe_read(core_id, event.addr, event.size, instr_index)
        for line in event.lines(self._line_size):
            nt = self._nt_written.get(line)
            if nt is None:
                continue
            nt_instr, nt_site = nt
            distance = instr_index - nt_instr
            if distance <= self.thresholds.reuse_horizon:
                self._nt_lines_reread.add(line)
                self._tally("prestore.skip-reread", nt_site).hit(
                    instr_index, event.addr, line, core_id, distance, event.site
                )

    def _on_fence(self, core_id: int, event: Event, instr_index: int) -> None:
        self._last_fence[core_id] = (instr_index, event.site)

    def _on_prestore(self, core_id: int, event: Event, instr_index: int) -> None:
        site_key = str(event.site)
        self._prestores_at[site_key] = self._prestores_at.get(site_key, 0) + 1
        lines = list(event.lines(self._line_size))
        if not any(line in self._written_lines or line in self._nt_lines for line in lines):
            self._tally("prestore.unwritten", event.site).hit(
                instr_index, event.addr, lines[0] if lines else 0, core_id
            )
            return
        for line in lines:
            if event.op is PrestoreOp.CLEAN:
                self._cleaned[line] = (instr_index, event.site)
            elif event.op is PrestoreOp.DEMOTE:
                self._check_demote(core_id, event, line, instr_index)

    def _check_demote(self, core_id: int, event: Event, line: int, instr_index: int) -> None:
        last_write = self._last_write.get(core_id, {}).get(line)
        fence = self._last_fence.get(core_id)
        if last_write is None or fence is None:
            return
        fence_instr, fence_site = fence
        if fence_instr > last_write:
            self._tally("prestore.demote-after-fence", event.site).hit(
                instr_index, event.addr, line, core_id, instr_index - fence_instr, fence_site
            )

    # -- diagnostics -------------------------------------------------------------

    def diagnostics(self) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for (rule, site_key), tally in self._tallies.items():
            if rule == "prestore.hot-rewrite":
                issued = self._prestores_at.get(site_key, 0) + self._nt_writes_at.get(site_key, 0)
                stats = self.distances.stats(tally.site.function)
                # Gate on DirtBuster's own criterion: the *mean* rewrite
                # distance of the function's data must be hot.  Random-index
                # workloads (Listing 1) produce occasional short rewrites
                # but a large mean; Listing 3's every-iteration rewrite
                # collapses the mean far below the threshold.
                if (
                    tally.violations < self.min_count
                    or stats.mean_rewrite_distance > self.thresholds.hot_rewrite
                ):
                    continue
                message = (
                    f"clean/skip hits a hot line: rewritten ~{tally.mean_distance:.0f} "
                    f"instructions later on average ({tally.violations} of {issued} "
                    f"pre-stored lines; function mean rewrite distance "
                    f"{stats.mean_rewrite_distance:.0f}); every rewrite becomes a "
                    f"memory write — drop the pre-store (Listing 3)"
                )
                severity = "error"
            elif rule == "prestore.skip-reread":
                written = len(self._nt_lines) or 1
                reread = len(self._nt_lines_reread)
                if tally.violations < self.min_count or reread / written < self.min_share:
                    continue
                message = (
                    f"non-temporally written data is re-read ~{tally.mean_distance:.0f} "
                    f"instructions later ({reread} of {written} skipped lines): the "
                    f"cached copy was invalidated, so each re-read pays device "
                    f"latency — prefer clean for re-used data"
                )
                severity = "warning"
            elif rule == "prestore.demote-after-fence":
                message = (
                    f"demote issued ~{tally.mean_distance:.0f} instructions after the "
                    f"fence that already forced its write visible: the round trip it "
                    f"should overlap has been paid — move the demote before the fence"
                )
                severity = "warning"
            elif rule == "prestore.unwritten":
                message = (
                    "pre-store targets lines no core ever wrote: it moves nothing "
                    "and costs a cycle per line — dead code"
                )
                severity = "warning"
            else:  # pragma: no cover - exhaustive over emitted rules
                continue
            out.append(
                Diagnostic(
                    rule=rule,
                    severity=severity,
                    message=message,
                    site=tally.site,
                    related=tally.related,
                    addr=tally.example_addr,
                    cache_line=tally.example_line,
                    core_id=tally.core_id,
                    instr_index=tally.first_instr,
                    count=tally.violations,
                )
            )
        return out
