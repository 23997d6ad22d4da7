"""The batched STREAM vocabulary cannot bypass the sanitizer passes.

Each dynamic pass must produce identical findings whether it is fed the
per-access sequence (what the machine unrolls for stream-blind
observers) or the batched STREAM events directly (what a batch-aware
fan-out wrapper would deliver).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import Diagnostic
from repro.sanitize.prestore_lint import PrestoreLint
from repro.sanitize.races import RaceDetector
from repro.sanitize.runner import Sanitizer
from repro.sim.event import CodeSite, Event, EventKind

WRITER = CodeSite(function="writer", file="stream.c", line=3)
READER = CodeSite(function="reader", file="stream.c", line=9)

LINE = 64


def _write_stream(addr: int, size: int, nontemporal: bool = False) -> Event:
    return Event.stream(
        EventKind.WRITE, addr, size, chunk=LINE, nontemporal=nontemporal, site=WRITER
    )


def _read_stream(addr: int, size: int) -> Event:
    return Event.stream(EventKind.READ, addr, size, chunk=LINE, site=READER)


def _feed(detector, schedule: List[Tuple[int, Event, int]], expand: bool) -> List[Diagnostic]:
    """Run ``schedule`` through ``detector``, batched or pre-unrolled."""
    for core_id, event, instr in schedule:
        if expand:
            for offset, access in enumerate(event.accesses()):
                detector.record(core_id, access, instr + offset, 0.0)
        else:
            detector.record(core_id, event, instr, 0.0)
    return detector.diagnostics()


def test_passes_take_per_access_records() -> None:
    """The machine unrolls streams unless *every* observer has
    ``record_stream``; the passes must never take runs in bulk."""
    for observer in (RaceDetector, PrestoreLint, Sanitizer):
        assert not hasattr(observer, "record_stream")


def test_race_detector_streams_equal_unrolled() -> None:
    # Core 0 stream-writes four lines; core 1 stream-reads them with no
    # ordering edge: a write-read race on every line.
    schedule = [
        (0, _write_stream(0, 4 * LINE), 0),
        (1, _read_stream(0, 4 * LINE), 10),
    ]
    batched = _feed(RaceDetector(), schedule, expand=False)
    unrolled = _feed(RaceDetector(), schedule, expand=True)
    assert batched == unrolled
    assert any(d.rule == "race.write-read" for d in batched)
    (finding,) = [d for d in batched if d.rule == "race.write-read"]
    assert finding.count == 4  # one per expanded access, none skipped


def test_race_detector_stream_write_write() -> None:
    schedule = [
        (0, _write_stream(0, 2 * LINE), 0),
        (1, _write_stream(0, 2 * LINE), 10),
    ]
    batched = _feed(RaceDetector(), schedule, expand=False)
    unrolled = _feed(RaceDetector(), schedule, expand=True)
    assert batched == unrolled
    assert any(d.rule == "race.write-write" for d in batched)


def test_prestore_lint_streams_equal_unrolled() -> None:
    # Non-temporal stream write immediately re-read: skip-reread on
    # every line, identical under both vocabularies.
    schedule = [
        (0, _write_stream(0, 4 * LINE, nontemporal=True), 0),
        (0, _read_stream(0, 4 * LINE), 4),
    ]
    batched = _feed(PrestoreLint(min_count=1, min_share=0.0), schedule, expand=False)
    unrolled = _feed(PrestoreLint(min_count=1, min_share=0.0), schedule, expand=True)
    assert batched == unrolled
    assert any(d.rule == "prestore.skip-reread" for d in batched)
    (finding,) = [d for d in batched if d.rule == "prestore.skip-reread"]
    assert finding.count == 4


def test_stream_instruction_indexing_matches_expansion() -> None:
    """Indices attributed to expanded accesses advance one per access —
    the same weighting the machine's unrolled execution gives them."""
    lint = PrestoreLint(min_count=1, min_share=0.0)
    lint.record(0, _write_stream(0, 2 * LINE, nontemporal=True), 0, 0.0)
    # The second access retired at index 1, so a read at index 2 is one
    # instruction after it, not two after the stream's start.
    lint.record(0, Event(EventKind.READ, addr=LINE, size=8, site=READER), 2, 0.0)
    (finding,) = [d for d in lint.diagnostics() if d.rule == "prestore.skip-reread"]
    assert finding.count == 1
