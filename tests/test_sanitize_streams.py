"""The batched STREAM vocabulary cannot bypass the sanitizer passes.

The passes have no ``record_stream``, so a machine with one attached
unrolls every stream through ``step`` and each pass sees one READ/WRITE
record per access.  These tests run real programs both ways — batched
streams (``streams=True``) and the per-access reference vocabulary
(``streams=False``) — and require identical findings and RunResults,
including Listing 2's strided read runs.
"""

from __future__ import annotations

import re
from typing import List

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.experiments.common import endorsed_patches
from repro.sanitize.prestore_lint import PrestoreLint
from repro.sanitize.races import RaceDetector
from repro.sanitize.runner import Sanitizer
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.memapi import Program
from repro.workloads.microbench import Listing2

LINE = 64


def _normal(diagnostics) -> List[dict]:
    """Diagnostics as plain data, minus the per-run CodeSite ips."""
    out = []
    for diag in diagnostics:
        d = diag.to_dict()
        d["message"] = re.sub(r"ip=0x[0-9a-f]+", "ip=?", d["message"])
        for site in [d["site"], *d["related"]]:
            if site is not None:
                site.pop("ip")
        out.append(d)
    return out


def _run(make_pass, bodies, streams, spec=machine_a):
    """Run one thread per body with a fresh pass; (findings, result, paths)."""
    observer = make_pass()
    program = Program(spec(), tracer=observer, streams=streams)
    shared = program.allocator.alloc(16 * LINE, label="shared")
    for body in bodies:
        program.spawn(body, shared)
    result = program.run()
    result.diagnostics = []
    return _normal(observer.diagnostics()), result.to_json(), program.machine.path_counts()


def _both(make_pass, bodies, spec=machine_a):
    batched = _run(make_pass, bodies, True, spec)
    unrolled = _run(make_pass, bodies, False, spec)
    assert batched[:2] == unrolled[:2]
    # The batched run really had streams, and the machine unrolled them.
    assert batched[2]["unrolled"] > 0 and batched[2]["fused"] == 0
    assert unrolled[2]["unrolled"] == 0
    return batched[0]


def _writer(nlines, nontemporal=False, delay=0):
    def body(t, shared):
        with t.function("writer", file="stream.c", line=3):
            if delay:
                yield t.compute(delay)
            yield from t.write_block(shared.base, nlines * LINE, nontemporal=nontemporal)

    return body


def _reader(nlines, delay=0):
    def body(t, shared):
        with t.function("reader", file="stream.c", line=9):
            if delay:
                yield t.compute(delay)
            yield from t.read_block(shared.base, nlines * LINE)

    return body


def _finding(diagnostics, rule):
    (finding,) = [d for d in diagnostics if d["rule"] == rule]
    return finding


def test_passes_take_per_access_records() -> None:
    """The machine unrolls streams unless *every* observer has
    ``record_stream``; the passes must never take runs in bulk."""
    for observer in (RaceDetector, PrestoreLint, Sanitizer):
        assert not hasattr(observer, "record_stream")


def test_race_detector_streams_equal_unrolled() -> None:
    # Core 0 stream-writes four lines; core 1, later, stream-reads them
    # with no ordering edge: a write-read race on every line.
    found = _both(RaceDetector, [_writer(4), _reader(4, delay=400)])
    assert _finding(found, "race.write-read")["count"] == 4  # none skipped


def test_race_detector_stream_write_write() -> None:
    found = _both(RaceDetector, [_writer(2), _writer(2, delay=400)])
    assert any(d["rule"] == "race.write-write" for d in found)


def test_prestore_lint_streams_equal_unrolled() -> None:
    # Non-temporal stream write immediately re-read: skip-reread on
    # every line, identical under both vocabularies.
    def body(t, shared):
        with t.function("writer", file="stream.c", line=3):
            yield from t.write_block(shared.base, 4 * LINE, nontemporal=True)
        with t.function("reader", file="stream.c", line=9):
            yield from t.read_block(shared.base, 4 * LINE)

    found = _both(lambda: PrestoreLint(min_count=1, min_share=0.0), [body])
    assert _finding(found, "prestore.skip-reread")["count"] == 4


def test_prestore_lint_strided_reads_equal_unrolled() -> None:
    # The same skip-reread, found by 8 B loads at a one-line stride.
    def body(t, shared):
        with t.function("writer", file="stream.c", line=3):
            yield from t.write_block(shared.base, 4 * LINE, nontemporal=True)
        with t.function("reader", file="stream.c", line=9):
            yield from t.read_strided(shared.base + 8, 8, LINE, 4)

    found = _both(lambda: PrestoreLint(min_count=1, min_share=0.0), [body])
    assert _finding(found, "prestore.skip-reread")["count"] == 4


def test_stream_instruction_indexing_matches_expansion() -> None:
    """Unrolled accesses retire one instruction each: a read right after
    a two-access NT stream is at index 2, one after the stream's last
    access, and is attributed there under both vocabularies."""

    def body(t, shared):
        with t.function("writer", file="stream.c", line=3):
            yield from t.write_block(shared.base, 2 * LINE, nontemporal=True)
        with t.function("reader", file="stream.c", line=9):
            yield t.read(shared.base + LINE, 8)

    found = _both(lambda: PrestoreLint(min_count=1, min_share=0.0), [body])
    finding = _finding(found, "prestore.skip-reread")
    assert finding["count"] == 1
    assert finding["instr_index"] == 2


def test_strided_listing2_sanitized_streams_equal_unrolled() -> None:
    # Listing 2's interposed reads are strided STREAM_READs (runs of at
    # most 128 loads, two per 128 B line on Machine B): the sanitized
    # run must match the per-access one finding for finding.
    def run(streams):
        workload = Listing2(reads_before_fence=130, iterations=40)
        patches = endorsed_patches(workload, PrestoreMode.DEMOTE)
        program = Program(machine_b_fast(), tracer=Sanitizer(), streams=streams)
        workload.spawn(program, patches)
        result = program.run()
        diagnostics = _normal(result.diagnostics)
        result.diagnostics = []
        return diagnostics, result.to_json(), program.machine.path_counts()

    batched, unrolled = run(True), run(False)
    assert batched[:2] == unrolled[:2]
    # The warm-up block (64 lines) and 40 iterations x (128 + 2) strided
    # reads: all unrolled for the passes, all fused without them.
    assert batched[2]["unrolled"] == 64 + 40 * 130
    baseline = Program(machine_b_fast(), streams=True)
    Listing2(reads_before_fence=130, iterations=40).spawn(baseline, PatchConfig.baseline())
    baseline.run()
    assert baseline.machine.path_counts()["fused"] == 64 + 40 * 130
