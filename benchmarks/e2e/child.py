"""One benchmark pass, run in a fresh process by the harness.

    python -m benchmarks.e2e.child WORKLOAD SEED TMPDIR [--spans PATH] [--setup-only]

Set-up (imports, ``code_fingerprint()``, the empty cache directory) ends
with a ``ready`` line, which the parent times; the line carries the
durations of the host-speed slices taken during set-up (see
``hostspeed.py``).  The child then runs the workload's experiments
serially through ``run_checked(fast=True)`` in one
``runner_session(workers=1)``, checks its outputs untimed, and prints one
JSON line describing the pass.  ``--spans`` traces the pass and writes
the spans there; ``--setup-only`` exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.hostspeed import HostClock
from benchmarks.e2e.spans import SpanRecorder, install_layer_probes, layer_metrics, wrapper_cost_s
from benchmarks.e2e.workloads import WORKLOADS, BenchWorkload

READY = "ready"
SHAPE_FAILED = "SHAPE CHECK FAILED"


def rows_digest(results: Dict[str, object]) -> str:
    """Digest of every experiment's rows, in run order."""
    doc = [
        [eid, [[row.config, row.metrics] for row in result.rows]]
        for eid, result in results.items()
    ]
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stream_identity(bench: BenchWorkload, seed: int) -> bool:
    """The probe run's RunResult JSON is the same in both event vocabularies."""
    from repro.experiments.common import endorsed_patches

    make_workload, spec, mode, make_tracer = bench.probe()
    texts = []
    for streams in (True, False):
        workload = make_workload()
        tracer = make_tracer() if make_tracer is not None else None
        result = workload.run(
            spec, endorsed_patches(workload, mode), tracer=tracer, seed=seed, streams=streams
        )
        texts.append(result.run.to_json())
    return texts[0] == texts[1]


class _WallClock:
    """A traced pass's clock: wall time as measured, no slices.

    Slices would land inside the spans and count as the layers' time.
    """

    def __enter__(self) -> "_WallClock":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def mark(self) -> Tuple[float, int]:
        return time.perf_counter(), 0

    def since(self, mark: Tuple[float, int]) -> Tuple[float, float, Optional[float]]:
        wall_s = time.perf_counter() - mark[0]
        return wall_s, wall_s, None


def run_pass(
    bench: BenchWorkload, seed: int, cache_dir: str, spans_path: Optional[str] = None
) -> Dict[str, object]:
    """Run the workload's experiments once; returns the pass record.

    An untraced pass is timed with a :class:`HostClock`: its ``wall_s``
    and per-experiment times are reference-speed seconds, ``raw_wall_s``
    is the wall time less the slices, and ``slowdown`` the reference
    loop's slowdown over the pass.  A traced pass reports wall time as
    measured in all three places and ``slowdown`` null.
    """
    from repro.experiments import get
    from repro.runner import code_fingerprint, runner_session

    experiments = {eid: get(eid) for eid in bench.experiments}
    recorder = SpanRecorder() if spans_path else None
    walls: Dict[str, float] = {}
    results: Dict[str, object] = {}
    errors: List[str] = []
    shape_failed: List[str] = []
    if recorder is not None:
        install_layer_probes(recorder, {type(e) for e in experiments.values()})
    try:
        with (HostClock() if recorder is None else _WallClock()) as clock:
            started = clock.mark()
            with runner_session(workers=1, cache_dir=cache_dir):
                for eid, experiment in experiments.items():
                    experiment_started = clock.mark()
                    scope = nullcontext()
                    if recorder is not None:
                        recorder.request = f"{bench.name}/{eid}"
                        scope = recorder.span("experiments.run")
                    try:
                        with scope:
                            result = experiment.run_checked(fast=True, seed=seed)
                    except Exception as exc:  # one broken experiment must not hide the rest
                        traceback.print_exc()
                        errors.append(f"{eid}: {type(exc).__name__}: {exc}")
                    else:
                        results[eid] = result
                        if any(note.startswith(SHAPE_FAILED) for note in result.notes):
                            shape_failed.append(eid)
                    walls[eid] = clock.since(experiment_started)[1]
            raw_wall_s, wall_s, slowdown = clock.since(started)
    finally:
        if recorder is not None:
            recorder.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc: Dict[str, object] = {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "slowdown": slowdown,
        "peak_rss_mb": peak_rss_mb,
        "experiments": walls,
        "errors": errors,
        "shape_failed": shape_failed,
        "rows_digest": rows_digest(results),
        "stream_identity": stream_identity(bench, seed),
        "code_fingerprint": code_fingerprint(),
    }
    if recorder is not None:
        recorder.write_jsonl(spans_path)
        doc["layers"] = layers = layer_metrics(recorder.spans)
        # Tracing cost as spans x cost per span: on a shared host the
        # wall time of one traced/untraced pair differs by more than that.
        cost = len(recorder.spans) * wrapper_cost_s()
        layers["trace.overhead"] = cost / (wall_s - cost)
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("tmp", help="directory for the pass's empty result cache")
    parser.add_argument("--spans", help="trace the pass and write its spans to this JSONL file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with HostClock() as clock:
        started = clock.mark()
        import repro.experiments  # noqa: F401  (registers every experiment)
        from repro.runner import code_fingerprint

        code_fingerprint()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.tmp)
        clock.since(started)  # takes a slice if set-up was too short to get one
    print(f"{READY} {json.dumps(clock.slices)}", flush=True)
    try:
        if args.setup_only:
            return 0
        doc = run_pass(WORKLOADS[args.workload], args.seed, cache_dir, args.spans)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
