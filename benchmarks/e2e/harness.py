"""The parent process: runs passes in fresh children and reports metrics.

Each pass runs one workload in its own child process, one child at a
time, so module memos and peak RSS never leak between passes.  The
parent never imports ``repro``; it reads metric names and units from
``BENCHMARK.json`` so that what it prints is what the benchmark declares.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.child import READY
from benchmarks.e2e.hostspeed import reference_seconds
from benchmarks.e2e.spans import LAYER_METRICS
from benchmarks.e2e.workloads import WORKLOADS, BenchWorkload

__all__ = ["ROOT", "BenchError", "load_spec", "run_workload", "summarise", "result_line", "main"]

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-pass caches and span files.
WORK_DIR = ROOT / ".bench_e2e"
#: Set-up is short and noisy, so every run measures it this many times.
#: Each extra sample is one more child, and 92 runs must end within the
#: benchmark format's time limit on a busy host.
SETUP_SAMPLES = 3
#: A pass that outlives this is killed; a whole run must end within 180 s.
PASS_TIMEOUT_S = 170.0

_SELF_TIMES = [metric for metric, (_names, what) in LAYER_METRICS.items() if what == "self"]


class BenchError(RuntimeError):
    """A pass could not run or produced no record."""


def load_spec() -> Dict[str, Dict[str, dict]]:
    """``{"end_to_end": {name: entry}, "per_layer": {name: entry}}``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


def _child(workload: str, seed: int, tmp: Path, *extra: str) -> Tuple[dict, Optional[dict]]:
    """Run one child; returns (its set-up times, its pass record or None).

    The set-up times are ``setup_s`` (reference-speed seconds),
    ``raw_setup_s`` (spawn to ``ready``, less the slices) and ``slowdown``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("REPRO_SIM_REFERENCE", None)  # always measure the default event vocabulary
    cmd = [sys.executable, "-m", "benchmarks.e2e.child", workload, str(seed), str(tmp), *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        elapsed_s = time.perf_counter() - started
        lines = proc.stdout.read().strip().splitlines()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, _, slices = first.strip().partition(" ")
    if word != READY or proc.returncode != 0:
        raise BenchError(f"{workload}: child exited {proc.returncode} (first line {first!r})")
    slices = json.loads(slices)
    setup_s, slowdown = reference_seconds(elapsed_s, slices)
    setup = {"setup_s": setup_s, "raw_setup_s": elapsed_s - sum(slices), "slowdown": slowdown}
    return setup, (json.loads(lines[-1]) if lines else None)


def _pass(workload: str, seed: int, tmp: Path, *extra: str) -> Tuple[dict, dict]:
    setup, record = _child(workload, seed, tmp, *extra)
    if record is None:
        raise BenchError(f"{workload}: pass printed no record")
    return setup, record


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, repeats: int, trace: bool, tmp: Path) -> dict:
    """All passes of one workload, run in fresh children; returns its report.

    With ``trace`` every pass is traced and writes its spans to one file,
    which keeps the last pass's spans.
    """
    spans = WORK_DIR / f"spans-{name}-s{seed}.jsonl" if trace else None
    extra = ("--spans", str(spans)) if spans else ()
    setups: List[dict] = []
    passes: List[dict] = []
    for _ in range(repeats):
        setup, record = _pass(name, seed, tmp, *extra)
        setups.append(setup)
        passes.append(record)
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(name, seed, tmp, "--setup-only")[0])
    return summarise(
        WORKLOADS[name], seed, passes, setups, spans.relative_to(ROOT) if spans else None
    )


def summarise(
    bench: BenchWorkload,
    seed: int,
    passes: Sequence[dict],
    setups: Sequence[dict],
    spans: Optional[Path] = None,
) -> dict:
    """One workload's report from its pass records and set-ups (see README.md)."""
    traced = "layers" in passes[0]
    mismatches = []
    if not all(p["stream_identity"] for p in passes):
        mismatches.append("probe RunResult differs between streams=True and streams=False")
    digests = sorted({p["rows_digest"] for p in passes})
    if len(digests) > 1:
        mismatches.append(f"experiment rows differ between passes: {digests}")
    errors = [err for p in passes for err in p["errors"]]
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "experiments.failed_share": [
            (len(p["shape_failed"]) + len(p["errors"])) / len(bench.experiments) for p in passes
        ],
        "raw_wall_s": [p["raw_wall_s"] for p in passes],
        "raw_setup_s": [s["raw_setup_s"] for s in setups],
        "setup_slowdown": [s["slowdown"] for s in setups],
    }
    if not traced:
        samples["slowdown"] = [p["slowdown"] for p in passes]
    values = {metric: _median(v) for metric, v in samples.items()}
    for eid in bench.experiments:
        values[f"experiment.{eid}.wall_s"] = _median([p["experiments"][eid] for p in passes])
    if traced:
        for metric in passes[0]["layers"]:
            values[metric] = _median([p["layers"][metric] for p in passes])
        values["trace.attributed_share"] = _median(
            [sum(p["layers"][metric] for metric in _SELF_TIMES) / p["wall_s"] for p in passes]
        )
    return {
        "workload": bench.name,
        "seed": seed,
        "passes": len(passes),
        "traced": traced,
        "spans": str(spans) if spans else None,
        "correct": not mismatches,
        "attempted": len(bench.experiments) * len(passes),
        "failed": len(errors),
        "problems": mismatches + errors,
        "shape_failed": sorted({eid for p in passes for eid in p["shape_failed"]}),
        "rows_digest": digests[0],
        "code_fingerprint": passes[0]["code_fingerprint"],
        "values": values,
        "samples": samples,
    }


def result_line(report: dict, spec: Dict[str, Dict[str, dict]]) -> dict:
    """The result object: end-to-end metrics, or per-layer ones when traced."""
    declared = spec["per_layer" if report["traced"] else "end_to_end"]
    missing = sorted(set(declared) - set(report["values"]))
    if missing:
        raise BenchError(f"{report['workload']}: no value for declared metrics {missing}")
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": report["values"][name], "unit": entry["unit"]}
            for name, entry in declared.items()
        },
    }


def _print_report(report: dict, spec: Dict[str, Dict[str, dict]]) -> None:
    units = {name: e["unit"] for kind in spec.values() for name, e in kind.items()}
    kind = "traced" if report["traced"] else "untraced"
    print(
        f"== {report['workload']}: {report['passes']} {kind} pass(es), seed {report['seed']}, "
        f"rows {report['rows_digest']}, code {report['code_fingerprint']}"
    )
    for name, value in report["values"].items():
        unit = units.get(name) or ("x" if name.endswith("slowdown") else "s")
        print(f"  {name:34s} {value:>16.6g} {unit}")
    if report["shape_failed"]:
        print(f"  shape checks failed: {', '.join(report['shape_failed'])}")
    if report["spans"]:
        print(f"  spans written to {report['spans']}")
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def main(
    workloads: Sequence[str],
    seed: int,
    repeats: int,
    trace: bool,
    out: Optional[str],
) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench-e2e: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    reports = []
    try:
        for name in workloads:
            report = run_workload(name, seed, repeats, trace, tmp)
            reports.append(report)
            _print_report(report, spec)
            print(json.dumps(result_line(report, spec)), flush=True)
    except BenchError as exc:
        print(f"bench-e2e: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if out:
        with open(out, "a") as fh:
            fh.write(json.dumps({"schema": "bench-e2e/v1", "reports": reports}) + "\n")
    return 0 if all(r["correct"] and not r["failed"] for r in reports) else 1
