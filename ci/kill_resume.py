"""Kill an experiments sweep part-way, run it again, and check that it resumed.

    python ci/kill_resume.py REFERENCE.md RESUMED.md CACHE_DIR ID [ID ...]

Starts ``python -m repro.experiments.cli IDS --workers 2 --cache-dir
CACHE_DIR`` on a fresh CACHE_DIR in a process group of its own and sends
SIGKILL to the CLI alone as soon as the cache's ``manifest.jsonl`` holds
an entry.  Its pool workers must then exit on their own: the group must
be empty within ORPHAN_GRACE_S seconds.  Then it runs the same command
to the end.  The cache stores every cell the moment it finishes, so the
re-run must store exactly the cells the kill lost (cells in the sweep
minus entries stored before the kill), and its markdown, written to
RESUMED.md, must be byte-identical to REFERENCE.md, an uninterrupted
run's.  The sweep is the CLI's default: fast mode, seed
1234.
Exit 0 when all three hold and the kill landed part-way, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence, Set, Tuple

from repro.experiments import get
from repro.experiments.cli import EXIT_SHAPE_FAILED
from repro.runner import ResultCache, cache_key
from repro.runner.cache import MANIFEST_NAME

#: Bound on each run, so a hung sweep fails the check instead of stalling it.
TIMEOUT_S = 1800.0
#: How long the killed CLI's pool workers may outlive it.
ORPHAN_GRACE_S = 5.0


def sweep_keys(ids: Sequence[str]) -> Set[str]:
    """The distinct cache keys of the cells the experiments declare."""
    keys = {cache_key(cell) for eid in ids for cell in get(eid).cells(True, 1234).values()}
    return keys - {None}  # type: ignore[return-value]


def kill_and_resume(ids: Sequence[str], cache_dir: str, markdown: str) -> Tuple[int, int, bool]:
    """Run, SIGKILL after the first stored cell, re-run; return the
    entries stored before the kill, the entries the re-run added, and
    whether the killed run's pool workers outlived it."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    command = [sys.executable, "-m", "repro.experiments.cli", *ids,
               "--workers", "2", "--cache-dir", cache_dir]
    manifest = Path(cache_dir) / MANIFEST_NAME
    # Its own session, so the group holds the CLI and its pool workers only.
    first = subprocess.Popen(command, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + TIMEOUT_S
        while first.poll() is None and time.monotonic() < deadline:
            if manifest.is_file() and manifest.stat().st_size:
                break
            time.sleep(0.005)
        if first.poll() is None:
            first.kill()  # the CLI alone: its workers must notice and exit
        first.wait(timeout=60)
        orphans = not _group_empties(first.pid, ORPHAN_GRACE_S)
    finally:
        try:
            os.killpg(first.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    stored = len(ResultCache(cache_dir))
    rerun = subprocess.run(
        command + ["--markdown", markdown], stdout=subprocess.DEVNULL, timeout=TIMEOUT_S
    )
    if rerun.returncode not in (0, EXIT_SHAPE_FAILED):
        raise RuntimeError(f"re-run exited {rerun.returncode}")
    return stored, len(ResultCache(cache_dir)) - stored, orphans


def _group_empties(pgid: int, within_s: float) -> bool:
    """Whether process group ``pgid`` has no process left within ``within_s``."""
    deadline = time.monotonic() + within_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)


def main(argv: List[str]) -> int:
    if len(argv) < 4:
        print("usage: python ci/kill_resume.py REFERENCE.md RESUMED.md CACHE_DIR ID [ID ...]",
              file=sys.stderr)
        return 2
    reference, resumed, cache_dir, ids = argv[0], argv[1], argv[2], argv[3:]
    total = len(sweep_keys(ids))
    stored, added, orphans = kill_and_resume(ids, cache_dir, resumed)
    print(f"kill-resume: {stored}/{total} cells stored before SIGKILL, re-run stored {added}")
    problems = []
    if not 0 < stored < total:
        problems.append("the kill did not land part-way through the sweep")
    if orphans:
        problems.append(f"pool workers outlived the killed CLI by {ORPHAN_GRACE_S:g} s")
    if added != total - stored:
        problems.append(f"re-run stored {added} cells, expected {total - stored}")
    with open(reference) as ref, open(resumed) as got:
        if ref.read() != got.read():
            problems.append(f"{resumed} differs from {reference}")
    for problem in problems:
        print(f"kill-resume: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
