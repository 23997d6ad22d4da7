"""On-disk cache of serialised run results: one file per cell.

::

    <root>/<key>.json    # exactly the bytes RunResult.to_json() produced

A hit therefore reproduces the serialised result *bit for bit* — the
determinism contract extends through the cache.  ``store`` writes
through a temp file, fsync and ``os.replace``, so a killed run never
leaves a torn entry and two writers of one key are idempotent.
``load`` validates what it reads: a payload it cannot read, decode or
parse back into a :class:`~repro.sim.stats.RunResult` counts as a miss
and is deleted, so the re-run rewrites it.  A hit writes nothing, so a
warm sweep leaves the directory exactly as it found it.

Because ``execute_cells`` stores each cell the moment it finishes, the
cache is also the resume mechanism: a sweep killed part-way and re-run
against the same directory loads every stored cell and simulates only
the rest, and the results are the same bytes either way.

Keys come from :func:`repro.runner.cells.cache_key` and embed the code
fingerprint, so an entry an older tree wrote is never looked up again.
Emptying a cache means deleting its directory.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.sim.stats import RunResult

__all__ = ["ResultCache"]


class ResultCache:
    """A directory of ``<key>.json`` files, one per cached cell."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Tuple[str, RunResult]]:
        """The stored ``(payload_text, RunResult)``, or None on a miss.

        A payload that exists but cannot be read, is not UTF-8, or does
        not parse back into a RunResult (disk corruption, a hand edit) is
        a miss too: it is deleted, and the re-run stores the cell again.
        """
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
            return text, RunResult.from_json(text)
        except FileNotFoundError:
            return None
        except Exception:
            with suppress(OSError):
                path.unlink()
            return None

    def store(self, key: str, result_json: str) -> None:
        """Atomically persist one cell's serialised result."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(result_json)
                # Reach the medium before the rename publishes the entry:
                # os.replace is only atomic for data already durable, and
                # this cache's whole point is surviving killed runs.
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path(key))
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise

    def __len__(self) -> int:
        """How many payloads the directory holds (temp files excluded)."""
        return sum(1 for _ in self.root.glob("*.json"))
