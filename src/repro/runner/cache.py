"""Content-addressed on-disk cache of serialised run results.

Sharded layout (v2) under the cache root::

    <root>/<key[:2]>/<key[2:4]>/<key>.json        # RunResult.to_json()
    <root>/<key[:2]>/<key[2:4]>/<key>.meta.json   # provenance sidecar
    <root>/manifest.jsonl                         # append-only index

The two-level fan-out keeps every directory small at a million entries
(65 536 shards of ~15 files each), and the manifest makes ``__len__``,
``stats`` and eviction **O(1)** in the entry count: one JSON line per
mutation (``add``/``del``), replayed into an in-memory index on first
use — the hot path never walks a directory.  Payload files stay the
source of truth: ``load`` addresses them directly, so a lost or stale
manifest costs bookkeeping accuracy, never correctness (``gc()``
re-adopts anything untracked).

The payload file holds exactly the bytes ``RunResult.to_json()``
produced, so a cache hit reproduces the serialised result *bit for
bit* — the determinism contract extends through the cache.  Writes go
through a temp file + fsync + ``os.replace`` so a crashed run never
leaves a torn entry, and concurrent writers of the same key are
idempotent; manifest appends are single ``O_APPEND`` writes, so two
sessions storing concurrently interleave whole lines, never corrupt
them.

With ``max_bytes`` set, stores evict least-recently-used entries
(recency = payload mtime, bumped on every hit) until the payload bytes
fit the budget.  Hit/miss/evict/store counters are exposed through
:meth:`stats`.

Because ``execute_cells`` stores each cell the moment it finishes, the
cache is also the resume mechanism: a sweep killed part-way and re-run
against the same directory loads every stored cell and simulates only
the rest, and the results are the same bytes either way.

Keys come from :func:`repro.runner.cells.cache_key` and already include
the code fingerprint; a stale entry from an older tree simply never
gets looked up again (until evicted or cleared).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.runner.cells import Cell, cache_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.stats import RunResult

__all__ = ["ResultCache", "MANIFEST_NAME", "MANIFEST_SCHEMA"]

MANIFEST_NAME = "manifest.jsonl"
MANIFEST_SCHEMA = "repro.cache_manifest/v1"

#: Evict below this fraction of ``max_bytes`` once over budget, so a
#: store that trips the limit does one sorted pass, not one per store.
_EVICT_HYSTERESIS = 0.9


class ResultCache:
    """Filesystem-backed map from cell key to serialised RunResult."""

    def __init__(self, root: Union[str, Path], max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        self.stores = 0
        #: key -> [payload bytes, last-use mtime]; replayed from the
        #: manifest once, then maintained by this instance's own ops.
        self._index: Dict[str, List[float]] = {}
        self._bytes = 0
        self._index_loaded = False

    # -- key plumbing -------------------------------------------------------

    def key_for(self, cell: Cell) -> Optional[str]:
        """The cell's content-addressed key (None: uncacheable factory)."""
        return cache_key(cell)

    def _shard_dir(self, key: str) -> Path:
        return self.root / key[:2] / key[2:4]

    def _payload_path(self, key: str) -> Path:
        return self._shard_dir(key) / f"{key}.json"

    def _meta_path(self, key: str) -> Path:
        return self._shard_dir(key) / f"{key}.meta.json"

    @property
    def _manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    # -- manifest index -----------------------------------------------------

    def _ensure_index(self) -> None:
        if not self._index_loaded:
            self._load_index()

    def _load_index(self) -> None:
        """Replay the manifest (building one from a pre-manifest tree)."""
        self._index = {}
        self._bytes = 0
        self._index_loaded = True
        manifest = self._manifest_path
        if manifest.is_file():
            try:
                lines = manifest.read_text().splitlines()
            except OSError:
                lines = []
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    op = json.loads(line)
                except ValueError:
                    continue  # torn tail from a killed writer
                if isinstance(op, dict):
                    self._apply_op(op)
            return
        # No manifest: a pre-manifest (or hand-built) cache.  Adopt every
        # payload already on disk — the one permitted walk, paid once.
        if self.root.is_dir():
            adds = []
            for payload in self._walk_payloads():
                key = payload.name[: -len(".json")]
                try:
                    stat = payload.stat()
                except OSError:
                    continue
                op = {"op": "add", "key": key, "bytes": stat.st_size, "mtime": stat.st_mtime}
                self._apply_op(op)
                adds.append(op)
            if adds:
                self._write_manifest(adds)

    def _apply_op(self, op: Dict[str, object]) -> None:
        """Fold one manifest line into the index (idempotently)."""
        key = op.get("key")
        if not isinstance(key, str):
            return
        kind = op.get("op")
        if kind == "add":
            size = float(op.get("bytes", 0) or 0)
            mtime = float(op.get("mtime", 0) or 0)
            previous = self._index.get(key)
            if previous is not None:
                self._bytes -= int(previous[0])
            self._index[key] = [size, mtime]
            self._bytes += int(size)
        elif kind == "del":
            previous = self._index.pop(key, None)
            if previous is not None:
                self._bytes -= int(previous[0])

    def _append_op(self, op: Dict[str, object]) -> None:
        """Publish one mutation: apply in memory, append one whole line.

        ``O_APPEND`` + a single write keeps concurrent sessions' lines
        whole; replay is idempotent, so re-reading is always safe.
        """
        self._ensure_index()
        self._apply_op(op)
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(op, sort_keys=True) + "\n"
        fd = os.open(str(self._manifest_path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                # A torn tail from a killed writer: start a fresh line,
                # or this op would be glued onto the fragment and lost.
                line = "\n" + line
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    def _write_manifest(self, ops: List[Dict[str, object]]) -> None:
        """Atomically rewrite the manifest from scratch (compaction)."""
        header = {"op": "init", "schema": MANIFEST_SCHEMA}
        text = "".join(json.dumps(op, sort_keys=True) + "\n" for op in [header] + ops)
        self.root.mkdir(parents=True, exist_ok=True)
        self._atomic_write(self._manifest_path, text)

    def refresh(self) -> None:
        """Re-read the manifest (pick up other sessions' stores)."""
        self._index_loaded = False
        self._load_index()

    def compact(self) -> None:
        """Rewrite the manifest as one ``add`` per live entry."""
        self._ensure_index()
        self._write_manifest(
            [
                {"op": "add", "key": key, "bytes": int(size), "mtime": mtime}
                for key, (size, mtime) in sorted(self._index.items())
            ]
        )

    def _walk_payloads(self) -> Iterator[Path]:
        """Every payload file at its sharded path (O(n))."""
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json") and not name.endswith(".meta.json"):
                    path = Path(dirpath) / name
                    if path == self._payload_path(name[: -len(".json")]):
                        yield path

    # -- read/write ---------------------------------------------------------

    def load(self, key: str) -> Optional[str]:
        """The stored RunResult JSON, or None on a miss (counts stats).

        O(1): the sharded path is addressed directly.  A hit bumps the
        entry's recency for LRU eviction.
        """
        path = self._payload_path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key, path)
        return text

    def _touch(self, key: str, path: Path) -> None:
        """Bump LRU recency: in-memory always, on disk best-effort."""
        now = time.time()
        self._ensure_index()
        entry = self._index.get(key)
        if entry is not None:
            entry[1] = now
        else:
            # Manifest missed this entry (e.g. adopted by another
            # session after our index loaded); re-book it.
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            self._append_op({"op": "add", "key": key, "bytes": size, "mtime": now})
        try:
            os.utime(path)
        except OSError:
            pass

    def load_result(self, key: str) -> Optional[Tuple[str, "RunResult"]]:
        """Load and *validate* an entry: ``(payload_text, RunResult)``.

        A payload that exists but does not parse back into a
        :class:`~repro.sim.stats.RunResult` (torn write from a crashed
        run, disk corruption, truncation) is treated as a miss: the
        entry is evicted so the slot gets rewritten, and ``None`` is
        returned instead of letting ``RunResult.from_json`` explode in
        the caller.
        """
        from repro.sim.stats import RunResult

        text = self.load(key)
        if text is None:
            return None
        try:
            return text, RunResult.from_json(text)
        except Exception:
            # The hit was illusory: re-book it as a miss and drop the entry.
            self.hits -= 1
            self.misses += 1
            self.corrupt += 1
            self.evict(key)
            return None

    def evict(self, key: str) -> None:
        """Remove one entry (payload + meta sidecar), ignoring races."""
        for path in (self._payload_path(key), self._meta_path(key)):
            try:
                path.unlink()
            except OSError:
                pass
        self._ensure_index()
        if key in self._index:
            self._append_op({"op": "del", "key": key})
        self.evictions += 1

    def load_meta(self, key: str) -> Dict[str, object]:
        try:
            return json.loads(self._meta_path(key).read_text())
        except (OSError, ValueError):
            return {}

    def store(self, key: str, result_json: str, meta: Optional[Dict[str, object]] = None) -> None:
        """Atomically persist a result (and its provenance sidecar).

        Publishes the entry to the manifest and, when ``max_bytes`` is
        configured, evicts least-recently-used entries until the payload
        bytes fit the budget again.
        """
        # Index first: loaded after the payload lands, a fresh cache's
        # pre-manifest adoption would walk the tree and book this entry
        # twice.
        self._ensure_index()
        payload = self._payload_path(key)
        payload.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(payload, result_json)
        if meta is not None:
            self._atomic_write(self._meta_path(key), json.dumps(meta, indent=2))
        self.stores += 1
        self._append_op(
            {"op": "add", "key": key, "bytes": len(result_json.encode()), "mtime": time.time()}
        )
        if self.max_bytes is not None and self._bytes > self.max_bytes:
            self._evict_lru(keep=key)

    def _evict_lru(self, keep: Optional[str] = None) -> None:
        """Drop oldest entries until under the hysteresis watermark."""
        target = int(self.max_bytes * _EVICT_HYSTERESIS) if self.max_bytes else 0
        victims = sorted(
            (item for item in self._index.items() if item[0] != keep),
            key=lambda item: item[1][1],
        )
        for key, _entry in victims:
            if self._bytes <= target:
                break
            self.evict(key)

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                # Reach the medium before the rename publishes the entry:
                # os.replace is only atomic for data already durable, and
                # this cache's whole point is surviving crashed runs.
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance --------------------------------------------------------

    def __len__(self) -> int:
        """Entry count from the manifest index — no directory walk."""
        self._ensure_index()
        return len(self._index)

    @property
    def total_bytes(self) -> int:
        """Payload bytes tracked by the index (meta sidecars excluded)."""
        self._ensure_index()
        return self._bytes

    def clear(self) -> int:
        """Delete every entry; returns how many payloads were removed."""
        removed = 0
        if self.root.is_dir():
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for name in filenames:
                    path = Path(dirpath) / name
                    if name.endswith(".json") and not name.endswith(".meta.json"):
                        removed += 1
                    elif not (
                        name.endswith(".meta.json")
                        or name.startswith(".tmp-")
                        or name == MANIFEST_NAME
                    ):
                        continue
                    try:
                        path.unlink()
                    except OSError:
                        pass
        self._index = {}
        self._bytes = 0
        self._index_loaded = True
        return removed

    def gc(self) -> Dict[str, int]:
        """Reconcile disk and manifest; collect temp/orphaned litter.

        One full walk (a maintenance op, never on the hot path) that

        * deletes stale ``.tmp-*`` files from crashed writers,
        * **adopts** valid payloads the manifest does not know about
          (crash between payload rename and manifest append, or entries
          written by a pre-manifest tree) — adopting, not deleting,
          because payload files are the source of truth,
        * deletes meta sidecars whose payload is gone, and
        * drops index entries whose payload vanished,

        then compacts the manifest.  Returns counts per action.
        """
        self._ensure_index()
        counts = {"tmp_removed": 0, "adopted": 0, "meta_removed": 0, "dropped": 0}
        if self.root.is_dir():
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for name in sorted(filenames):
                    path = Path(dirpath) / name
                    if name.startswith(".tmp-"):
                        try:
                            path.unlink()
                            counts["tmp_removed"] += 1
                        except OSError:
                            pass
                    elif name.endswith(".meta.json"):
                        key = name[: -len(".meta.json")]
                        if not self._payload_path(key).is_file():
                            try:
                                path.unlink()
                                counts["meta_removed"] += 1
                            except OSError:
                                pass
                    elif name.endswith(".json"):
                        key = name[: -len(".json")]
                        if key not in self._index and path == self._payload_path(key):
                            try:
                                stat = path.stat()
                            except OSError:
                                continue
                            self._apply_op(
                                {
                                    "op": "add",
                                    "key": key,
                                    "bytes": stat.st_size,
                                    "mtime": stat.st_mtime,
                                }
                            )
                            counts["adopted"] += 1
        for key in [k for k in self._index if not self._payload_path(k).is_file()]:
            self._apply_op({"op": "del", "key": key})
            counts["dropped"] += 1
        self.compact()
        return counts

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "stores": self.stores,
            "entries": len(self),
            "bytes": self.total_bytes,
        }
