"""The persistent image: what the medium holds at the moment of a crash.

Durability in this simulator is *version*-based.  Every store to a cache
line bumps the line's version counter (the injector does this at the
event boundary, before the store executes); the device tracker records
which version of each line has been

* **accepted** — handed to the device and sitting in a write-combiner
  entry (Optane's ADR persistence domain: capacitors guarantee these
  bytes reach the media on power fail), and
* **media-committed** — written by the media itself when the combiner
  entry closed.

The persistent image is the pair of those maps, plus everything the
crash *loses*: stores parked in CPU store buffers (TSO: visibility
round trips in flight; weak: possibly not even started), dirty lines
still resident in the caches, and the contents of open combiner entries
when the device is not capacitor-backed.  Both machine models reduce to
the same rule — a byte is durable iff it travelled past the point the
model's fence/clean semantics push it to — because the tracking happens
at the device boundary, below both visibility models.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List

__all__ = ["PersistentImage"]

#: The version tables, which the canonical writer streams.
_TABLES = ("line_versions", "accepted_versions", "media_versions")
#: Entries per piece of canonical JSON text.
_BATCH = 256
_ENTRY = '"%d": %d'


def _int_key_dict(data: Dict[int, int]) -> Dict[str, int]:
    return {str(k): data[k] for k in sorted(data)}


def _parse_int_keys(data: Dict[str, int]) -> Dict[int, int]:
    return {int(k): int(v) for k, v in data.items()}


def _string_order(table: Dict[int, int]) -> Iterator[int]:
    """``table``'s keys in the order ``json.dumps(sort_keys=True)``
    writes them (as strings, so 10 and 100 come before 9).

    Among keys with one digit count, string order is numeric order; the
    sorted keys' run of each digit count is one slice, and the slices
    merge by their text.
    """
    keys = sorted(table)
    if keys and keys[0] < 0:
        raise ValueError(f"line numbers are non-negative, got {keys[0]}")
    runs = []
    start = 0
    while start < len(keys):
        end = bisect_left(keys, 10 ** len(str(keys[start])), start)
        runs.append(islice(keys, start, end))
        start = end
    if len(runs) <= 1:
        return iter(keys)
    return heapq.merge(*runs, key=str)


def _table_json(table: Dict[int, int]) -> Iterator[str]:
    """``table`` as ``json.dumps`` writes its string-keyed form, in pieces
    of :data:`_BATCH` entries."""
    yield "{"
    keys = _string_order(table)
    sep = ""
    while part := list(islice(keys, _BATCH)):
        entries = ", ".join([_ENTRY] * len(part))
        yield sep + entries % tuple(chain.from_iterable(zip(part, map(table.__getitem__, part))))
        sep = ", "
    yield "}"


@dataclass
class PersistentImage:
    """Media-visible state captured at a crash (or at clean shutdown)."""

    machine_name: str
    line_size: int
    #: Whether write-combiner contents count as durable (ADR domain).
    adr: bool
    crashed: bool
    crash_cycle: float
    crash_instruction: int
    #: line -> latest version the program wrote (the ground truth).
    line_versions: Dict[int, int] = field(default_factory=dict)
    #: line -> newest version accepted into the device's buffers.
    accepted_versions: Dict[int, int] = field(default_factory=dict)
    #: line -> newest version the media committed (combiner entry closed).
    media_versions: Dict[int, int] = field(default_factory=dict)
    #: Per-core lines whose stores sat in the store buffer at the crash.
    store_buffer_lines: List[List[int]] = field(default_factory=list)
    #: Lines dirty somewhere in the cache hierarchy at the crash.
    dirty_cache_lines: List[int] = field(default_factory=list)
    #: Open combiner entries at the crash: block -> lines pending in it.
    combiner_pending: Dict[int, List[int]] = field(default_factory=dict)

    # -- durability queries --------------------------------------------------

    def durable_version(self, line: int) -> int:
        """The newest version of ``line`` that survives the crash."""
        media = self.media_versions.get(line, 0)
        if not self.adr:
            return media
        return max(media, self.accepted_versions.get(line, 0))

    def is_durable(self, line: int, version: int = 0) -> bool:
        """Whether ``version`` (default: the latest written) survived."""
        required = version or self.line_versions.get(line, 0)
        return self.durable_version(line) >= required

    def lost_lines(self) -> List[int]:
        """Lines whose latest written version did not survive, sorted."""
        return sorted(
            line
            for line, version in self.line_versions.items()
            if self.durable_version(line) < version
        )

    def vulnerable_bytes(self) -> int:
        """Bytes of written-but-lost data (the crash-vulnerable window)."""
        return len(self.lost_lines()) * self.line_size

    # -- serialisation -------------------------------------------------------

    def _fields(self) -> Dict[str, object]:
        """:meth:`to_dict` without the version tables."""
        return {
            "machine_name": self.machine_name,
            "line_size": self.line_size,
            "adr": self.adr,
            "crashed": self.crashed,
            "crash_cycle": self.crash_cycle,
            "crash_instruction": self.crash_instruction,
            "store_buffer_lines": [sorted(lines) for lines in self.store_buffer_lines],
            "dirty_cache_lines": sorted(self.dirty_cache_lines),
            "combiner_pending": {
                str(block): sorted(self.combiner_pending[block])
                for block in sorted(self.combiner_pending)
            },
        }

    def to_dict(self) -> Dict[str, object]:
        doc = self._fields()
        for name in _TABLES:
            doc[name] = _int_key_dict(getattr(self, name))
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PersistentImage":
        return cls(
            machine_name=str(data["machine_name"]),
            line_size=int(data["line_size"]),  # type: ignore[arg-type]
            adr=bool(data["adr"]),
            crashed=bool(data["crashed"]),
            crash_cycle=float(data["crash_cycle"]),  # type: ignore[arg-type]
            crash_instruction=int(data["crash_instruction"]),  # type: ignore[arg-type]
            line_versions=_parse_int_keys(data.get("line_versions", {})),  # type: ignore[arg-type]
            accepted_versions=_parse_int_keys(data.get("accepted_versions", {})),  # type: ignore[arg-type]
            media_versions=_parse_int_keys(data.get("media_versions", {})),  # type: ignore[arg-type]
            store_buffer_lines=[list(map(int, lines)) for lines in data.get("store_buffer_lines", [])],  # type: ignore[union-attr]
            dirty_cache_lines=list(map(int, data.get("dirty_cache_lines", []))),  # type: ignore[arg-type]
            combiner_pending={
                int(block): list(map(int, lines))
                for block, lines in data.get("combiner_pending", {}).items()  # type: ignore[union-attr]
            },
        )

    def _json_pieces(self) -> Iterator[str]:
        """The canonical text, ``json.dumps(self.to_dict(),
        sort_keys=True)``, in pieces of bounded size.

        Neither the text nor the string-keyed tables are ever whole, so
        digesting a serve-sized image holds one table's sorted keys and a
        batch of entries, not copies of its tables.
        """
        values: Dict[str, Iterable[str]] = {
            name: (json.dumps(value, sort_keys=True),) for name, value in self._fields().items()
        }
        for name in _TABLES:
            values[name] = _table_json(getattr(self, name))
        for i, name in enumerate(sorted(values)):
            yield ("{" if i == 0 else ", ") + json.dumps(name) + ": "
            yield from values[name]
        yield "}"

    def to_json(self) -> str:
        return "".join(self._json_pieces())

    def digest(self) -> str:
        """Stable content hash — what the determinism tests compare.

        The sha256 of :meth:`to_json`, fed piece by piece.
        """
        sha = hashlib.sha256()
        for piece in self._json_pieces():
            sha.update(piece.encode())
        return sha.hexdigest()[:16]

    def summary(self) -> Dict[str, object]:
        """Small human/report-facing digest of the image."""
        lost = len(self.lost_lines())
        return {
            "crashed": self.crashed,
            "adr": self.adr,
            "written_lines": len(self.line_versions),
            "durable_lines": len(self.line_versions) - lost,
            "lost_lines": lost,
            "vulnerable_bytes": lost * self.line_size,
            "store_buffer_parked": sum(len(lines) for lines in self.store_buffer_lines),
            "dirty_cache_lines": len(self.dirty_cache_lines),
            "combiner_open_entries": len(self.combiner_pending),
            "digest": self.digest(),
        }
