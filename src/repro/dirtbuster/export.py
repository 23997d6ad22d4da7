"""Trace export/import: PIN-style access logs as JSON lines.

The paper's workflow separates collection from analysis ("the logs are
analyzed to check if the code writes data sequentially...").  This module
makes that split concrete: a :class:`FullTracer`'s trace can be written
to a ``.jsonl`` file and re-loaded later — e.g. to collect once on a slow
full-size run and iterate on analysis thresholds offline.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Union

from repro.dirtbuster.trace import AccessRecord, Trace
from repro.errors import TraceError
from repro.sim.event import CodeSite, EventKind

__all__ = ["dump_records", "load_records", "dumps_record", "loads_record"]

_FORMAT_VERSION = 1


def _site_to_obj(site: CodeSite) -> dict:
    return {"fn": site.function, "file": site.file, "line": site.line, "ip": site.ip}


def _site_from_obj(obj: dict) -> CodeSite:
    return CodeSite(
        function=obj["fn"], file=obj.get("file", "<unknown>"), line=obj.get("line", 0),
        ip=obj.get("ip", 0),
    )


def dumps_record(record: AccessRecord) -> str:
    """One record as a compact JSON line."""
    return json.dumps(
        {
            "v": _FORMAT_VERSION,
            "i": record.instr_index,
            "c": record.core_id,
            "k": record.kind.value,
            "a": record.addr,
            "s": record.size,
            "site": _site_to_obj(record.site),
            "chain": [_site_to_obj(s) for s in record.callchain],
        },
        separators=(",", ":"),
    )


def loads_record(line: str) -> AccessRecord:
    """Parse one JSON line back into an :class:`AccessRecord`."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"malformed trace line: {exc}") from exc
    if obj.get("v") != _FORMAT_VERSION:
        raise TraceError(f"unsupported trace format version {obj.get('v')!r}")
    try:
        return AccessRecord(
            instr_index=obj["i"],
            core_id=obj["c"],
            kind=EventKind(obj["k"]),
            addr=obj["a"],
            size=obj["s"],
            site=_site_from_obj(obj["site"]),
            callchain=tuple(_site_from_obj(s) for s in obj.get("chain", ())),
        )
    except (KeyError, ValueError) as exc:
        raise TraceError(f"malformed trace record: {exc}") from exc


def dump_records(records: Iterable[AccessRecord], destination: Union[str, IO[str]]) -> int:
    """Write records as JSON lines; returns how many were written."""
    own = isinstance(destination, str)
    fh: IO[str] = open(destination, "w") if own else destination  # type: ignore[arg-type]
    try:
        count = 0
        for record in records:
            fh.write(dumps_record(record))
            fh.write("\n")
            count += 1
        return count
    finally:
        if own:
            fh.close()


def load_records(source: Union[str, IO[str]]) -> Trace:
    """Read a JSON-lines trace back into memory (order preserved)."""
    own = isinstance(source, str)
    fh: IO[str] = open(source) if own else source  # type: ignore[arg-type]
    try:
        return Trace.from_records(loads_record(line) for line in fh if line.strip())
    finally:
        if own:
            fh.close()
