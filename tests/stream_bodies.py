"""Synthetic stream bodies for the fast-vs-reference identity matrix.

Eight single-thread access patterns over one buffer: warm (cache-resident,
repeated) and cold (larger than the caches) sequential streams, plus
page-shuffled random writes, reads and alternating read/write streams.
The cold shuffles defeat set-sequential locality, so they exercise the
fused miss path's hashed LLC indexing and combiner thrash.  Two
non-temporal bodies store over lines that cached stores just dirtied
and buffered: one sequentially, one strided with chunks that straddle
lines and the device's internal blocks.  Every body emits the same
event sequence under both vocabularies; only ``Program(streams=...)``
decides whether a run becomes one STREAM event or one event per access.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, Tuple

from repro.sim.event import WRITE, Event
from repro.sim.machine import MachineSpec
from repro.sim.stats import RunResult
from repro.workloads.memapi import Program, ThreadCtx

#: One stream event per page keeps the event sequence identical in
#: both vocabularies while the page order scrambles the lines.
_PAGE = 4096


def seq_write_warm(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Repeated stores over a cache-resident buffer."""
    buf = t.alloc(buf_bytes, label="seq_write_warm")
    with t.function("seq_write_warm", file="stream_bodies.py", line=1):
        for _ in range(passes):
            yield from t.write_block(buf.base, buf_bytes)


def seq_write_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """One pass of stores over a buffer far larger than the caches."""
    buf = t.alloc(buf_bytes, label="seq_write_cold")
    with t.function("seq_write_cold", file="stream_bodies.py", line=2):
        yield from t.write_block(buf.base, buf_bytes)


def seq_read_warm(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Repeated loads over a cache-resident buffer."""
    buf = t.alloc(buf_bytes, label="seq_read_warm")
    with t.function("seq_read_warm", file="stream_bodies.py", line=3):
        for _ in range(passes):
            yield from t.read_block(buf.base, buf_bytes)


def _shuffled_pages(buf_bytes: int, seed: int) -> list:
    offsets = list(range(0, buf_bytes, _PAGE))
    random.Random(seed).shuffle(offsets)
    return offsets


def rand_write_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Page-shuffled stores over a buffer far larger than the caches."""
    buf = t.alloc(buf_bytes, label="rand_write_cold")
    pages = _shuffled_pages(buf_bytes, seed=0xC01D)
    with t.function("rand_write_cold", file="stream_bodies.py", line=4):
        for _ in range(passes):
            for off in pages:
                yield from t.write_block(buf.base + off, min(_PAGE, buf_bytes - off))


def rand_read_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Page-shuffled loads over a buffer far larger than the caches."""
    buf = t.alloc(buf_bytes, label="rand_read_cold")
    pages = _shuffled_pages(buf_bytes, seed=0xC01D)
    with t.function("rand_read_cold", file="stream_bodies.py", line=5):
        for _ in range(passes):
            for off in pages:
                yield from t.read_block(buf.base + off, min(_PAGE, buf_bytes - off))


def mixed_cold(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Alternating page-shuffled stores and loads (both fused loops)."""
    buf = t.alloc(buf_bytes, label="mixed_cold")
    pages = _shuffled_pages(buf_bytes, seed=0x313D)
    with t.function("mixed_cold", file="stream_bodies.py", line=6):
        for _ in range(passes):
            for i, off in enumerate(pages):
                size = min(_PAGE, buf_bytes - off)
                if i & 1:
                    yield from t.read_block(buf.base + off, size)
                else:
                    yield from t.write_block(buf.base + off, size)


def nt_seq_write(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Non-temporal stores over lines cached stores just dirtied."""
    buf = t.alloc(buf_bytes, label="nt_seq_write")
    with t.function("nt_seq_write", file="stream_bodies.py", line=7):
        for _ in range(passes):
            yield from t.write_block(buf.base, buf_bytes)
            yield from t.write_block(buf.base, buf_bytes, nontemporal=True)
            yield from t.read_block(buf.base, buf_bytes // 2)


#: Strided NT stores: 96-byte chunks every 160 bytes straddle 64- and
#: 128-byte lines and, now and then, a 256-byte device block.
_NT_CHUNK = 96
_NT_STRIDE = 160


def nt_strided_write(t: ThreadCtx, buf_bytes: int, passes: int) -> Iterator[Event]:
    """Strided, line-straddling NT stores between cached stores."""
    buf = t.alloc(buf_bytes, label="nt_strided_write")
    count = (buf_bytes - 8) // _NT_STRIDE
    with t.function("nt_strided_write", file="stream_bodies.py", line=8):
        for _ in range(passes):
            yield from t.write_block(buf.base, buf_bytes // 2)
            addr = buf.base + 8
            if t.emit_streams:
                yield Event.stream(
                    WRITE, addr, (count - 1) * _NT_STRIDE + _NT_CHUNK, _NT_CHUNK,
                    nontemporal=True, site=t.current_site, stride=_NT_STRIDE,
                )
            else:
                for k in range(count):
                    yield t.write(addr + k * _NT_STRIDE, _NT_CHUNK, nontemporal=True)


#: name -> (body, (buf_bytes, passes)).
BODIES: Dict[str, Tuple[Callable[..., Iterator[Event]], Tuple[int, int]]] = {
    "seq_write_warm": (seq_write_warm, (16 * 1024, 60)),
    "seq_write_cold": (seq_write_cold, (256 * 1024, 1)),
    "seq_read_warm": (seq_read_warm, (16 * 1024, 60)),
    "rand_write_cold": (rand_write_cold, (128 * 1024, 1)),
    "rand_read_cold": (rand_read_cold, (128 * 1024, 1)),
    "mixed_cold": (mixed_cold, (128 * 1024, 1)),
    "nt_seq_write": (nt_seq_write, (64 * 1024, 2)),
    "nt_strided_write": (nt_strided_write, (96 * 1024, 2)),
}


def run_body(spec: MachineSpec, name: str, streams: bool) -> RunResult:
    """Run body ``name`` at its sizes on a fresh machine."""
    body, (buf_bytes, passes) = BODIES[name]
    program = Program(spec, streams=streams)
    program.spawn(body, buf_bytes, passes)
    return program.run()
