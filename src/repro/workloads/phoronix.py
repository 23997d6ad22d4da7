"""Stand-ins for the non-write-intensive Phoronix applications (Table 2).

The paper ran a subset of the Phoronix suite and found that pytorch,
numpy, lzma, c-ray, arrayfire, build-kernel, build-gcc, gzip, go-bench
and rust-prime "spend less than 10% of their time issuing store
instructions", so DirtBuster stops at step 1 for them.  These stand-ins
exist to make that filter real: each emits a read/compute-dominated
event stream in one of a few characteristic flavours, with a store share
safely below the threshold.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.core.prestore import PatchConfig, PatchSite
from repro.errors import WorkloadError
from repro.sim.event import Event
from repro.workloads.base import Workload
from repro.workloads.memapi import Program, ThreadCtx

__all__ = ["ReadMostlyWorkload", "PHORONIX_APPS"]

#: (name, flavour) pairs for the paper's Table 2 "not write-intensive" rows.
PHORONIX_APPS: Tuple[Tuple[str, str], ...] = (
    ("pytorch", "stream"),
    ("numpy", "stream"),
    ("lzma", "pointer"),
    ("c-ray", "compute"),
    ("arrayfire", "stream"),
    ("build-kernel", "pointer"),
    ("build-gcc", "pointer"),
    ("gzip", "stream"),
    ("go-bench", "compute"),
    ("rust-prime", "compute"),
)

_FLAVOURS = ("stream", "pointer", "compute")


class ReadMostlyWorkload(Workload):
    """A read/compute-dominated application.

    Flavours:

    * ``stream`` — long sequential reads with occasional reduction
      writes (numpy/pytorch-style kernels);
    * ``pointer`` — dependent random reads with rare writes (compilers,
      compressors chasing hash chains);
    * ``compute`` — ALU-bound with sparse memory traffic (ray tracing,
      primality loops).
    """

    default_threads = 2

    def __init__(self, name: str, flavour: str = "stream", scale: int = 400) -> None:
        if flavour not in _FLAVOURS:
            raise WorkloadError(f"unknown flavour {flavour!r}; choose from {_FLAVOURS}")
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        self.name = name
        self.flavour = flavour
        self.scale = scale

    def patch_sites(self) -> Sequence[PatchSite]:
        return ()

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        for _ in range(self.default_threads):
            program.spawn(self._body, program)

    def _body(self, t: ThreadCtx, program: Program) -> Iterator[Event]:
        data = t.alloc(1 << 20, label=f"{self.name}_data")
        out = t.alloc(1 << 12, label=f"{self.name}_out")
        lines = data.size // 64
        for i in range(self.scale):
            with t.function(f"{self.name}_kernel", file=f"{self.name}.c", line=100):
                if self.flavour == "stream":
                    base = (i * 4096) % (data.size - 4096)
                    yield t.read(data.addr(base), 4096)
                    yield t.compute(256)
                    if i % 32 == 0:
                        yield t.write(out.addr((i // 32 * 8) % out.size), 8)
                elif self.flavour == "pointer":
                    for _ in range(24):
                        yield t.read(data.addr(t.rng.randrange(lines) * 64), 8)
                        yield t.compute(12)
                    if i % 8 == 0:
                        yield t.write(out.addr((i // 8 * 8) % out.size), 8)
                else:  # compute
                    yield t.compute(600)
                    yield t.read(data.addr(t.rng.randrange(lines) * 64), 8)
                    if i % 32 == 0:
                        yield t.write(out.addr((i // 32 * 8) % out.size), 8)
            program.add_work(1)
