"""The paper's microbenchmarks: Listings 1, 2 and 3.

* :class:`Listing1` (Section 4.1, Figure 3) — threads write elements of
  an array at random indices, optionally *clean* them, then re-read a
  field.  Shows write amplification on granularity-mismatched media and
  how cleaning restores eviction sequentiality.
* :class:`Listing2` (Section 4.2, Figure 5) — write a line, optionally
  *demote* it, read ``n`` cached values, fence.  Shows how demotion
  overlaps the visibility round trip with useful work.
* :class:`Listing3` (Section 5) — constantly rewrite one hot line,
  optionally cleaning it each time.  The pathological case: cleaning a
  frequently-rewritten line turns cache writes into memory writes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.prestore import PatchConfig, PatchSite, PrestoreMode
from repro.errors import WorkloadError
from repro.sim.event import Event
from repro.workloads.base import Workload
from repro.workloads.memapi import Program, ThreadCtx

__all__ = ["Listing1", "Listing2", "Listing3"]


class Listing1(Workload):
    """Random-index element writes, optional clean, field re-read.

    ``compute_per_iter`` models the per-iteration CPU work of the real
    benchmark (rand(), loop control, the summation) and calibrates how
    many threads it takes to saturate the device (see DESIGN.md §3:
    Figure 3's one-thread regime is unsaturated).
    """

    name = "listing1"

    SITE = PatchSite(
        name="listing1.element",
        function="listing1_loop",
        file="listing1.c",
        line=4,
        description="the just-written element elts[idx]",
    )

    def __init__(
        self,
        element_size: int = 1024,
        num_elements: int = 512,
        iterations: int = 1200,
        threads: int = 1,
        compute_per_iter: int = 0,
        reread_field: bool = True,
    ) -> None:
        if element_size <= 0 or num_elements <= 0 or iterations <= 0 or threads <= 0:
            raise WorkloadError("listing1 parameters must be positive")
        self.element_size = element_size
        self.num_elements = num_elements
        self.iterations = iterations
        self.threads = threads
        self.compute_per_iter = compute_per_iter
        #: Line 5 of Listing 1 (the summation); removing it is the
        #: Section 5 variant where skipping beats cleaning.
        self.reread_field = reread_field

    def patch_sites(self) -> Sequence[PatchSite]:
        return (self.SITE,)

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        mode = patches.mode(self.SITE.name)
        per_thread = max(1, self.iterations // self.threads)
        for _ in range(self.threads):
            program.spawn(self._body, program, mode, per_thread)

    def _body(
        self, t: ThreadCtx, program: Program, mode: PrestoreMode, iterations: int
    ) -> Iterator[Event]:
        elts = t.alloc(self.num_elements * self.element_size, label="elts")
        src = t.alloc(max(self.element_size, 64), label="copy_source")
        nontemporal = mode is PrestoreMode.SKIP
        with t.function("listing1_loop", file="listing1.c", line=2):
            # Warm the copy source so its reads hit the cache.
            yield from t.read_block(src.base, src.size)
            for _ in range(iterations):
                idx = t.rng.randrange(self.num_elements)
                addr = elts.addr(idx * self.element_size)
                yield from t.write_block(addr, self.element_size, nontemporal=nontemporal)
                if mode.op is not None:
                    yield t.prestore(addr, self.element_size, mode.op)
                if self.reread_field:
                    yield t.read(addr, 8)  # total += elt[idx].field
                if self.compute_per_iter:
                    yield t.compute(self.compute_per_iter)
                program.add_work(1)


class Listing2(Workload):
    """Write-demote-read-fence: the delayed-visibility microbenchmark.

    ``reads_before_fence`` is the x-axis of Figure 5; the read buffer is
    small enough to stay L1-resident so each read costs L1 latency only.
    """

    name = "listing2"

    SITE = PatchSite(
        name="listing2.element",
        function="listing2_loop",
        file="listing2.c",
        line=4,
        description="the just-written array[idx] line",
    )

    def __init__(
        self,
        reads_before_fence: int = 10,
        iterations: int = 3000,
        num_elements: int = 4096,
        element_size: int = 128,
    ) -> None:
        if reads_before_fence < 0 or iterations <= 0 or num_elements <= 0:
            raise WorkloadError("listing2 parameters out of range")
        self.reads_before_fence = reads_before_fence
        self.iterations = iterations
        self.num_elements = num_elements
        self.element_size = element_size

    def patch_sites(self) -> Sequence[PatchSite]:
        return (self.SITE,)

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        program.spawn(self._body, program, patches.mode(self.SITE.name))

    def _body(self, t: ThreadCtx, program: Program, mode: PrestoreMode) -> Iterator[Event]:
        array = t.alloc(self.num_elements * self.element_size, label="array")
        l1_data = t.alloc(8 * 1024, label="L1_data")
        per_run = l1_data.size // 64
        with t.function("listing2_loop", file="listing2.c", line=2):
            yield from t.read_block(l1_data.base, l1_data.size)  # warm
            for _ in range(self.iterations):
                idx = t.rng.randrange(self.num_elements)
                addr = array.addr(idx * self.element_size)
                yield t.write(addr, self.element_size)
                if mode.op is not None:
                    yield t.prestore(addr, self.element_size, mode.op)
                # Read i is at (i * 64) % size: runs of ``per_run`` reads
                # from the buffer's start, the last possibly shorter.
                for start in range(0, self.reads_before_fence, per_run):
                    count = min(per_run, self.reads_before_fence - start)
                    yield from t.read_strided(l1_data.base, 8, 64, count)
                yield t.fence()
                program.add_work(1)


class Listing3(Workload):
    """Constantly rewriting one cache line (the pre-store anti-pattern).

    With a clean pre-store every rewrite becomes a memory write; without
    it the line is simply overwritten in the cache.  Section 5 reports a
    75x slowdown — "equivalent to the ratio between the latency of
    writing to memory vs. writing to the cache".
    """

    name = "listing3"

    SITE = PatchSite(
        name="listing3.hot_line",
        function="listing3_loop",
        file="listing3.c",
        line=4,
        description="the constantly rewritten data[] line",
    )

    def __init__(self, iterations: int = 4000, line_bytes: int = 64) -> None:
        if iterations <= 0 or line_bytes <= 0:
            raise WorkloadError("listing3 parameters must be positive")
        self.iterations = iterations
        self.line_bytes = line_bytes

    def patch_sites(self) -> Sequence[PatchSite]:
        return (self.SITE,)

    def spawn(self, program: Program, patches: PatchConfig) -> None:
        program.spawn(self._body, program, patches.mode(self.SITE.name))

    def _body(self, t: ThreadCtx, program: Program, mode: PrestoreMode) -> Iterator[Event]:
        data = t.alloc(self.line_bytes, label="data")
        with t.function("listing3_loop", file="listing3.c", line=2):
            for _ in range(self.iterations):
                yield from t.memset(data.base, self.line_bytes)
                if mode.op is not None:
                    yield t.prestore(data.base, self.line_bytes, mode.op)
                program.add_work(1)
