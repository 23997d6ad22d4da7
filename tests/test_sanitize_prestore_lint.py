"""Pre-store misuse detector tests: the four lint rules."""

from repro.core.prestore import PatchConfig, PrestoreMode, PrestoreOp
from repro.sanitize import Sanitizer, sanitize
from repro.sim.machine import machine_a
from repro.workloads.memapi import Program
from repro.workloads.microbench import Listing1, Listing3


def _prestore_rules(diagnostics):
    return [d.rule for d in diagnostics if d.rule.startswith("prestore.")]


def _run_body(spec, body):
    program = Program(spec, tracer=Sanitizer())
    program.spawn(body)
    return program.run().diagnostics


class TestHotRewrite:
    def test_listing3_with_clean_is_flagged(self):
        """Cleaning the constantly-rewritten line is the Listing 3
        anti-pattern: every rewrite becomes a memory write."""
        patches = PatchConfig()
        patches.set_mode(Listing3.SITE.name, PrestoreMode.CLEAN)
        diagnostics = sanitize(Listing3(iterations=2000), machine_a(), patches=patches)
        hot = [d for d in diagnostics if d.rule == "prestore.hot-rewrite"]
        assert hot, "Listing 3 + clean must be flagged"
        assert hot[0].severity == "error"
        assert hot[0].count >= 4
        assert hot[0].site is not None and hot[0].site.function == "listing3_loop"

    def test_listing1_with_clean_is_not_flagged(self):
        """Listing 1 rewrites random elements far apart — exactly what the
        clean pre-store is for; it must pass the same gate."""
        patches = PatchConfig()
        patches.set_mode(Listing1.SITE.name, PrestoreMode.CLEAN)
        diagnostics = sanitize(
            Listing1(iterations=400, num_elements=256), machine_a(), patches=patches
        )
        assert _prestore_rules(diagnostics) == []

    def test_listing3_baseline_is_clean(self):
        diagnostics = sanitize(Listing3(iterations=2000), machine_a())
        assert _prestore_rules(diagnostics) == []


class TestDemoteAfterFence:
    def test_demote_issued_after_fence_is_flagged(self):
        def body(t):
            region = t.alloc(128)
            yield t.write(region.base, 64)
            yield t.fence()
            # Too late: the fence already forced the store visible.
            yield t.prestore(region.base, 64, PrestoreOp.DEMOTE)

        diagnostics = _run_body(machine_a(), body)
        assert "prestore.demote-after-fence" in _prestore_rules(diagnostics)

    def test_demote_before_fence_is_clean(self):
        def body(t):
            region = t.alloc(128)
            yield t.write(region.base, 64)
            yield t.prestore(region.base, 64, PrestoreOp.DEMOTE)
            yield t.fence()

        diagnostics = _run_body(machine_a(), body)
        assert _prestore_rules(diagnostics) == []


class TestUnwritten:
    def test_prestore_of_unwritten_region_is_flagged(self):
        def body(t):
            region = t.alloc(256)
            yield t.read(region.base, 8)
            yield t.prestore(region.base, 256, PrestoreOp.CLEAN)

        diagnostics = _run_body(machine_a(), body)
        unwritten = [d for d in diagnostics if d.rule == "prestore.unwritten"]
        assert unwritten and unwritten[0].severity == "warning"


class TestSkipReread:
    def test_rereading_nontemporal_data_is_flagged(self):
        def body(t):
            region = t.alloc(16 * 64)
            for i in range(8):
                addr = region.addr(i * 64)
                yield t.write(addr, 64, nontemporal=True)
                yield t.read(addr, 8)  # pays device latency every time

        diagnostics = _run_body(machine_a(), body)
        reread = [d for d in diagnostics if d.rule == "prestore.skip-reread"]
        assert reread and reread[0].severity == "warning"
        assert reread[0].count >= 4

    def test_writeonly_nontemporal_stream_is_clean(self):
        def body(t):
            region = t.alloc(16 * 64)
            for i in range(8):
                yield t.write(region.addr(i * 64), 64, nontemporal=True)

        diagnostics = _run_body(machine_a(), body)
        assert _prestore_rules(diagnostics) == []
