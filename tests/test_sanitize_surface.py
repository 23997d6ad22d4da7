"""Import surface, CLI smoke, and the AutoTuner without a sanitizer gate."""

import os
import types

import pytest

import repro
import repro.sanitize
from repro.core.autotune import MIN_SPEEDUP, AutoTuner
from repro.core.prestore import PrestoreMode
from repro.dirtbuster.runner import DirtBuster
from repro.errors import Diagnostic, SanitizerError
from repro.sanitize.cli import main as sanitize_cli
from repro.sim.event import CodeSite
from repro.sim.machine import machine_a
from repro.workloads.microbench import Listing1, Listing3

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestImportSurface:
    def test_sanitize_all_names_resolve(self):
        for name in repro.sanitize.__all__:
            assert getattr(repro.sanitize, name) is not None

    def test_expected_names_exported(self):
        expected = {
            "Diagnostic",
            "PrestoreLint",
            "RaceDetector",
            "Sanitizer",
            "SanitizerError",
            "StaticSanitizer",
            "sanitize",
            "static_check",
        }
        assert expected <= set(repro.sanitize.__all__)

    def test_errors_reexported_from_repro(self):
        assert repro.Diagnostic is Diagnostic
        assert repro.SanitizerError is SanitizerError

    def test_lazy_toplevel_exports(self):
        # repro.Sanitizer / the sanitize entry point resolve via the
        # package's lazy __getattr__ (a direct import would be a cycle).
        assert getattr(repro, "Sanitizer") is repro.sanitize.Sanitizer
        assert repro.__getattr__("sanitize") is repro.sanitize.sanitize
        assert "Sanitizer" in repro.__all__ and "sanitize" in repro.__all__

    def test_unknown_lazy_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_real_export

    def test_diagnostic_key_is_stable(self):
        site = CodeSite(function="f", file="x.c", line=3)
        a = Diagnostic(rule="race.write-read", severity="error", message="m", site=site)
        b = Diagnostic(rule="race.write-read", severity="error", message="other", site=site)
        assert a.key == b.key


class TestCliSmoke:
    def test_static_only_quickstart_is_clean(self, capsys):
        target = os.path.join(_REPO_ROOT, "examples", "quickstart.py")
        exit_code = sanitize_cli([target, "--static-only"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_no_targets_is_an_error(self):
        with pytest.raises(SystemExit):
            sanitize_cli([])


class _CleanEverything(DirtBuster):
    """Recommends *clean* for every function, hot lines included."""

    def analyze(self, workload, spec, seed=1234):
        recommendation = types.SimpleNamespace(
            choice=PrestoreMode.CLEAN, fallback=None, wants_prestore=True
        )
        return types.SimpleNamespace(recommendation_for=lambda function: recommendation)


class TestAutoTunerGate:
    def test_gate_off_keeps_fast_enough_patches(self):
        """Speed alone decides: the tuner's runs are unsanitised, and findings
        the sanitize opt-in reports never reach its verdict."""
        tuner = AutoTuner(dirtbuster=_CleanEverything())

        def listing1():
            return Listing1(
                element_size=1024, num_elements=1024, iterations=1200, compute_per_iter=4096
            )

        fast = tuner.tune(listing1, machine_a())
        assert fast.kept
        assert fast.speedup >= MIN_SPEEDUP
        assert fast.baseline.diagnostics == fast.patched.diagnostics == []
        rerun = listing1().run(
            machine_a(), patches=fast.patches, tracer=repro.sanitize.Sanitizer()
        )
        assert rerun.run.diagnostics == []

        # Cleaning Listing 3's hot line is the sanitizer's hot-rewrite case:
        # the opt-in flags it, the tuner never sees the finding.
        slow = tuner.tune(lambda: Listing3(iterations=1500), machine_a())
        assert slow.patched is not None
        assert slow.patched.diagnostics == []
        advice = tuner.dirtbuster.analyze(Listing3(iterations=1500), machine_a())
        candidate = tuner.patches_for(Listing3(iterations=1500), advice)
        flagged = Listing3(iterations=1500).run(
            machine_a(), patches=candidate, tracer=repro.sanitize.Sanitizer()
        )
        assert "prestore.hot-rewrite" in {d.rule for d in flagged.run.diagnostics}
