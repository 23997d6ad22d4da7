"""Tests for the auto-tuner and trace export extensions."""

import io
import types

import pytest

from repro.core.autotune import MIN_SPEEDUP, AutoTuner
from repro.core.prestore import PrestoreMode
from repro.dirtbuster.export import dump_records, load_records, loads_record
from repro.dirtbuster.runner import DirtBuster, DirtBusterConfig
from repro.dirtbuster.trace import FullTracer
from repro.errors import TraceError
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.microbench import Listing1, Listing3
from repro.workloads.phoronix import ReadMostlyWorkload
from repro.workloads.x9 import X9Workload


class _CleanEverything(DirtBuster):
    """Recommends *clean* for every function, Listing 3's hot loop included."""

    def analyze(self, workload, spec, seed=1234):
        recommendation = types.SimpleNamespace(
            choice=PrestoreMode.CLEAN, fallback=None, wants_prestore=True
        )
        return types.SimpleNamespace(recommendation_for=lambda function: recommendation)


@pytest.fixture(scope="module")
def tuner():
    return AutoTuner(DirtBuster(DirtBusterConfig(sampling_period=53)))


class TestAutoTuner:
    def test_listing1_tuned_to_clean_and_kept(self, tuner):
        result = tuner.tune(
            lambda: Listing1(
                element_size=1024, num_elements=1024, iterations=1200, compute_per_iter=4096
            ),
            machine_a(),
        )
        assert result.adopted == {"listing1.element": PrestoreMode.CLEAN}
        assert result.kept
        assert result.speedup > 1.2
        assert "kept" in result.summary()

    def test_listing3_left_alone(self, tuner):
        result = tuner.tune(lambda: Listing3(iterations=4000), machine_a())
        assert result.adopted == {}
        assert result.patched is None
        assert "no pre-store opportunities" in result.summary()

    def test_x9_tuned_to_demote(self, tuner):
        result = tuner.tune(lambda: X9Workload(messages=1200), machine_b_fast())
        assert result.adopted.get("x9.fill_msg") is PrestoreMode.DEMOTE
        assert result.kept

    def test_read_mostly_app_untouched(self, tuner):
        result = tuner.tune(
            lambda: ReadMostlyWorkload("pytorch", "stream", scale=300), machine_a()
        )
        assert result.adopted == {}

    def test_misadvice_reverted_without_gain(self):
        """Cleaning Listing 3's hot line measures slower: the patch is reverted."""
        tuner = AutoTuner(dirtbuster=_CleanEverything())
        result = tuner.tune(lambda: Listing3(iterations=1500), machine_a())
        assert result.patched is not None
        assert result.speedup < MIN_SPEEDUP
        assert not result.kept
        assert result.adopted == {}
        assert "reverted" in result.summary()

    def test_skip_fallback_to_clean(self):
        """allow_skip=False models the Fortran case: skip -> clean."""
        tuner = AutoTuner(
            DirtBuster(DirtBusterConfig(sampling_period=53)), allow_skip=False
        )
        workload = Listing1(
            element_size=1024,
            num_elements=1024,
            iterations=1200,
            compute_per_iter=4096,
            reread_field=False,  # no re-read -> DirtBuster says skip
        )
        report = tuner.dirtbuster.analyze(workload, machine_a())
        patches = tuner.patches_for(workload, report)
        mode = patches.mode("listing1.element")
        assert mode in (PrestoreMode.CLEAN, PrestoreMode.DEMOTE)
        assert mode is not PrestoreMode.SKIP


class TestTraceExport:
    def _trace(self):
        tracer = FullTracer()
        workload = Listing1(element_size=256, num_elements=64, iterations=60)
        workload.run(machine_a(), tracer=tracer)
        return tracer.trace

    def test_roundtrip(self, tmp_path):
        records = self._trace()
        path = tmp_path / "trace.jsonl"
        written = dump_records(records, str(path))
        loaded = load_records(str(path))
        assert written == len(records) == len(loaded)
        for original, copy in zip(records, loaded):
            assert original.instr_index == copy.instr_index
            assert original.kind == copy.kind
            assert original.addr == copy.addr
            assert original.site.function == copy.site.function

    def test_roundtrip_via_file_object(self):
        records = list(self._trace())[:10]
        buffer = io.StringIO()
        dump_records(records, buffer)
        buffer.seek(0)
        assert len(load_records(buffer)) == 10

    def test_loaded_trace_feeds_instrumenter(self, tmp_path):
        from repro.dirtbuster.instrument import Instrumenter

        records = self._trace()
        path = tmp_path / "trace.jsonl"
        dump_records(records, str(path))
        instrumenter = Instrumenter(line_size=64)
        instrumenter.feed(load_records(str(path)))
        patterns = {p.function: p for p in instrumenter.patterns()}
        assert "listing1_loop" in patterns
        assert patterns["listing1_loop"].pct_sequential > 0.5

    def test_malformed_lines_rejected(self):
        with pytest.raises(TraceError):
            loads_record("not json")
        with pytest.raises(TraceError):
            loads_record('{"v": 99}')
        with pytest.raises(TraceError):
            loads_record('{"v": 1, "i": 0}')
