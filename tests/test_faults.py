"""repro.faults: determinism, crash semantics, recovery, and the identity."""

import functools
import hashlib
import json
import logging
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.prestore import PrestoreMode
from repro.faults import (
    CrashPoint,
    FaultPlan,
    KVPersistWorkload,
    LogAppendWorkload,
    PersistentImage,
    ReadFault,
    run_with_faults,
)
from repro.faults import image as image_module
from repro.faults.cli import main as faults_main
from repro.obs.collector import ObsCollector
from repro.runner import Cell, execute_cells
from repro.sim.machine import (
    machine_a,
    machine_a_cxl,
    machine_b_fast,
    machine_b_slow,
    machine_dram,
)

PRESETS = [machine_a, machine_dram, machine_a_cxl, machine_b_fast, machine_b_slow]


def _clean_patches(workload):
    from repro.core.prestore import PatchConfig

    config = PatchConfig.baseline()
    for site in workload.patch_sites():
        config.set_mode(site.name, PrestoreMode.CLEAN)
    return config


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan(crash=CrashPoint(at_instruction=5)).is_empty()
        assert not FaultPlan(read_faults=(ReadFault(at_read=3),)).is_empty()

    def test_round_trips_through_dict(self):
        plan = FaultPlan.generate(seed=11, crash_window=(100, 200), read_fault_count=2)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_generate_is_seed_deterministic(self):
        a = FaultPlan.generate(seed=3, crash_window=(10, 99), read_fault_count=3)
        b = FaultPlan.generate(seed=3, crash_window=(10, 99), read_fault_count=3)
        c = FaultPlan.generate(seed=4, crash_window=(10, 99), read_fault_count=3)
        assert a == b
        assert a != c


class TestEmptyPlanIdentity:
    """The acceptance criterion: no faults injected => bit-identical results."""

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("streams", [True, False], ids=["fast-path", "reference"])
    def test_no_fault_results_bit_identical_on_every_preset(self, preset, streams):
        spec = preset()
        plain = (
            LogAppendWorkload(record_size=256, records=24)
            .run(spec, streams=streams)
            .run.to_json()
        )
        report = run_with_faults(
            LogAppendWorkload(record_size=256, records=24),
            spec,
            FaultPlan(),
            streams=streams,
        )
        assert report.result.to_json() == plain
        assert report.image is None and not report.crashed


class TestCrashDeterminism:
    PLAN = FaultPlan(crash=CrashPoint(at_instruction=120))

    def _cell(self):
        return Cell(
            make_workload=functools.partial(KVPersistWorkload, operations=48),
            spec=machine_a(),
            mode=PrestoreMode.CLEAN,
            seed=9,
            fault_plan=self.PLAN,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_plan_same_seed_bit_identical_at_any_worker_count(self, workers):
        (ref,) = execute_cells([self._cell()], workers=1)
        out = execute_cells([self._cell(), self._cell()], workers=workers)
        assert [o.result_json for o in out] == [ref.result_json] * 2
        report = ref.result.extra["fault_report"]
        assert report["crashed"] is True
        assert report["image_digest"]

    def test_run_cell_does_the_image_work_once(self, monkeypatch, caplog):
        """One crash cell digests its image and finds its lost lines once,
        and never builds the image's JSON text."""
        from repro.runner.cells import run_cell

        caplog.set_level(logging.WARNING, logger="repro.obs")
        calls = {"digest": 0, "lost_lines": 0, "to_json": 0}
        for name in calls:

            def counted(self, _original=getattr(PersistentImage, name), _name=name):
                calls[_name] += 1
                return _original(self)

            monkeypatch.setattr(PersistentImage, name, counted)
        report = json.loads(run_cell(self._cell()).result_json)["extra"]["fault_report"]
        assert report["crashed"] is True
        assert report["image_digest"] == report["image_summary"]["digest"]
        assert calls == {"digest": 1, "lost_lines": 1, "to_json": 0}

    def test_harness_report_json_is_stable(self):
        kwargs = dict(seed=9, patches=_clean_patches(KVPersistWorkload()))
        a = run_with_faults(KVPersistWorkload(operations=48), machine_a(), self.PLAN, **kwargs)
        b = run_with_faults(KVPersistWorkload(operations=48), machine_a(), self.PLAN, **kwargs)
        assert a.to_json() == b.to_json()
        assert a.image.digest() == b.image.digest()

    def test_image_round_trips_through_dict(self):
        report = run_with_faults(
            KVPersistWorkload(operations=48),
            machine_a(),
            self.PLAN,
            seed=9,
        )
        image = PersistentImage.from_dict(report.image.to_dict())
        assert image.to_json() == report.image.to_json()
        assert image.digest() == report.image.digest()


# Line numbers whose string order differs from their numeric order.
_LINES = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.sampled_from([9, 10, 99, 100, 1000, 2**40]),
    st.integers(min_value=0, max_value=2**40),
)
_VERSION_TABLES = st.dictionaries(_LINES, st.integers(min_value=1, max_value=600), max_size=40)
_LINE_SETS = st.lists(_LINES, max_size=20, unique=True)


@st.composite
def _images(draw):
    return PersistentImage(
        machine_name=draw(st.sampled_from(["machine-a", "machine-b-slow"])),
        line_size=64,
        adr=draw(st.booleans()),
        crashed=draw(st.booleans()),
        crash_cycle=draw(st.floats(min_value=0, max_value=1e12, allow_nan=False)),
        crash_instruction=draw(st.integers(min_value=0, max_value=10**9)),
        line_versions=draw(_VERSION_TABLES),
        accepted_versions=draw(_VERSION_TABLES),
        media_versions=draw(_VERSION_TABLES),
        store_buffer_lines=draw(st.lists(_LINE_SETS, max_size=3)),
        dirty_cache_lines=draw(_LINE_SETS),
        combiner_pending=draw(st.dictionaries(_LINES, _LINE_SETS, max_size=3)),
    )


def _serve_sized_image():
    """Three 16 k-line version tables in first-store order, like a
    degraded serve cell's clean shutdown."""
    rng = random.Random(7)
    lines = rng.sample(range(16_416, 65_536), 16_165)
    versions = {line: rng.randint(1, 520) for line in lines}
    return PersistentImage(
        machine_name="machine-a",
        line_size=64,
        adr=True,
        crashed=False,
        crash_cycle=1.5e7,
        crash_instruction=250_000,
        line_versions=versions,
        accepted_versions=dict(versions),
        media_versions={line: v - 1 for line, v in versions.items() if v > 1},
    )


def _assert_canonical(image):
    text = json.dumps(image.to_dict(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert image.to_json() == text
    assert image.digest() == digest
    # Batches of three entries: every table goes out in several pieces.
    with mock.patch.object(image_module, "_BATCH", 3):
        assert image.to_json() == text
        assert image.digest() == digest


class TestImageText:
    @given(image=_images())
    @settings(max_examples=150, deadline=None)
    def test_to_json_is_the_canonical_dump(self, image):
        _assert_canonical(image)

    @pytest.mark.parametrize(
        "lines",
        [
            {1, *range(94_375, 98_472)},
            {5, 95, 96, 97, 98},
            {5, 296, 297, 299, 300},
            {9, 10, 100, 2**40},
        ],
        ids=["sparse-5-digit-run", "two-digit-tail", "three-digit-tail", "digit-counts"],
    )
    def test_digit_count_runs_that_start_below_their_keys(self, lines):
        # Each digit count's run of keys starts above its smallest
        # possible value (10**(d-1)), and its keys crowd its top end.
        versions = {line: line % 7 + 1 for line in lines}
        _assert_canonical(
            PersistentImage(
                machine_name="machine-a",
                line_size=64,
                adr=True,
                crashed=True,
                crash_cycle=1.0,
                crash_instruction=1,
                line_versions=versions,
                accepted_versions=dict(versions),
                media_versions={line: 1 for line in lines},
                dirty_cache_lines=sorted(lines, reverse=True)[:50],
            )
        )

    def test_digest_streams_a_serve_sized_image(self):
        image = _serve_sized_image()
        text = image.to_json()
        assert text == json.dumps(image.to_dict(), sort_keys=True)
        tracemalloc.start()
        try:
            digest = image.digest()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(text.encode()).hexdigest()[:16]
        # One table's sorted keys (8 bytes a line, plus the sort's merge
        # buffer) and a batch of entries: about 0.29 of the text.
        assert peak < len(text) / 3

    def test_image_takes_over_the_device_tables(self):
        from repro.faults import harness

        devices = []
        harness_capture = harness.capture_image

        def capture(machine, device, *args, **kwargs):
            devices.append(device)
            return harness_capture(machine, device, *args, **kwargs)

        with mock.patch.object(harness, "capture_image", capture):
            report = run_with_faults(
                KVPersistWorkload(operations=48), machine_a(), TestCrashDeterminism.PLAN, seed=9
            )
        (device,) = devices
        for name in ("line_versions", "accepted_versions", "media_versions"):
            assert getattr(report.image, name) is getattr(device, name)
        assert report.image.line_versions


class TestRecovery:
    def _run(self, workload, mode, plan, spec=None):
        from repro.core.prestore import PatchConfig

        config = PatchConfig.baseline()
        for site in workload.patch_sites():
            config.set_mode(site.name, mode)
        return run_with_faults(workload, spec or machine_a(), plan, patches=config, seed=5)

    def test_kv_clean_protocol_survives_any_crash(self):
        report = self._run(
            KVPersistWorkload(operations=64),
            PrestoreMode.CLEAN,
            FaultPlan(crash=CrashPoint(at_instruction=150)),
        )
        assert report.crashed
        assert report.recovery["ok"], report.recovery

    def test_kv_baseline_loses_acked_keys(self):
        report = self._run(
            KVPersistWorkload(operations=64),
            PrestoreMode.NONE,
            FaultPlan(crash=CrashPoint(at_instruction=100)),
        )
        assert report.crashed
        assert not report.recovery["ok"]
        assert report.recovery["lost_count"] > 0
        assert report.recovery["lost_keys"]

    def test_log_prefix_durability_under_clean(self):
        report = self._run(
            LogAppendWorkload(records=60),
            PrestoreMode.CLEAN,
            FaultPlan(crash=CrashPoint(at_instruction=200)),
        )
        assert report.crashed
        recovery = report.recovery
        assert recovery["ok"], recovery
        # Everything acked before the crash is the durable prefix.
        assert recovery["durable_prefix"] == recovery["acked"]

    def test_log_baseline_crash_truncates_with_holes(self):
        report = self._run(
            LogAppendWorkload(records=60),
            PrestoreMode.NONE,
            FaultPlan(crash=CrashPoint(at_instruction=80)),
        )
        assert report.crashed
        assert not report.recovery["ok"]
        assert report.recovery["lost_count"] > 0

    def test_skip_mode_is_durable_under_adr(self):
        # NT stores are accepted by the device before the fence, but they
        # sit in open write-combiner entries: durable exactly because ADR
        # flushes the combiner on power fail (the paper's Table 1 setup).
        report = self._run(
            KVPersistWorkload(operations=64),
            PrestoreMode.SKIP,
            FaultPlan(crash=CrashPoint(at_instruction=150)),
        )
        assert report.crashed
        assert report.recovery["ok"], report.recovery

    def test_skip_mode_without_adr_strands_accepted_bytes(self):
        # Media-only persistence: sfence ordered the NT stores into the
        # device, but open combiner entries never reached the medium.
        report = self._run(
            KVPersistWorkload(operations=64),
            PrestoreMode.SKIP,
            FaultPlan(crash=CrashPoint(at_instruction=150), combiner_persistent=False),
        )
        assert report.crashed
        assert report.recovery["lost_count"] > 0

    def test_no_adr_strands_open_combiner_entries(self):
        # Media-only persistence: an acked line still sitting in an open
        # write-combiner entry does not survive, so the durable count can
        # only shrink relative to the ADR image.
        plan_adr = FaultPlan(crash=CrashPoint(at_instruction=150))
        plan_raw = FaultPlan(
            crash=CrashPoint(at_instruction=150), combiner_persistent=False
        )
        adr = self._run(KVPersistWorkload(operations=64), PrestoreMode.CLEAN, plan_adr)
        raw = self._run(KVPersistWorkload(operations=64), PrestoreMode.CLEAN, plan_raw)
        assert len(raw.image.lost_lines()) >= len(adr.image.lost_lines())


class TestDeviceFaults:
    def test_read_faults_and_degraded_phases_are_counted(self):
        plan = FaultPlan(
            read_faults=(ReadFault(at_read=1), ReadFault(at_read=3)),
            bandwidth_phases=FaultPlan.generate(
                seed=2, phase_count=1, phase_window=(0, 10_000), phase_length=50_000
            ).bandwidth_phases,
        )
        report = run_with_faults(
            KVPersistWorkload(operations=48), machine_a(), plan, seed=5
        )
        assert not report.crashed
        assert report.read_faults_injected >= 1

    def test_read_fault_latency_slows_the_run(self):
        # Needs *demand* reads: RFO fills from store drains deliberately
        # don't stall the core, so a write-only workload would hide the
        # injected latency.  YCSB mix A is half GETs.
        from repro.workloads.kv import CLHTWorkload, YCSBSpec

        def reader():
            return CLHTWorkload(
                YCSBSpec(mix="A", num_keys=256, operations=300, value_size=256)
            )

        base = run_with_faults(
            reader(),
            machine_a(),
            FaultPlan(read_faults=(ReadFault(at_read=10**9),)),
            seed=5,
        )
        # Read indices are 1-based; blanket the first 200 reads so some
        # land on core-stalling demand reads.
        faults = tuple(
            ReadFault(at_read=i, extra_latency=2000.0) for i in range(1, 201)
        )
        slow = run_with_faults(
            reader(), machine_a(), FaultPlan(read_faults=faults), seed=5
        )
        assert slow.read_faults_injected > 0
        assert slow.result.cycles > base.result.cycles

    @pytest.mark.parametrize(
        "plan", [FaultPlan.degraded_window(0, 1e9, 2), FaultPlan()], ids=["degraded", "empty"]
    )
    def test_profiled_fault_run_times_the_device(self, plan):
        # The fault device goes in before the collector wraps the
        # machine's parts, so its reads and writebacks get spans too.
        from repro.workloads.nas import MGWorkload

        collector = ObsCollector(profile=True)
        run_with_faults(
            MGWorkload(grid=8, iterations=1, threads=2), machine_a(), plan, tracer=collector
        )
        counts = {name: span.count for name, span in collector.profiler.stats().items()}
        assert counts == {
            "sim.cache_fill": 148,
            "sim.cache_lookup": 114,
            "sim.device_read": 148,
            "sim.device_writeback": 72,
            "sim.dispatch": 614,
        }


class TestCLI:
    def test_run_reports_json(self, capsys):
        rc = faults_main(
            ["run", "--workload", "kvpersist", "--mode", "clean", "--crash-frac", "0.5"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["crashed"] is True
        assert doc["recovery"]["ok"] is True
        assert doc["image_summary"]["digest"]

    def test_run_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            faults_main(["run", "--machine", "pdp11"])


class TestExperiment:
    def test_faults_window_is_registered_and_checks(self):
        from repro.experiments import get

        result = get("faults-window").run_checked(fast=True, seed=1234)
        assert not any(n.startswith("SHAPE CHECK FAILED") for n in result.notes), result.notes
        by_mode = {row.config["mode"]: row for row in result.rows}
        assert by_mode["none"].metric("lost_acked") > 0
        assert by_mode["clean"].metric("lost_acked") == 0
        assert by_mode["skip"].metric("lost_acked") == 0
