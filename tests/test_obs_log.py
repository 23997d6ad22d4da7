"""Structured logging context and the wall-clock span profiler."""

import io
import logging
import sys
import time

from repro.obs.log import (
    SpanProfiler,
    basic_config,
    current_context,
    get_logger,
    run_context,
)


class TestRunContext:
    def test_default_context_is_empty(self):
        assert current_context() == {"run_id": None, "experiment_id": None, "worker": None}

    def test_worker_tag_stamps_records(self):
        logger = get_logger("test-worker")
        captured = []

        class Capture(logging.Handler):
            def emit(self, record):
                captured.append(record)

        handler = Capture()
        logger.addHandler(handler)
        try:
            with run_context(run_id="r", worker="pid123"):
                logger.warning("pooled")
            logger.warning("outside")
        finally:
            logger.removeHandler(handler)
        assert captured[0].worker == "pid123"
        assert captured[1].worker == "-"

    def test_nested_contexts_restore(self):
        with run_context(run_id="r1", experiment_id="e1"):
            assert current_context()["run_id"] == "r1"
            with run_context(run_id="r2"):
                assert current_context()["run_id"] == "r2"
                # experiment_id inherited from the enclosing context
                assert current_context()["experiment_id"] == "e1"
            assert current_context()["run_id"] == "r1"
        assert current_context()["run_id"] is None

    def test_records_carry_context_fields(self):
        logger = get_logger("test")
        captured = []

        class Capture(logging.Handler):
            def emit(self, record):
                captured.append(record)

        handler = Capture()
        logger.addHandler(handler)
        try:
            with run_context(run_id="listing1/none/s7"):
                logger.warning("hello")
            logger.warning("outside")
        finally:
            logger.removeHandler(handler)
        assert captured[0].run_id == "listing1/none/s7"
        assert captured[1].run_id == "-"

    def test_library_is_silent_by_default(self):
        # NullHandler on the namespace root: no "No handlers could be
        # found" warnings, nothing written unless basic_config() opts in.
        assert any(
            isinstance(h, logging.NullHandler)
            for h in logging.getLogger("repro.obs").handlers
        )


class TestBasicConfig:
    def test_handler_follows_sys_stderr(self, monkeypatch):
        # A CLI main run under a stderr capture that is later closed (as
        # pytest closes its own) must not leave logging bound to it.
        root = logging.getLogger("repro.obs")
        monkeypatch.setattr(root, "handlers", [logging.NullHandler()])
        monkeypatch.setattr(root, "level", root.level)
        captured = io.StringIO()
        monkeypatch.setattr(sys, "stderr", captured)
        basic_config()
        captured.close()
        later = io.StringIO()
        monkeypatch.setattr(sys, "stderr", later)
        get_logger("test-stderr").warning("after the capture closed")
        assert "after the capture closed" in later.getvalue()
        assert "Logging error" not in later.getvalue()


class TestSpanProfiler:
    def test_span_counts_and_self_time(self):
        profiler = SpanProfiler()
        with profiler.span("outer"):
            time.sleep(0.01)
            with profiler.span("inner"):
                time.sleep(0.01)
        stats = profiler.stats()
        assert stats["outer"].count == 1
        assert stats["inner"].count == 1
        # Child wall time is subtracted from the parent's self time.
        assert stats["outer"].self_s < stats["outer"].total_s
        assert stats["outer"].total_s >= stats["inner"].total_s

    def test_wrap_is_per_instance_and_reversible(self):
        class Thing:
            def work(self):
                return 42

        a, b = Thing(), Thing()
        profiler = SpanProfiler()
        profiler.wrap(a, "work", "thing.work")
        assert a.work() == 42
        assert b.work.__func__ is Thing.work  # other instances untouched
        assert getattr(a.work, "__wrapped__", None) is not None
        profiler.unwrap_all()
        assert not hasattr(a.work, "__wrapped__")  # original restored
        assert a.work() == 42
        assert profiler.stats()["thing.work"].count == 1

    def test_report_renders_all_spans(self):
        profiler = SpanProfiler()
        with profiler.span("alpha"):
            pass
        report = profiler.report()
        assert "alpha" in report
        assert "calls" in report
