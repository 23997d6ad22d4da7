"""The ``python -m repro.obs`` command-line interface."""

import json

import pytest

from repro.obs.cli import main, render_timeline
from repro.obs.collector import ObsCollector
from repro.workloads.microbench import Listing1


class TestRunCommand:
    def test_run_writes_valid_trace_and_json(self, tmp_path, capsys):
        trace_path = tmp_path / "out.trace.json"
        json_path = tmp_path / "out.json"
        code = main(
            [
                "run",
                "--workload", "listing1",
                "--seed", "7",
                "--interval", "500",
                "--trace", str(trace_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        result = json.loads(json_path.read_text())
        assert result["timeline"]["samples"]
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "WriteAmplification" in out

    def test_run_with_mode_and_profile(self, tmp_path, capsys):
        code = main(
            ["run", "--workload", "listing1", "--mode", "clean", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sim.dispatch" in out  # profiler report reached stdout

    def test_unknown_workload_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workload", "no-such-workload"])
        assert exc.value.code == 2
        assert "error: unknown workload 'no-such-workload'" in capsys.readouterr().err


class TestSelfCheck:
    def test_self_check_subcommand_passes(self, capsys):
        assert main(["self-check"]) == 0
        assert "self-check OK" in capsys.readouterr().out

    def test_self_check_flag_alias(self, capsys):
        assert main(["--self-check"]) == 0
        assert "self-check OK" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestRenderTimeline:
    def test_renders_one_row_per_signal(self, tiny_machine_a):
        collector = ObsCollector(interval=200.0, trace=False)
        Listing1(iterations=200).run(tiny_machine_a, seed=3, tracer=collector)
        art = render_timeline(collector.timeline, width=40)
        assert "write bandwidth" in art
        assert "running WA" in art
        # Sparklines are bounded by the requested width.
        for line in art.splitlines()[1:]:
            assert len(line.split("|")[1]) <= 40

    def test_empty_timeline_renders_placeholder(self):
        from repro.obs.timeline import Timeline

        assert "empty" in render_timeline(Timeline(interval=1.0))
