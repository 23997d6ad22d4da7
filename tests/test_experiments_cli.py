"""``prestores-experiments``: exit statuses, and resuming a killed sweep."""

import importlib.util
import os
import re
import sys

import pytest

from repro.errors import ExperimentError
from repro.experiments import registry
from repro.experiments.cli import EXIT_SHAPE_FAILED, main
from repro.experiments.registry import Experiment, SeriesRow
from repro.runner import ResultCache

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "kill_resume", os.path.join(_ROOT, "ci", "kill_resume.py")
)
kill_resume = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kill_resume)


class _Stub(Experiment):
    id = "stub-pass"
    title = "stub"
    paper_claim = "claim"

    def reduce(self, results, fast, seed):
        return self._result([SeriesRow(config={"x": 1}, metrics={"y": 1.0})])


class _FailingStub(_Stub):
    id = "stub-fail"

    def check(self, result):
        return ["y is too small"]


class _CrashingStub(_Stub):
    id = "stub-crash"

    def reduce(self, results, fast, seed):
        raise RuntimeError("reduce crashed")


class _NotedStub(_Stub):
    id = "stub-noted"
    title = "noted"
    paper_claim = "it has notes"

    def reduce(self, results, fast, seed):
        return self._result(
            [SeriesRow(config={"fast": fast}, metrics={"seed": float(seed)})],
            notes=["first caveat", "second caveat"],
        )


@pytest.fixture(autouse=True)
def _stubs(monkeypatch):
    for cls in (_Stub, _FailingStub, _CrashingStub, _NotedStub):
        monkeypatch.setitem(registry._REGISTRY, cls.id, cls)


class TestExitStatus:
    def test_passing_checks_exit_zero(self, capsys):
        assert main(["stub-pass"]) == 0

    def test_failed_shape_check_exits_three(self, capsys, tmp_path):
        md = tmp_path / "out.md"
        assert EXIT_SHAPE_FAILED == 3
        assert main(["stub-pass", "stub-fail", "--markdown", str(md)]) == 3
        assert "SHAPE CHECK FAILED: y is too small" in md.read_text()

    def test_crash_is_not_a_failed_check(self, capsys):
        # Uncaught, so the process exits 1, never 3.
        with pytest.raises(RuntimeError, match="reduce crashed"):
            main(["stub-fail", "stub-crash"])


class TestArguments:
    def test_no_experiments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        assert "give experiment ids, --all, or --list" in capsys.readouterr().err

    def test_unknown_experiment_raises(self, capsys):
        with pytest.raises(ExperimentError, match="unknown experiment 'no-such'"):
            main(["no-such"])

    def test_list_includes_registered_experiments(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.split()[:2] == ["stub-noted", "noted"] for line in lines)
        ids = [line.split()[0] for line in lines]
        assert ids == sorted(ids)

    def test_help_documents_the_exit_statuses(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "0 all shape checks passed, 3 a shape check failed, 1 the run crashed" in out

    @pytest.mark.parametrize(
        "argv, fast, seed",
        [([], "True", 1234.0), (["--full"], "False", 1234.0), (["--seed", "7"], "True", 7.0)],
    )
    def test_fast_and_seed_reach_the_experiment(self, capsys, tmp_path, argv, fast, seed):
        md = tmp_path / "out.md"
        assert main(["stub-noted", *argv, "--markdown", str(md)]) == 0
        table = md.read_text().split("```")[1].splitlines()
        assert table[2].split() == [fast, f"{seed:.3f}"]


class TestMarkdown:
    def test_layout(self, capsys, tmp_path):
        md = tmp_path / "out.md"
        assert main(["stub-noted", "stub-pass", "--markdown", str(md)]) == 0
        text = md.read_text()
        assert text.startswith("# Experiment results\n\n## stub-noted: noted\n")
        assert "*Paper claim:* it has notes" in text
        assert "- first caveat\n- second caveat\n" in text
        assert text.index("## stub-noted") < text.index("## stub-pass: stub")
        assert text.count("```") == 4
        assert f"wrote {md}" in capsys.readouterr().out

    def test_markdown_is_the_same_on_every_run(self, capsys, tmp_path):
        texts = []
        for run in range(2):
            md = tmp_path / f"out{run}.md"
            assert main(["stub-noted", "stub-pass", "--markdown", str(md)]) == 0
            texts.append(md.read_text())
        assert texts[0] == texts[1]
        assert " s " not in texts[0] and "accesses" not in texts[0]

    def test_stdout_carries_timings_and_path_counts(self, capsys):
        assert main(["stub-pass"]) == 0
        out = capsys.readouterr().out
        assert "== stub-pass: stub ==" in out
        assert "stub-pass: 0.00 s  accesses fused=0 unrolled=0 single=0" in out
        last = out.rstrip().splitlines()[-1]
        assert last.startswith("total: ")
        # The process's peak RSS rides on the total line, in MiB.
        assert re.fullmatch(r"total: \d+\.\d\d s  peak RSS \d+\.\d MiB", last)
        assert float(last.split()[-2]) > 0


def _snapshot(root):
    """Every file under ``root``: name, size and modification time."""
    return {
        path.relative_to(root): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
    }


def test_warm_cache_rerun_stores_nothing_and_prints_the_same(tmp_path, capsys):
    cache = tmp_path / "cache"
    first, second = tmp_path / "first.md", tmp_path / "second.md"
    argv = ["listing3", "--workers", "2", "--cache-dir", str(cache)]
    assert main([*argv, "--markdown", str(first)]) == 0
    stored = len(ResultCache(cache))
    assert stored == len(kill_resume.sweep_keys(["listing3"])) > 0
    before = _snapshot(cache)
    assert main([*argv, "--markdown", str(second)]) == 0
    assert _snapshot(cache) == before
    assert second.read_text() == first.read_text()


def test_kill_resume_script_usage(capsys):
    assert kill_resume.main(["only", "three", "args"]) == 2
    assert "usage: python ci/kill_resume.py" in capsys.readouterr().err


#: Cheap experiments: about 1.5 s and 15 cells at --workers 2.
RESUME_IDS = ["x9", "listing3", "faults-window", "sec742"]


def test_sigkilled_sweep_resumes_from_the_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(sys.path))
    reference = tmp_path / "reference.md"
    assert main([*RESUME_IDS, "--markdown", str(reference)]) == 0
    total = len(kill_resume.sweep_keys(RESUME_IDS))
    resumed = tmp_path / "resumed.md"
    stored, added, orphans = kill_resume.kill_and_resume(
        RESUME_IDS, str(tmp_path / "cache"), str(resumed)
    )
    assert not orphans
    assert 0 < stored < total
    assert added == total - stored
    assert resumed.read_text() == reference.read_text()
