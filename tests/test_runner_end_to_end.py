"""End-to-end DirtBuster tests: the full sample->instrument->advise loop."""

import os
import subprocess
import sys

import pytest

from repro.core.prestore import PrestoreMode
from repro.dirtbuster.runner import DirtBuster, DirtBusterConfig
from repro.sim.machine import machine_a, machine_b_fast
from repro.workloads.microbench import Listing1, Listing3
from repro.workloads.phoronix import ReadMostlyWorkload
from repro.workloads.x9 import X9Workload


@pytest.fixture(scope="module")
def dirtbuster():
    return DirtBuster(DirtBusterConfig(sampling_period=53))


class TestEndToEnd:
    def test_listing1_gets_clean(self, dirtbuster):
        workload = Listing1(
            element_size=1024, num_elements=512, iterations=500, compute_per_iter=200
        )
        report = dirtbuster.analyze(workload, machine_a())
        assert report.classification.write_intensive
        assert report.classification.sequential_writes
        rec = report.recommendation_for("listing1_loop")
        assert rec is not None and rec.choice is PrestoreMode.CLEAN

    def test_listing3_declined(self, dirtbuster):
        report = dirtbuster.analyze(Listing3(iterations=4000), machine_a())
        rec = report.recommendation_for("listing3_loop")
        assert rec is not None and rec.choice is PrestoreMode.NONE

    def test_x9_gets_demote(self, dirtbuster):
        report = dirtbuster.analyze(X9Workload(messages=600), machine_b_fast())
        rec = report.recommendation_for("fill_msg")
        assert rec is not None and rec.choice is PrestoreMode.DEMOTE
        assert report.classification.writes_before_fence

    def test_read_mostly_app_skips_instrumentation(self, dirtbuster):
        workload = ReadMostlyWorkload("pytorch", "stream", scale=300)
        report = dirtbuster.analyze(workload, machine_a())
        assert not report.classification.write_intensive
        assert report.recommendations == []
        assert "not write-intensive" in report.render()

    def test_suggested_patches_config(self, dirtbuster):
        workload = Listing1(
            element_size=1024, num_elements=512, iterations=500, compute_per_iter=200
        )
        report = dirtbuster.analyze(workload, machine_a())
        patches = report.suggested_patches()
        assert patches.mode("listing1_loop") is PrestoreMode.CLEAN

    def test_report_renders_paper_style(self, dirtbuster):
        workload = Listing1(
            element_size=1024, num_elements=512, iterations=500, compute_per_iter=200
        )
        report = dirtbuster.analyze(workload, machine_a())
        text = report.render()
        assert "Perc. Seq. Writes" in text
        assert "Pre-store choice" in text


class TestCLIs:
    def test_dirtbuster_cli_runs(self, capsys):
        from repro.dirtbuster.cli import main

        assert main(["listing3", "--machine", "a", "--sampling-period", "53"]) == 0
        out = capsys.readouterr().out
        assert "Pre-store choice" in out
        assert "Table 2 row" in out

    def test_dirtbuster_cli_list(self, capsys):
        from repro.dirtbuster.cli import main

        assert main(["--list"]) == 0
        assert "nas-mg" in capsys.readouterr().out

    @pytest.mark.parametrize("period", ["0", "-5", "ten"])
    def test_dirtbuster_cli_rejects_bad_sampling_period(self, capsys, period):
        from repro.dirtbuster.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["clht", "--sampling-period", period])
        assert exc.value.code == 2
        assert "--sampling-period" in capsys.readouterr().err

    def test_dirtbuster_runs_as_module(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "repro.dirtbuster", "--list"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "nas-is" in done.stdout

    def test_experiments_cli_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for eid in ("fig3", "fig13", "table2", "x9"):
            assert eid in out

    def test_experiments_cli_runs_one(self, capsys, tmp_path):
        from repro.experiments.cli import main

        md = tmp_path / "out.md"
        assert main(["table1", "--markdown", str(md)]) == 0
        assert "granularity" in md.read_text()

    def test_experiments_cli_prints_wall_seconds(self, capsys, tmp_path):
        import re

        from repro.experiments.cli import main

        markdowns = []
        for run in range(2):
            md = tmp_path / f"out{run}.md"
            assert main(["table1", "listing3", "--markdown", str(md)]) == 0
            out = capsys.readouterr().out
            timings = re.findall(
                r"^(\w+): (\d+\.\d\d) s"
                r"(?:  accesses fused=(\d+) unrolled=(\d+) single=(\d+)|  peak RSS (\d+\.\d) MiB)$",
                out,
                re.MULTILINE,
            )
            assert [t[0] for t in timings] == ["table1", "listing3", "total"]
            seconds = [float(t[1]) for t in timings]
            # One sweep: each experiment's cells and reduce lie inside the
            # batch's wall clock, give or take 3 roundings.
            assert seconds[0] + seconds[1] <= seconds[2] + 0.02
            # Each experiment line carries its cells' path counts: table1
            # simulates nothing, listing3's stores are single events.
            paths = [tuple(int(n) for n in t[2:5]) for t in timings[:2]]
            assert paths[0] == (0, 0, 0)
            assert paths[1][:2] == (0, 0) and paths[1][2] > 0
            # The total line carries the process's peak RSS instead.
            assert timings[2][2:5] == ("", "", "") and float(timings[2][5]) > 0
            markdowns.append(md.read_text())
        # Timings stay out of the markdown, which is byte-identical.
        assert markdowns[0] == markdowns[1]
        assert not re.search(r"\d s$", markdowns[0], re.MULTILINE)
