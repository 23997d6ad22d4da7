"""One workload registry and one set of run options across the CLIs.

Every tool that names a workload looks it up through
``repro.workloads.registry.build_run``: an unknown name is the same
one-line usage error (exit 2) everywhere, each tool accepts every
registered workload it can run, and the crash tools take only the
workloads that keep a durability log.  The acceptance checks stop at the
builder, so no workload is simulated.
"""

import importlib

import pytest

from repro.core.prestore import PatchConfig, PrestoreMode
from repro.errors import WorkloadError
from repro.sim.machine import PRESETS
from repro.sim.stats import RunResult
from repro.workloads import registry
from repro.workloads.registry import WORKLOAD_FACTORIES, logged_workloads, make_workload

#: (CLI module, argv before the workload name, needs a durability log)
CLIS = [
    pytest.param(module, argv, logged, id=f"{module.split('.')[1]}:{' '.join(argv)}")
    for module, argv, logged in [
        ("repro.dirtbuster.cli", [], False),
        ("repro.obs.cli", ["run", "--workload"], False),
        ("repro.faults.cli", ["run", "--workload"], False),
        ("repro.faults.cli", ["run", "--crash-frac", "0.5", "--workload"], True),
        ("repro.crashcheck.cli", ["report", "--workload"], True),
        ("repro.crashcheck.cli", ["crossval", "--workload"], True),
    ]
]


class _Built(Exception):
    """Raised by the spied builder once it has built the run."""


def _usage_error(main, argv, capsys) -> str:
    """Run ``main(argv)``, which must exit 2 with one error line; return its message."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if ": error: " in line]
    assert len(errors) == 1, err
    return errors[0].split(": error: ", 1)[1]


@pytest.mark.parametrize("module, argv, logged", CLIS)
def test_unknown_workload_is_the_same_usage_error(module, argv, logged, capsys):
    with pytest.raises(WorkloadError) as unknown:
        make_workload("no-such-workload")
    main = importlib.import_module(module).main
    assert _usage_error(main, argv + ["no-such-workload"], capsys) == str(unknown.value)


@pytest.mark.parametrize("module, argv, logged", CLIS)
def test_every_runnable_workload_is_accepted(module, argv, logged, monkeypatch):
    cli = importlib.import_module(module)
    built = []

    def spy(*args, **kwargs):
        workload, spec, patches, seed = registry.build_run(*args, **kwargs)
        built.append(workload.name)
        raise _Built

    monkeypatch.setattr(cli, "build_run", spy)
    names = logged_workloads() if logged else sorted(WORKLOAD_FACTORIES)
    for name in names:
        with pytest.raises(_Built):
            cli.main(argv + [name])
    assert built == names


@pytest.mark.parametrize("module, argv, logged", [c for c in CLIS if c.values[2]])
def test_logged_only_tools_reject_clht(module, argv, logged, capsys):
    main = importlib.import_module(module).main
    message = _usage_error(main, argv + ["clht"], capsys)
    assert message == (
        "workload 'clht' keeps no durability log; "
        "this command takes one of ['kvpersist', 'logappend']"
    )


def test_obs_run_simulates_the_presets_spec(tmp_path):
    # The run seed seeds the run, not the machine: obs's cycles equal a
    # plain run on the preset's default spec (spec seed 42).
    from repro.obs.cli import main

    path = tmp_path / "result.json"
    assert main(["run", "--workload", "listing1", "--seed", "7", "--json", str(path)]) == 0
    workload = make_workload("listing1")
    patches = PatchConfig.uniform(PrestoreMode.NONE, workload.patch_sites())
    expected = workload.run(PRESETS["a"](), patches, seed=7).run.cycles
    assert RunResult.from_json(path.read_text()).cycles == expected
