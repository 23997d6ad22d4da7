"""The experiment registry imports each experiment's module on first use.

``import repro.experiments`` loads only the registry; ``registry._HOMES``
names every experiment's home module, ``get`` imports it, and
``all_ids`` reads the table.  Each check runs in a fresh interpreter, so
no module another test imported can hide an eager import.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Packages only some experiments need; none may load with the registry.
EXPERIMENT_ONLY = (
    "repro.dirtbuster",
    "repro.faults",
    "repro.traffic",
    "repro.workloads.nas",
    "repro.workloads.kv",
    "repro.workloads.tensorflow_sim",
)

#: ``prestores-experiments --list`` as it printed while every module was
#: imported with the package.
LISTING = """\
abl-combiner Ablation: device write-combiner capacity vs amplification
abl-granularity Ablation: device internal granularity vs the value of cleaning
abl-replacement Ablation: replacement policy vs write amplification
abl-ycsb-mixes Ablation: pre-stores across YCSB mixes A-D (Machine A)
faults-window Crash-vulnerable window: acked KV data lost at a power failure (Machine A)
fig10      CLHT under YCSB-A: requests/s vs value size (Machine A)
fig11      Masstree under YCSB-A: requests/s vs value size (Machine A)
fig12      CLHT under YCSB-A: write amplification (Machine A)
fig13      CLHT on Machine B-fast / B-slow, 1KB values
fig14      Masstree on Machine B-fast / B-slow, 1KB values
fig3       Listing 1: clean pre-store vs element size and threads (Machine A)
fig5       Listing 2: demote before a fence vs interposed reads (Machine B)
fig7       TensorFlow: clean vs skip over batch size (Machine A)
fig8       TensorFlow: write amplification with and without cleaning
fig9       NAS benchmarks: normalized runtime with clean pre-stores (Machine A)
listing3   Listing 3: cleaning a hot line (the anti-pattern, Machine A)
sec741     DirtBuster-suggested pre-stores on Machine B: overhead only
sec742     Incorrect manual pre-stores DirtBuster declined (Machine A)
serve      KV serving under live traffic: tail latency vs. durability (Machine A)
table1     Device internal granularities (Table 1)
table2     DirtBuster classification of all evaluated applications (Table 2)
x9         X9: message latency with demoted messages (Machine B)
"""


def _fresh(code: str):
    """Run ``code`` in a new interpreter; returns its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_package_loads_no_experiment():
    loaded = _fresh(
        """
        import inspect, json, sys
        import repro.experiments
        import repro.runner
        from repro.runner import code_fingerprint

        code_fingerprint()
        static = inspect.getattr_static(repro.runner, "execute_cells", None)
        print(json.dumps({
            "modules": sorted(sys.modules),
            "execute_cells_bound": static is repro.runner.pool.execute_cells,
        }))
        """
    )
    modules = loaded["modules"]
    from repro.experiments import registry

    homes = {registry._home_module(eid) for eid in registry._HOMES}
    assert not homes & set(modules)
    for package in EXPERIMENT_ONLY:
        assert not [m for m in modules if m == package or m.startswith(package + ".")], package
    # A serial process does not need the process pool.
    assert "concurrent.futures.process" not in modules
    assert "multiprocessing" not in modules
    # The simulator still loads at set-up, and execute_cells stays a
    # plain attribute that a static lookup can find and wrap.
    assert "repro.sim.machine" in modules
    assert loaded["execute_cells_bound"]


def test_every_home_module_registers_exactly_its_listed_ids():
    found = _fresh(
        """
        import importlib, json
        from repro.experiments import registry

        for module in sorted(set(registry._HOMES.values())):
            importlib.import_module("repro.experiments." + module)
        print(json.dumps({eid: cls.__module__ for eid, cls in registry._REGISTRY.items()}))
        """
    )
    from repro.experiments import registry

    assert found == {eid: registry._home_module(eid) for eid in registry._HOMES}


def test_get_imports_each_experiment_on_first_use():
    got = _fresh(
        """
        import json, sys
        from repro.experiments import all_ids, get, registry

        out = {}
        for eid in all_ids():
            home = registry._home_module(eid)
            was_loaded = home in sys.modules
            experiment = get(eid)
            out[eid] = [experiment.id, type(experiment).__module__, was_loaded]
        print(json.dumps(out))
        """
    )
    from repro.experiments import registry

    assert sorted(got) == sorted(registry._HOMES)
    for eid, (experiment_id, module, was_loaded) in got.items():
        assert experiment_id == eid and module == registry._home_module(eid)
        # Only an experiment sharing its module with an earlier id finds
        # the module already loaded.
        earlier = {registry._HOMES[e] for e in sorted(got) if e < eid}
        assert was_loaded == (registry._HOMES[eid] in earlier), eid


def test_cli_list_prints_every_experiment_and_its_title():
    listing = _fresh(
        """
        import contextlib, io, json
        from repro.experiments.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["--list"]) == 0
        print(json.dumps(out.getvalue()))
        """
    )
    assert listing == LISTING
