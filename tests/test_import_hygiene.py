"""The simulator's runtime needs only the standard library.

A fresh interpreter imports every experiment's module, fingerprints the
code and runs one experiment whose simulations end in the dirty-line
drain; every module that appears in ``sys.modules`` along the way must
be ``repro``'s own or the standard library's.  Modules ``site`` loads at
start-up (a ``.pth`` file's imports, say) come before the snapshot and
do not count.
The check is by location rather than ``sys.stdlib_module_names``, which
Python 3.9 lacks: built-in and frozen modules pass, and so does a module
whose file lies under the interpreter's stdlib directory but outside its
``site-packages``.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = textwrap.dedent(
    """
    import json, os, sys, sysconfig
    before = set(sys.modules)
    loaded = {id(m) for m in sys.modules.values()}

    import repro.experiments
    import repro.runner
    from repro.experiments import all_ids, get

    for eid in all_ids():  # each experiment's module loads on first use
        get(eid)
    repro.runner.code_fingerprint()
    get("listing3").run_checked(fast=True, seed=1234)

    def real(path):
        return os.path.join(os.path.realpath(path), "")

    paths = sysconfig.get_paths()
    stdlib = {real(paths[k]) for k in ("stdlib", "platstdlib")}
    site = {real(paths[k]) for k in ("purelib", "platlib")}

    def in_stdlib(path):
        path = os.path.realpath(path)
        return any(path.startswith(d) for d in stdlib) and not any(
            path.startswith(d) for d in site
        )

    foreign = {}  # top-level package -> where its first module came from
    for name in sorted(set(sys.modules) - before):
        module = sys.modules[name]
        if module is None or id(module) in loaded:
            continue  # a blocked import, or an alias such as __mp_main__
        if name == "repro" or name.startswith("repro."):
            continue
        spec = getattr(module, "__spec__", None)
        if spec is not None and spec.origin in ("built-in", "frozen"):
            continue
        where = getattr(module, "__file__", None)
        locations = [where] if where else list(getattr(module, "__path__", []))
        if locations and all(in_stdlib(p) for p in locations):
            continue
        foreign.setdefault(name.partition(".")[0], where or locations)
    print(json.dumps(foreign))
    """
)


def test_repro_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    foreign = json.loads(proc.stdout.strip().splitlines()[-1])
    assert foreign == {}, (
        "importing and running repro pulled in modules from outside the standard "
        "library (the simulator must not import numpy or any other third-party "
        f"package): {foreign}"
    )
