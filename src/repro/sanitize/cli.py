"""``python -m repro.sanitize`` — lint workload sources, sanitize runs.

Targets are Python files or directories.  Every ``.py`` target gets the
static AST pass; a *file* target additionally gets the dynamic passes
when it exposes a ``build_program(spec) -> Program`` hook (the shape
``examples/quickstart.py`` demonstrates) — the program is run on the
selected machine with the race detector and pre-store lint attached.

``--self`` lints this repository's own workload tree (``src/repro/
workloads`` and ``examples``), runs the fast :mod:`repro.crashcheck`
self-check, and, when the optional ``ruff``/``mypy`` toolchain is
installed, runs those too — the single ``make lint`` entry point.

Exit codes: 0 clean, 1 error-severity diagnostics, 2 missing target,
3 a pass itself failed to run (import or simulation raised) — a raising
pass is never reported as "clean".
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
from typing import Callable, List, Optional, Sequence

from repro.errors import Diagnostic
from repro.sanitize.report import render_report
from repro.sanitize.runner import sanitize
from repro.sim.machine import PRESETS, MachineSpec
from repro.workloads.registry import add_run_options

__all__ = ["main"]


def _load_build_program(path: str) -> Optional[Callable[[MachineSpec], object]]:
    """Import ``path`` as a module and return its ``build_program`` hook."""
    name = "_repro_sanitize_target_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib edge
        return None
    module = importlib.util.module_from_spec(spec)
    # Registered so dataclasses/pickle inside the target resolve the module.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    hook = getattr(module, "build_program", None)
    return hook if callable(hook) else None


def _repo_root() -> str:
    # src/repro/sanitize/cli.py -> repository root three levels up from repro.
    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))


def _self_paths() -> List[str]:
    root = _repo_root()
    candidates = [
        os.path.join(root, "src", "repro", "workloads"),
        os.path.join(root, "examples"),
    ]
    return [path for path in candidates if os.path.exists(path)]


def _run_optional_tool(module: str, argv: Sequence[str]) -> Optional[int]:
    """Run ruff/mypy if importable; None means not installed (skipped)."""
    if importlib.util.find_spec(module) is None:
        return None
    completed = subprocess.run([sys.executable, "-m", module, *argv], cwd=_repo_root())
    return completed.returncode


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="memory-consistency sanitizer + pre-store misuse detector + workload lint",
    )
    parser.add_argument("targets", nargs="*", help="workload .py files or directories to check")
    parser.add_argument(
        "--self",
        dest="self_check",
        action="store_true",
        help="lint this repository's workloads/examples (plus ruff/mypy when installed)",
    )
    # The dynamic passes default to b-fast, the weak memory model.
    add_run_options(parser, "--machine", machine="b-fast")
    parser.add_argument(
        "--static-only",
        action="store_true",
        help="skip the dynamic passes even when a target has build_program()",
    )
    args = parser.parse_args(argv)

    targets = list(args.targets)
    exit_code = 0
    if args.self_check:
        targets.extend(_self_paths())
        # The crashcheck self-check rides along: the static verifier and
        # its dynamic differential are part of the repository's own lint.
        from repro.crashcheck.cli import run_self_check

        print("crashcheck self-check (fast):")
        crashcheck_code = run_self_check(fast=True, seed=args.seed)
        exit_code = max(exit_code, crashcheck_code)
        for tool, tool_args in (
            ("ruff", ["check", "src", "tests", "examples"]),
            ("mypy", ["src/repro/sanitize", "src/repro/crashcheck"]),
        ):
            returncode = _run_optional_tool(tool, tool_args)
            if returncode is None:
                print(f"{tool}: not installed — skipped")
            else:
                print(f"{tool}: exit {returncode}")
                exit_code = max(exit_code, returncode)
    if not targets:
        parser.error("no targets (pass files/directories or --self)")

    spec_factory = PRESETS[args.machine]
    diagnostics: List[Diagnostic] = []
    for target in targets:
        if os.path.isdir(target):
            diagnostics.extend(sanitize(paths=[target]))
            continue
        if not os.path.exists(target):
            print(f"error: no such file: {target}", file=sys.stderr)
            exit_code = max(exit_code, 2)
            continue
        build_program = None
        if not args.static_only:
            try:
                build_program = _load_build_program(target)
            except SyntaxError:
                pass  # the static pass reports static.syntax-error itself
            except Exception as exc:
                # A target whose import explodes was NOT checked by the
                # dynamic passes: distinct exit code, never "clean".
                print(f"{target}: import failed ({exc}); static pass only", file=sys.stderr)
                exit_code = max(exit_code, 3)
        if build_program is not None:
            print(f"{target}: static + dynamic passes ({spec_factory().name})")
            try:
                diagnostics.extend(
                    sanitize(build_program, spec_factory(), paths=[target], seed=args.seed)
                )
            except Exception as exc:
                print(f"{target}: dynamic pass raised ({exc})", file=sys.stderr)
                exit_code = max(exit_code, 3)
                diagnostics.extend(sanitize(paths=[target]))
        else:
            diagnostics.extend(sanitize(paths=[target]))

    print()
    print(render_report(diagnostics))
    if any(d.severity == "error" for d in diagnostics):
        exit_code = max(exit_code, 1)
    return exit_code
