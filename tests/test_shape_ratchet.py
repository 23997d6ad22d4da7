"""The CI shape-check ratchet (``ci/shape_ratchet.py``) on made-up results."""

import importlib.util
import os

import pytest

from repro.experiments import all_ids

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(_ROOT, "ci", "shape_ratchet.py")
_spec = importlib.util.spec_from_file_location("shape_ratchet", _PATH)
ratchet = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ratchet)


def _markdown(failing, skip=()):
    lines = ["# Experiment results", ""]
    for eid in all_ids():
        if eid in skip:
            continue
        lines += [f"## {eid}: title", "", "*Paper claim:* c", "", "```", "rows", "```"]
        lines.append("- note: fine")
        if eid in failing:
            lines.append("- SHAPE CHECK FAILED: too slow")
        lines.append("")
    return "\n".join(lines)


def test_matching_sets_pass():
    assert ratchet.compare(_markdown({"fig13", "table2"}), {"fig13", "table2"}) == []


@pytest.mark.parametrize(
    "failing, expected, problem",
    [
        ({"fig13", "fig5"}, {"fig13"}, "fig5: new SHAPE CHECK FAILED"),
        ({"fig13"}, {"fig13", "table2"}, "table2: listed as failing but passes now"),
    ],
)
def test_any_difference_fails(failing, expected, problem):
    problems = ratchet.compare(_markdown(failing), expected)
    assert len(problems) == 1 and problems[0].startswith(problem)


def test_a_missing_section_fails():
    assert ratchet.compare(_markdown(set(), skip={"x9"}), set()) == [
        "x9: no section in the results"
    ]


def test_list_file_ignores_comments_and_blank_lines():
    assert ratchet.listed("# fast mode\nfig13\n\ntable2  # nas-ft\n") == {"fig13", "table2"}


def test_main_exit_status(tmp_path):
    results = tmp_path / "all.md"
    results.write_text(_markdown({"fig14"}))
    expected = tmp_path / "expected.txt"
    expected.write_text("fig14\n")
    assert ratchet.main([str(results), str(expected)]) == 0
    expected.write_text("")
    assert ratchet.main([str(results), str(expected)]) == 1
    assert ratchet.main([str(results)]) == 2
