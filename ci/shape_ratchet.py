"""Compare the experiments whose shape check fails with a committed list.

    python ci/shape_ratchet.py RESULTS.md EXPECTED.txt

RESULTS.md is ``prestores-experiments --all --markdown`` output.  An
experiment fails when its section carries a ``SHAPE CHECK FAILED`` note.
EXPECTED.txt lists the failing ids, one per line (``#`` starts a
comment).  The two sets must match exactly: a new failure fails the
ratchet, and so does a listed failure that now passes, so the list can
only shrink.  Every registered experiment must have a section.  Exit 0
when they match, 1 when they do not.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Set

from repro.experiments import all_ids

FAILED = "- SHAPE CHECK FAILED"


def sections(markdown: str) -> Dict[str, List[str]]:
    """Each ``## <id>: <title>`` section's lines, keyed by id."""
    found: Dict[str, List[str]] = {}
    lines: Optional[List[str]] = None
    for line in markdown.splitlines():
        if line.startswith("## "):
            lines = found.setdefault(line[3:].partition(":")[0], [])
        elif lines is not None:
            lines.append(line)
    return found


def listed(text: str) -> Set[str]:
    return {line.partition("#")[0].strip() for line in text.splitlines()} - {""}


def compare(markdown: str, expected: Set[str]) -> List[str]:
    """Human-readable problems; empty when the ratchet holds."""
    found = sections(markdown)
    problems = [f"{eid}: no section in the results" for eid in all_ids() if eid not in found]
    failing = {eid for eid, lines in found.items() if any(ln.startswith(FAILED) for ln in lines)}
    problems += [f"{eid}: new SHAPE CHECK FAILED" for eid in sorted(failing - expected)]
    problems += [
        f"{eid}: listed as failing but passes now; remove it from the list"
        for eid in sorted(expected - failing)
    ]
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python ci/shape_ratchet.py RESULTS.md EXPECTED.txt", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        markdown = fh.read()
    with open(argv[1]) as fh:
        expected = listed(fh.read())
    problems = compare(markdown, expected)
    for problem in problems:
        print(f"shape ratchet: {problem}")
    if not problems:
        print(f"shape ratchet: failing checks match {argv[1]}: {sorted(expected)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
