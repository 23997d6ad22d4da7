"""repro.sanitize — checkers for the sharp edges pre-stores introduce.

Three passes over workload code, sharing one :class:`~repro.errors.
Diagnostic` vocabulary and one report format:

* :class:`RaceDetector` (``races``) — FastTrack-style vector-clock
  happens-before detection plus *visibility races*: reads observing data
  still parked in another core's weak-model store buffer (the Machine B
  bug class of Section 4.2).
* :class:`PrestoreLint` (``prestore_lint``) — replays the run against
  DirtBuster's distance machinery to flag pre-store misuse: clean/skip on
  hot-rewrite lines (the Listing 3 / fftz2 pathology), demotes already
  covered by a fence, non-temporal stores whose data is promptly re-read,
  and pre-stores of never-written regions.
* :class:`StaticSanitizer` (``static``) — a true AST pass over workload
  source: dropped events, missing ``yield from``, stores outside
  ``with t.function(...)`` provenance, raw address arithmetic.

Attach the dynamic passes by passing a :class:`Sanitizer` as a run's
observer — ``Program(spec, tracer=Sanitizer())`` /
``Workload.run(spec, tracer=Sanitizer())`` — and read the findings on
``RunResult.diagnostics``; orchestrate everything with :func:`sanitize`,
or run ``python -m repro.sanitize`` from the shell.
"""

from repro.errors import Diagnostic, SanitizerError
from repro.sanitize.prestore_lint import PrestoreLint
from repro.sanitize.races import RaceDetector
from repro.sanitize.report import render_diagnostic, render_report, summary_line
from repro.sanitize.runner import Sanitizer, sanitize
from repro.sanitize.static import StaticSanitizer, static_check

__all__ = [
    "Diagnostic",
    "PrestoreLint",
    "RaceDetector",
    "Sanitizer",
    "SanitizerError",
    "StaticSanitizer",
    "render_diagnostic",
    "render_report",
    "sanitize",
    "static_check",
    "summary_line",
]
