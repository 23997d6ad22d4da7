"""Structured logging and wall-clock span profiling.

Two concerns live here because they share the run/experiment context:

* **Logging** — :func:`get_logger` returns stdlib loggers under the
  ``repro.obs`` namespace whose records carry ``run_id`` and
  ``experiment_id`` fields, set with the :func:`run_context` context
  manager.  Handlers are the caller's business (a ``NullHandler`` is
  installed so an unconfigured library stays silent);
  :func:`basic_config` wires a stderr handler with the structured
  format for CLIs.

* **Span profiling** — :class:`SpanProfiler` measures *real wall-clock*
  time (``perf_counter``) spent in named phases, with self-time
  accounting: a parent span's self time excludes its children.  This is
  how we see where the *Python* time goes inside the simulator's hot
  loops (event dispatch, cache lookup, store-buffer drain) before
  optimising any of them.  :meth:`SpanProfiler.wrap` instruments a
  bound method on an *instance* — the class stays untouched, so
  profiling one machine never slows down another.

The simulator is single-threaded, so the context is a module-level
dict and the span stack is a plain list; no thread-local machinery.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "run_context",
    "current_context",
    "get_logger",
    "basic_config",
    "SpanStats",
    "SpanProfiler",
]

_LOG_ROOT = "repro.obs"

#: Ambient identifiers stamped onto every log record.  ``worker`` is the
#: executing process tag (``pid<N>``) set by :mod:`repro.runner` so
#: fan-in logs from a pool attribute each record to its process.
_context: Dict[str, Optional[str]] = {"run_id": None, "experiment_id": None, "worker": None}


@contextmanager
def run_context(
    run_id: Optional[str] = None,
    experiment_id: Optional[str] = None,
    worker: Optional[str] = None,
) -> Iterator[None]:
    """Set the ambient run/experiment/worker ids for logs emitted inside."""
    previous = dict(_context)
    if run_id is not None:
        _context["run_id"] = run_id
    if experiment_id is not None:
        _context["experiment_id"] = experiment_id
    if worker is not None:
        _context["worker"] = worker
    try:
        yield
    finally:
        _context.update(previous)


def current_context() -> Dict[str, Optional[str]]:
    """A copy of the ambient context (for tests and custom handlers)."""
    return dict(_context)


class _ContextFilter(logging.Filter):
    """Injects the ambient run/experiment ids into every record."""

    def filter(self, record: logging.LogRecord) -> bool:
        record.run_id = _context["run_id"] or "-"
        record.experiment_id = _context["experiment_id"] or "-"
        record.worker = _context["worker"] or "-"
        return True


_FORMAT = (
    "%(levelname)s %(name)s run=%(run_id)s exp=%(experiment_id)s w=%(worker)s %(message)s"
)


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro.obs`` namespace with context injection."""
    logger = logging.getLogger(f"{_LOG_ROOT}.{name}" if name else _LOG_ROOT)
    if not any(isinstance(f, _ContextFilter) for f in logger.filters):
        logger.addFilter(_ContextFilter())
    root = logging.getLogger(_LOG_ROOT)
    if not root.handlers:
        root.addHandler(logging.NullHandler())
    return logger


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    A plain ``StreamHandler()`` keeps the ``sys.stderr`` object of the
    moment it was built.  A CLI ``main`` run in-process (by a test, under
    a capture that is later closed) would leave it writing to a closed
    stream.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def basic_config(level: int = logging.INFO) -> None:
    """Attach a stderr handler with the structured format (CLI use)."""
    root = logging.getLogger(_LOG_ROOT)
    root.setLevel(level)
    for handler in root.handlers:
        if isinstance(handler, logging.StreamHandler) and not isinstance(
            handler, logging.NullHandler
        ):
            return
    handler = _StderrHandler()
    handler.setFormatter(logging.Formatter(_FORMAT))
    root.addHandler(handler)


# -- span profiling -----------------------------------------------------------


@dataclass
class SpanStats:
    """Accumulated wall-clock time for one named phase."""

    name: str
    count: int = 0
    #: Inclusive seconds (children included).
    total_s: float = 0.0
    #: Exclusive seconds (children subtracted).
    self_s: float = 0.0

    def merge_exit(self, elapsed: float, child_time: float) -> None:
        self.count += 1
        self.total_s += elapsed
        self.self_s += elapsed - child_time


@dataclass
class _Frame:
    name: str
    start: float
    child_s: float = 0.0


class SpanProfiler:
    """Nesting-aware wall-clock phase timers.

    Use :meth:`span` around code regions, or :meth:`wrap` to instrument
    a method on one object instance.  ``stats()`` reports per-phase
    call counts, inclusive time, and self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[_Frame] = []
        self._stats: Dict[str, SpanStats] = {}
        self._wrapped: List[tuple] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = _Frame(name, self._clock())
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            elapsed = self._clock() - frame.start
            stats = self._stats.get(name)
            if stats is None:
                stats = self._stats[name] = SpanStats(name)
            stats.merge_exit(elapsed, frame.child_s)
            if self._stack:
                self._stack[-1].child_s += elapsed

    def wrap(self, obj: object, attr: str, name: Optional[str] = None) -> None:
        """Time every call of ``obj.attr`` under ``name`` (instance-local)."""
        bound = getattr(obj, attr)
        span_name = name or f"{type(obj).__name__}.{attr}"
        profiler = self

        def timed(*args: object, **kwargs: object) -> object:
            with profiler.span(span_name):
                return bound(*args, **kwargs)

        timed.__wrapped__ = bound  # type: ignore[attr-defined]
        self._wrapped.append((obj, attr, vars(obj).get(attr)))
        setattr(obj, attr, timed)

    def unwrap_all(self) -> None:
        """Restore every method instrumented via :meth:`wrap`.

        A method the instance did not override before goes back to its
        class: pinning the bound method on the instance would make the
        object refer to itself.
        """
        for obj, attr, original in reversed(self._wrapped):
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._wrapped.clear()

    def stats(self) -> Dict[str, SpanStats]:
        return dict(self._stats)

    def report(self) -> str:
        """Phases sorted by self time, aligned for terminals."""
        rows = sorted(self._stats.values(), key=lambda s: s.self_s, reverse=True)
        if not rows:
            return "(no spans recorded)"
        lines = [f"{'phase':32s} {'calls':>9s} {'total_ms':>10s} {'self_ms':>10s}"]
        for s in rows:
            lines.append(
                f"{s.name:32s} {s.count:9d} {1e3 * s.total_s:10.2f} {1e3 * s.self_s:10.2f}"
            )
        return "\n".join(lines)
