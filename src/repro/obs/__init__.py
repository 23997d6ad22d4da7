"""repro.obs — time-resolved telemetry, trace export, and profiling.

The observability subsystem of the reproduction (DESIGN.md §9): a
metrics core (:mod:`repro.obs.metrics`), a ring-buffered time-series
sampler producing :class:`~repro.obs.timeline.Timeline` objects
(:mod:`repro.obs.sampler`), a Chrome-trace/Perfetto exporter
(:mod:`repro.obs.trace`), structured logging + wall-clock span
profiling (:mod:`repro.obs.log`), and the :class:`ObsCollector` facade
gluing them to the simulator's observer list.

Opt in per run by passing a collector as the run's observer, the same
``tracer=`` every observer (DirtBuster tracers, the sanitizer) takes::

    from repro.obs import ObsCollector
    collector = ObsCollector(profile=True)
    result = workload.run(spec, tracer=collector)
    result.run.timeline.summary()
    collector.write_trace("out.trace.json")

``python -m repro.obs run --workload listing1 --trace out.trace.json``
does the same from the command line.

Only the dependency-free modules are imported eagerly here — the
collector pulls in the simulator, which itself imports
:mod:`repro.obs.timeline` (for ``RunResult.timeline``), so loading it at
package-import time would cycle.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timeline import Timeline, TimelineSample
from repro.obs.log import (
    SpanProfiler,
    SpanStats,
    basic_config,
    get_logger,
    run_context,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timeline",
    "TimelineSample",
    "SpanProfiler",
    "SpanStats",
    "basic_config",
    "get_logger",
    "run_context",
    "ObsCollector",
    "TimelineSampler",
    "TraceBuilder",
]

_LAZY = {
    "ObsCollector": ("repro.obs.collector", "ObsCollector"),
    "TimelineSampler": ("repro.obs.sampler", "TimelineSampler"),
    "TraceBuilder": ("repro.obs.trace", "TraceBuilder"),
}


def __getattr__(name: str):
    """Lazy exports that depend on the simulator (avoids import cycles)."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
