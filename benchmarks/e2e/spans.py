"""Outside-in span recorder for the traced pass.

The recorder wraps each layer's public callables at the names their
callers resolve (a module attribute or a class attribute), so no file
under ``src/`` carries tracing code.  Spans stay in memory — name,
start, end, parent, request id (``workload/experiment``) and a few
counts — and are written to JSONL once the pass ends.  A span's self
time is its duration minus its direct children's durations, as in
:class:`repro.obs.log.SpanProfiler`.  :meth:`SpanRecorder.restore` puts
every original callable back.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "self_times",
    "wrapper_cost_s",
    "layer_metrics",
    "install_layer_probes",
    "LAYER_METRICS",
]

#: ``counts(args, kwargs, result) -> {count name: value}``, run after the
#: wrapped call returns, outside its span.
Counter = Callable[[tuple, dict, object], Dict[str, float]]

_MISSING = object()


@dataclass
class Span:
    """One call through a layer boundary."""

    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in :attr:`SpanRecorder.spans`.
    parent: Optional[int] = None
    request: str = ""
    counts: Dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Collects nested spans from one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Request id stamped on new spans (the harness sets it per experiment).
        self.request = ""
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as one span."""
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, start=0.0, parent=parent, request=self.request)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str, counts: Optional[Counter] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class; functions, methods inherited from
        a base class, and classmethods are all handled.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        target = static.__func__ if is_classmethod else static

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = target(*args, **kwargs)
            if counts is not None:
                record.counts.update(counts(args, kwargs, result))
            return result

        self._originals.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def restore(self) -> None:
        """Put back every wrapped callable, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(record)}, sort_keys=True) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    One thread records the spans on a stack, so a child always lies
    inside its parent and siblings never overlap.
    """
    own = [record.end - record.start for record in spans]
    for record in spans:
        if record.parent is not None:
            own[record.parent] -= record.end - record.start
    return own


def wrapper_cost_s() -> float:
    """Seconds a span-recording wrapper adds to one call, timed on a no-op.

    The best of five loops of 10 000 calls, wrapped and bare, so that a
    slow moment of the host does not read as tracing cost.
    """
    calls, repeats = 10_000, 5
    box = types.SimpleNamespace(noop=lambda: None)

    def loop() -> float:
        call = box.noop
        started = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - started

    bare = min(loop() for _ in range(repeats))
    recorder = SpanRecorder()
    recorder.wrap(box, "noop", "calibration")
    wrapped = []
    for _ in range(repeats):
        wrapped.append(loop())
        recorder.spans.clear()
    recorder.restore()
    return max(0.0, (min(wrapped) - bare) / calls)


#: Per-layer metric -> (span names it sums, what it sums: "self" time,
#: "count" of spans, or the name of a count the spans carry).
LAYER_METRICS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "experiments.self_s": (("experiments.run",), "self"),
    "experiments.check_s": (("experiments.check",), "self"),
    "runner.self_s": (("runner.execute_cells",), "self"),
    "runner.cache_s": (("runner.cache",), "self"),
    "runner.serialize_s": (("runner.serialize",), "self"),
    "runner.cells": (("runner.execute_cells",), "cells"),
    "runner.cache_hits": (("runner.execute_cells",), "cache_hits"),
    "runner.cells_failed": (("runner.execute_cells",), "cells_failed"),
    "workloads.self_s": (("workloads.run",), "self"),
    "workloads.runs": (("workloads.run",), "count"),
    "sim.self_s": (("sim.run",), "self"),
    "sim.drain_s": (("sim.drain",), "self"),
    "sim.runs": (("sim.run",), "count"),
    "sim.instructions": (("sim.run",), "instructions"),
    "sim.events": (("sim.run",), "events"),
    "model.cycles": (("sim.run",), "cycles"),
    "model.l1_misses": (("sim.run",), "l1_misses"),
    "model.llc_misses": (("sim.run",), "llc_misses"),
    "model.stall_cycles": (("sim.run",), "stall_cycles"),
    "model.device_bytes_read": (("sim.run",), "device_bytes_read"),
    "model.media_bytes_written": (("sim.run",), "media_bytes_written"),
    "dirtbuster.self_s": (("dirtbuster.analyze", "dirtbuster.instrument"), "self"),
    "dirtbuster.sample_self_s": (("dirtbuster.sample",), "self"),
    "dirtbuster.feed_s": (("dirtbuster.feed",), "self"),
    "dirtbuster.records": (("dirtbuster.feed",), "records"),
    "dirtbuster.recommend_s": (("dirtbuster.recommend",), "self"),
    "dirtbuster.functions": (("dirtbuster.analyze",), "functions"),
    "traffic.compile_s": (("traffic.compile",), "self"),
    "traffic.ops": (("traffic.compile",), "ops"),
    "faults.self_s": (("faults.run",), "self"),
    "faults.runs": (("faults.run",), "count"),
}


def _ratio(numerator: float, denominator: float) -> float:
    # JSON has no NaN: a layer that did no work reports 0.
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, from its spans."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for metric, (names, what) in LAYER_METRICS.items():
        picked = [i for i, record in enumerate(spans) if record.name in names]
        if what == "self":
            out[metric] = sum(own[i] for i in picked)
        elif what == "count":
            out[metric] = len(picked)
        else:
            out[metric] = sum(spans[i].counts.get(what, 0) for i in picked)
    received = sum(s.counts.get("device_bytes_received", 0) for s in spans if s.name == "sim.run")
    out["model.write_amplification"] = _ratio(out["model.media_bytes_written"], received)
    out["sim.events_per_s"] = _ratio(out["sim.events"], out["sim.self_s"])
    out["dirtbuster.feed_us_per_record"] = _ratio(
        1e6 * out["dirtbuster.feed_s"], out["dirtbuster.records"]
    )
    return out


# -- the layer boundaries -------------------------------------------------------


def _cell_counts(args: tuple, kwargs: dict, outcomes: object) -> Dict[str, float]:
    return {
        "cells": len(outcomes),
        "cache_hits": sum(1 for o in outcomes if o.cached),
        "cells_failed": sum(1 for o in outcomes if o.status not in ("ok", "cached")),
    }


def _sim_counts(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    cores = result.cores
    misses = list(result.cache_misses.values())  # hierarchy order: L1 first, LLC last
    return {
        "instructions": result.instructions,
        "events": sum(c.reads + c.writes + c.fences + c.atomics + c.prestores for c in cores),
        "cycles": result.cycles,
        "l1_misses": misses[0],
        "llc_misses": misses[-1],
        "stall_cycles": sum(
            c.fence_stall_cycles + c.backpressure_stall_cycles + c.store_buffer_stall_cycles
            for c in cores
        ),
        "device_bytes_read": result.device_bytes_read,
        "media_bytes_written": result.device_media_bytes_written,
        "device_bytes_received": result.device_bytes_received,
    }


def install_layer_probes(recorder: SpanRecorder, experiment_classes: Iterable[type]) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Each callable is patched where its callers look it up: the
    experiments import ``execute_cells`` from :mod:`repro.runner` at call
    time, the serving workload calls the ``compile_schedule`` it imported
    into :mod:`repro.traffic.serving`, and the runner imports
    ``run_with_faults`` from :mod:`repro.faults.harness` at call time.
    """
    import repro.faults.harness
    import repro.runner
    import repro.traffic.serving
    from repro.dirtbuster.instrument import Instrumenter
    from repro.dirtbuster.recommend import Recommender
    from repro.dirtbuster.runner import DirtBuster
    from repro.runner.cache import ResultCache
    from repro.sim.machine import Machine
    from repro.sim.stats import RunResult
    from repro.workloads.base import Workload
    from repro.workloads.memapi import Program

    wrap = recorder.wrap
    for cls in experiment_classes:
        wrap(cls, "check", "experiments.check")
    wrap(repro.runner, "execute_cells", "runner.execute_cells", _cell_counts)
    wrap(ResultCache, "load", "runner.cache")
    wrap(ResultCache, "store", "runner.cache")
    wrap(RunResult, "to_json", "runner.serialize")
    wrap(RunResult, "from_json", "runner.serialize")
    wrap(Workload, "run", "workloads.run")
    wrap(Program, "run", "sim.run", _sim_counts)
    wrap(Machine, "finish", "sim.drain")
    wrap(
        DirtBuster,
        "analyze",
        "dirtbuster.analyze",
        lambda a, k, report: {"functions": len(report.instrumented_functions)},
    )
    wrap(DirtBuster, "sample", "dirtbuster.sample")
    wrap(DirtBuster, "instrument", "dirtbuster.instrument")
    wrap(Instrumenter, "feed", "dirtbuster.feed", lambda a, k, r: {"records": len(a[1])})
    wrap(Recommender, "recommend_all", "dirtbuster.recommend")
    wrap(
        repro.traffic.serving,
        "compile_schedule",
        "traffic.compile",
        lambda a, k, schedule: {"ops": sum(len(ops) for ops in schedule)},
    )
    wrap(repro.faults.harness, "run_with_faults", "faults.run")
