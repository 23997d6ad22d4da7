"""Low-overhead metrics primitives: counters, gauges, histograms.

The serving-stack half of :mod:`repro.obs`: named instruments collected
in a :class:`MetricsRegistry`.  Everything here is plain attribute
arithmetic — no locks, no callbacks, no string formatting on the hot
path — so a collector can increment per-event counters without moving
the simulator's wall-clock needle, and the whole subsystem costs nothing
when no collector is attached (the machine then dispatches to an empty
observer tuple; see DESIGN.md §9).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc by {amount})")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that goes up and down (occupancy, backlog, temperature)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


#: Default histogram bucket upper bounds (cycles-ish scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


class Histogram:
    """Fixed-bucket histogram with count/sum, Prometheus style.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in the implicit +inf bucket.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "total")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty bucket bounds")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (NaN when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank and n:
                return self.bounds[i] if i < len(self.bounds) else math.inf
        return math.inf

    def snapshot(self) -> Dict[str, float]:
        return {"count": float(self.count), "sum": self.total, "mean": self.mean,
                "p50": self.quantile(0.5), "p99": self.quantile(0.99),
                "p999": self.quantile(0.999)}


Metric = Union[Counter, Gauge, Histogram]


def _validate_name(name: str) -> None:
    """Registry names are free-form but must be exposable: non-empty,
    printable, no whitespace."""
    if not name or any(c.isspace() or not c.isprintable() for c in name):
        raise ValueError(f"invalid metric name {name!r}: empty, whitespace, or unprintable")


class MetricsRegistry:
    """Named instruments, created on first use (``registry.counter(...)``)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: type, **kwargs: object) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            _validate_name(name)
            metric = kind(name, **kwargs)  # type: ignore[arg-type]
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get(name, Histogram, bounds=bounds, help=help)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every instrument (JSON-serialisable)."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    def render(self) -> str:
        """Aligned text table of all instruments, one per line."""
        lines = []
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                value = (
                    f"count={metric.count} mean={metric.mean:.2f} "
                    f"p50={metric.quantile(0.5):.0f} p99={metric.quantile(0.99):.0f} "
                    f"p999={metric.quantile(0.999):.0f}"
                )
            else:
                v = metric.snapshot()
                value = f"{v:,.2f}" if isinstance(v, float) and not math.isnan(v) else str(v)
            lines.append(f"{name:40s} {value}")
        return "\n".join(lines)
