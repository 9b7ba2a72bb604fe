"""Metrics registry: labeled counters, gauges, and histograms.

The registry mirrors the fleet telemetry the paper leans on (per-port
ToR traffic, aggregation ingress imbalance): a *series* is a metric
name plus a frozen label set -- ``link_util{tier=agg,plane=1}`` -- and
the registry hands out the same instrument object for the same series,
so hot paths can resolve once and update cheaply.

Gauges additionally retain a bounded ``(ts_s, value)`` sample series
when callers stamp their sets with simulation time; that is what the
Chrome-trace exporter turns into counter tracks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .ring import RingBuffer

#: label set rendered into a series name: sorted ``k=v`` pairs
LabelSet = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds (seconds-ish decades)
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

#: bucket bounds for fraction-valued series (utilization, dirty
#: fraction, hit rates): the seconds decades above would collapse a
#: 0..1 signal into two bins
FRACTION_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def _labelset(labels: Mapping[str, Any]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_name(name: str, labels: LabelSet) -> str:
    """Render ``name{k=v,...}`` -- the stable series identifier."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def json_safe_number(value: float) -> Optional[float]:
    """JSON has no inf/nan; map them to None for snapshots."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Metric:
    """Base: one series (name + labels) of one instrument kind."""

    kind = "metric"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels

    @property
    def series(self) -> str:
        return series_name(self.name, self.labels)

    def snapshot(self) -> Dict[str, Any]:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (events, iterations, decisions)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, by: float = 1.0) -> None:
        self.value += by

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": json_safe_number(self.value)}


class Gauge(Metric):
    """Last-write-wins value with an optional timestamped sample series."""

    kind = "gauge"
    __slots__ = ("value", "samples")

    def __init__(self, name: str, labels: LabelSet,
                 max_samples: Optional[int] = None):
        super().__init__(name, labels)
        self.value = 0.0
        self.samples: RingBuffer = RingBuffer(max_samples)

    def set(self, value: float, ts_s: Optional[float] = None) -> None:
        self.value = value
        if ts_s is not None:
            self.samples.append((ts_s, value))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "value": json_safe_number(self.value),
            "samples": [
                [t, json_safe_number(v)] for t, v in self.samples
            ],
        }


class Histogram(Metric):
    """Distribution summary: bucketed counts plus running stats."""

    kind = "histogram"
    __slots__ = ("buckets", "bucket_counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, name: str, labels: LabelSet,
                 buckets: Optional[Iterable[float]] = None):
        super().__init__(name, labels)
        self.buckets: Tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
        )
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def observe(self, value: float) -> None:
        """Count ``value`` into the first bucket whose bound is >= it.

        A value above every bound, or NaN (which compares false with
        every bound), lands in the overflow bucket.
        """
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if value != value:  # NaN: bisect_left would put it in bucket 0
            self.bucket_counts[-1] += 1
        else:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": json_safe_number(self.total),
            "mean": json_safe_number(self.mean),
            "min": json_safe_number(self.min_value) if self.count else None,
            "max": json_safe_number(self.max_value) if self.count else None,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Get-or-create home of every metric series in one recording."""

    def __init__(self, max_samples_per_series: Optional[int] = 10_000):
        self.max_samples_per_series = max_samples_per_series
        self._series: Dict[Tuple[str, LabelSet], Metric] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Mapping[str, Any],
             **kwargs) -> Metric:
        key = (name, _labelset(labels))
        metric = self._series.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._series[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"series {metric.series!r} already registered as "
                f"{metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels,
                         max_samples=self.max_samples_per_series)

    def histogram(self, name: str, buckets: Optional[Iterable[float]] = None,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def series(self) -> List[Metric]:
        """Every registered series, sorted by rendered name."""
        return sorted(self._series.values(), key=lambda m: m.series)

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every series (the metrics artifact body)."""
        return {m.series: m.snapshot() for m in self.series()}
