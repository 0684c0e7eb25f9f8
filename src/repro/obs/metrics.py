"""Named counters, gauges and histograms: the ``repro.obs`` metrics plane.

Spans answer *where one request's time went*; metrics answer *what the
system did in aggregate* — cache hits, patch-vs-recompile counts, queue
depth, device busy fractions, halo bytes, per-kernel cycles.  A
:class:`MetricsRegistry` is a flat namespace of the three classic
instrument kinds, snapshotable to a plain-JSON dict so the serving layer
can embed it in :class:`~repro.serve.server.ServingReport` and benches
can lift values into ``BENCH_*.json`` metrics.

A name is bound to one instrument kind for the registry's lifetime —
``registry.counter("x")`` after ``registry.gauge("x")`` raises, because
two call sites silently feeding different instruments under one name is
how dashboards lie.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CounterMetric", "GaugeMetric", "HistogramMetric", "MetricsRegistry"]


@dataclass
class CounterMetric:
    """A monotonically increasing count (events, bytes, hits)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> float:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: increment must be >= 0")
        self.value += amount
        return self.value


@dataclass
class GaugeMetric:
    """A point-in-time value that moves both ways (depth, fraction)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value


@dataclass
class HistogramMetric:
    """A distribution of observed values (latencies, batch sizes)."""

    name: str
    values: list = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def extend(self, values) -> None:
        """Observe a whole array at once."""
        self.values.extend(np.asarray(values, dtype=np.float64).tolist())

    def snapshot(self) -> dict:
        if not self.values:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        arr = np.asarray(self.values, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        return {
            "count": int(arr.size),
            "sum": float(arr.sum()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "mean": float(arr.mean()),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }


class MetricsRegistry:
    """Get-or-create registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, CounterMetric] = {}
        self._gauges: dict[str, GaugeMetric] = {}
        self._histograms: dict[str, HistogramMetric] = {}

    def _check_kind(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in owners.items():
            if other != kind and name in table:
                raise ValueError(
                    f"metric {name!r} is already registered as a {other}; "
                    f"cannot re-register it as a {kind}"
                )

    def counter(self, name: str) -> CounterMetric:
        metric = self._counters.get(name)
        if metric is None:
            self._check_kind(name, "counter")
            metric = self._counters[name] = CounterMetric(name)
        return metric

    def gauge(self, name: str) -> GaugeMetric:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_kind(name, "gauge")
            metric = self._gauges[name] = GaugeMetric(name)
        return metric

    def histogram(self, name: str) -> HistogramMetric:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_kind(name, "histogram")
            metric = self._histograms[name] = HistogramMetric(name)
        return metric

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(
            [*self._counters, *self._gauges, *self._histograms]
        ))

    def snapshot(self) -> dict:
        """Plain-JSON view of every instrument (stable key order)."""
        return {
            "counters": {
                name: m.value for name, m in sorted(self._counters.items())
            },
            "gauges": {
                name: m.value for name, m in sorted(self._gauges.items())
            },
            "histograms": {
                name: m.snapshot()
                for name, m in sorted(self._histograms.items())
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
