"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a process-local bag of named metrics;
``registry.snapshot()`` is its plain JSON-able dump.  A pipeline run
keeps no registry: its metrics are a view computed on read from the
run record (:func:`repro.obs.export.run_metrics`).  The service keeps
one registry live.

Fixed buckets (rather than adaptive ones) keep histograms comparable:
two histograms with the same name always have the same bucket bounds.

Within a process a registry is shared across threads (the service's
HTTP handlers and pool threads), so it holds one lock that its metrics
share: get-or-create, every update and ``snapshot`` take it.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
    "BYTES_BUCKETS",
    "COUNT_BUCKETS",
]

#: default buckets for durations in seconds (1 ms .. 10 s)
SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: default buckets for sizes in bytes (64 B .. 256 MiB, x4 steps)
BYTES_BUCKETS = tuple(64 * 4 ** i for i in range(12))
#: default buckets for small structural counts (1 .. 65536, x4 steps)
COUNT_BUCKETS = tuple(4 ** i for i in range(9))


class Counter:
    """Monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str,
                 lock: threading.RLock | None = None) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-set value."""

    kind = "gauge"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str,
                 lock: threading.RLock | None = None) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus overflow.

    ``counts[i]`` is the number of observations ``<= buckets[i]``
    (non-cumulative); ``counts[-1]`` holds the overflow above the last
    bound.  ``sum`` and ``count`` allow mean reconstruction.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "counts", "sum", "count", "_lock")

    def __init__(self, name: str,
                 buckets: Iterable[float] = SECONDS_BUCKETS,
                 lock: threading.RLock | None = None) -> None:
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self.buckets = tuple(float(b) for b in buckets)
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect.bisect_left(self.buckets, value)] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Named metrics with get-or-create access."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.RLock()

    def _get(self, name: str, kind: type, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, lock=self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Iterable[float] = SECONDS_BUCKETS) -> Histogram:
        return self._get(name, Histogram, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """JSON-able value dump."""
        with self._lock:
            return {name: m.snapshot() for name, m in self._metrics.items()}

    def describe(self) -> str:
        """Readable one-metric-per-line summary (sorted by name)."""
        lines = []
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Histogram):
                lines.append(
                    f"{name}: count={m.count} sum={m.sum:.6g} "
                    f"mean={m.mean:.6g}"
                )
            else:
                lines.append(f"{name}: {m.value:.6g}")
        return "\n".join(lines)
