"""Named counters, gauges, and fixed-bucket histograms.

Metric names are hierarchical dot paths (``xemem.make.count``,
``pisces.channel.bytes``, ``nic.rdma.msgs``) so a snapshot groups
naturally by subsystem. Instrumentation sites fetch metrics through the
:class:`MetricsRegistry`; when the registry is disabled every accessor
returns a shared null object, so disabled metrics cost one attribute
check and allocate nothing.

Histograms reuse :class:`repro.sim.record.SeriesStats` for the moment
summary and add fixed upper-bound buckets (Prometheus-style cumulative
counts are derivable from the per-bucket counts in the snapshot).

Everything recorded here is derived from deterministic simulation state,
so :meth:`MetricsRegistry.snapshot` is reproducible run-to-run.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, IO, List, Sequence, Union

from repro.obs.tracer import write_text
from repro.sim.record import SeriesStats

#: Default histogram buckets (ns-oriented: 1 µs .. 100 ms, then +inf).
DEFAULT_BUCKETS = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
)


class Counter:
    """Monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n

    def reset(self) -> None:
        """Zero the counter (used by :meth:`MetricsRegistry.clear`)."""
        self.value = 0


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def reset(self) -> None:
        """Zero the gauge (used by :meth:`MetricsRegistry.clear`)."""
        self.value = 0.0


class Histogram:
    """Fixed-bucket distribution with a streaming moment summary."""

    __slots__ = ("name", "bounds", "bucket_counts", "stats")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} bounds must be ascending")
        self.name = name
        self.bounds = tuple(bounds)
        #: counts[i] observations fell in (bounds[i-1], bounds[i]];
        #: counts[-1] is the +inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.stats = SeriesStats()

    def observe(self, x: float) -> None:
        """Fold one sample into the buckets and the moment summary."""
        self.bucket_counts[bisect.bisect_left(self.bounds, x)] += 1
        self.stats.add(x)

    @property
    def count(self) -> int:
        """Total observations."""
        return self.stats.count

    def reset(self) -> None:
        """Forget every observation (used by :meth:`MetricsRegistry.clear`)."""
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.stats = SeriesStats()

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate in ``[0, 1]``.

        Linear interpolation inside the bucket holding the q-th sample
        (Prometheus ``histogram_quantile`` style), clamped to the exact
        observed ``[min, max]`` so the estimate never leaves the data's
        range; the overflow bucket interpolates toward the observed max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        n = self.stats.count
        if n == 0:
            return 0.0
        rank = q * n
        cum = 0
        for i, count in enumerate(self.bucket_counts):
            if count == 0:
                continue
            if cum + count >= rank:
                lo = self.bounds[i - 1] if i > 0 else min(self.stats.min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self.stats.max
                if hi < lo:
                    hi = lo
                frac = (rank - cum) / count
                est = lo + (hi - lo) * frac
                return min(max(est, self.stats.min), self.stats.max)
            cum += count
        return self.stats.max


class _NullMetric:
    """Shared sink for all metric writes while the registry is disabled."""

    __slots__ = ()
    value = 0
    count = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, x: float) -> None:
        pass


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Hierarchically named metrics, snapshotable to a dict or JSON."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        return self._get(name, Gauge)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        return self._get(name, Histogram, bounds)

    # -- snapshot -------------------------------------------------------------

    def names(self, prefix: str = "") -> List[str]:
        """Sorted metric names, optionally filtered by dot-path prefix."""
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def snapshot(self) -> Dict[str, object]:
        """Name-sorted dict of every metric's current value.

        Counters and gauges map to their scalar value; histograms map to
        ``{count, mean, min, max, stdev, p50, p95, p99, buckets}`` where
        ``buckets`` maps each upper bound (and ``"+inf"``) to its bucket
        count and the percentiles are bucket-interpolated estimates
        (exact min/max come from the streaming summary), so snapshots
        from different runs are directly comparable.
        """
        out: Dict[str, object] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                buckets = {
                    str(bound): count
                    for bound, count in zip(metric.bounds, metric.bucket_counts)
                }
                buckets["+inf"] = metric.bucket_counts[-1]
                summary = metric.stats.summary()
                summary["p50"] = metric.quantile(0.50)
                summary["p95"] = metric.quantile(0.95)
                summary["p99"] = metric.quantile(0.99)
                summary["buckets"] = buckets
                out[name] = summary
            else:
                out[name] = metric.value
        return out

    def to_json(self, fp: Union[str, IO[str], None] = None) -> str:
        """Serialize the snapshot deterministically; optionally write it."""
        text = json.dumps(self.snapshot(), sort_keys=True, indent=2)
        write_text(fp, text)
        return text

    def clear(self) -> None:
        """Reset every registered metric to zero, **in place**.

        Metric objects handed out by :meth:`counter`/:meth:`gauge`/
        :meth:`histogram` stay registered and keep feeding the registry
        after a clear — instrumentation sites that cached a reference are
        never silently orphaned. (Previously this dropped the registry
        dict, so cached references kept counting into objects no snapshot
        would ever see.) Use :meth:`drop_all` for the old behaviour.
        """
        for metric in self._metrics.values():
            metric.reset()

    def drop_all(self) -> None:
        """Forget every metric entirely (cached references detach)."""
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)
