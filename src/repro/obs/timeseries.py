"""Virtual-time time-series: tumbling-window metric aggregation.

A :class:`TimeSeriesRecorder` turns the cumulative counters, gauges, and
histograms of a :class:`~repro.obs.metrics.MetricsRegistry` into
per-window snapshots on the **virtual clock**: window ``i`` covers
``[i * window_ns, (i + 1) * window_ns)`` and reports what changed inside
it (counter deltas, histogram delta-bucket quantiles, current gauge
levels). This is what lets the SLO engine (:mod:`repro.obs.slo`) answer
"what was p99 attach latency *over time*" instead of only end-of-run.

Windows close from inside the event loop via :class:`TimeSeriesHook`, an
engine-observer adapter in the same mold as
:class:`repro.obs.audit.AuditHook`: before each popped event runs, every
window ending at or before ``engine.now`` is closed, so an event at
virtual time ``t`` always lands in the window containing ``t``. The
driver calls :meth:`TimeSeriesRecorder.finish` once at the end to flush
the final partial window.

Everything observed is deterministic simulation state and every
container iterates in sorted-name order, so two identical runs produce
byte-identical window streams (:meth:`TimeSeriesRecorder.to_json`).
Like the tracer's ring buffer, the window store is ring-capped
(``max_windows``) with a visible :attr:`~TimeSeriesRecorder.dropped`
count — and the whole facility is default-off, costing nothing unless a
recorder is constructed and hooked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import RingBuffer, write_text

#: Default tumbling-window width: one simulated millisecond.
DEFAULT_WINDOW_NS = 1_000_000

#: Default ring cap on retained windows.
DEFAULT_MAX_WINDOWS = 4096


def bucket_quantile(bounds: Sequence[float], counts: Sequence[int],
                    q: float) -> float:
    """Quantile estimate from bucket counts alone (no exact min/max).

    Linear interpolation inside the bucket holding the q-th sample,
    Prometheus ``histogram_quantile`` style: the first bucket
    interpolates up from 0, the ``+inf`` overflow bucket clamps to the
    last finite bound. Used for per-window delta buckets, where the
    streaming min/max of the cumulative histogram does not apply.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    n = sum(counts)
    if n == 0:
        return 0.0
    rank = q * n
    cum = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cum + count >= rank:
            lo = float(bounds[i - 1]) if i > 0 else 0.0
            hi = float(bounds[i]) if i < len(bounds) else float(bounds[-1])
            if hi < lo:
                hi = lo
            frac = (rank - cum) / count
            return lo + (hi - lo) * frac
        cum += count
    return float(bounds[-1])


@dataclass
class HistWindow:
    """One histogram's activity inside one window (delta over cumulative)."""

    count: int
    total: float                 #: sum of samples in the window
    bounds: Tuple[float, ...]
    bucket_deltas: Tuple[int, ...]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        return bucket_quantile(self.bounds, self.bucket_deltas, q)


@dataclass
class WindowSnapshot:
    """Everything that happened in one tumbling window."""

    index: int
    start_ns: int
    end_ns: int
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistWindow] = field(default_factory=dict)

    def to_doc(self, exclude_prefixes: Tuple[str, ...] = ()) -> dict:
        """Plain-dict rendering (sorted keys) for JSON/dashboard export."""

        def keep(name: str) -> bool:
            return not any(name.startswith(p) for p in exclude_prefixes)

        return {
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "counters": {k: v for k, v in sorted(self.counters.items()) if keep(k)},
            "gauges": {k: v for k, v in sorted(self.gauges.items()) if keep(k)},
            "histograms": {
                name: {
                    "count": hw.count,
                    "mean": hw.mean,
                    "p50": hw.quantile(0.50),
                    "p95": hw.quantile(0.95),
                    "p99": hw.quantile(0.99),
                }
                for name, hw in sorted(self.histograms.items())
                if keep(name)
            },
        }


class TimeSeriesRecorder:
    """Tumbling-window aggregation over a live metrics registry."""

    def __init__(self, metrics: MetricsRegistry,
                 window_ns: int = DEFAULT_WINDOW_NS,
                 max_windows: Optional[int] = DEFAULT_MAX_WINDOWS):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.metrics = metrics
        self.window_ns = window_ns
        self._buf = RingBuffer(max_windows)
        self._start_ns = 0
        #: End of the currently filling window — the hot-path guard
        #: (:class:`TimeSeriesHook` compares it per event to skip the
        #: advance call entirely until a window boundary passes).
        self.next_close_ns = window_ns
        self._index = 0
        #: name -> counter value at the last window close.
        self._prev_counters: Dict[str, int] = {}
        #: name -> (bucket counts, count, total) at the last window close.
        self._prev_hists: Dict[str, Tuple[Tuple[int, ...], int, float]] = {}

    # -- recording -----------------------------------------------------------

    def advance(self, now_ns: int) -> None:
        """Close every window that ends at or before ``now_ns``."""
        while self._start_ns + self.window_ns <= now_ns:
            self._close(self._start_ns + self.window_ns)

    def finish(self, now_ns: int) -> None:
        """Close full windows up to ``now_ns`` plus the final partial one.

        Idempotent for a given ``now_ns`` (the partial close moves the
        window origin up to ``now_ns``); call it when the run ends so the
        tail of the series is not silently discarded.
        """
        self.advance(now_ns)
        if now_ns > self._start_ns:
            self._close(now_ns)

    def _close(self, end_ns: int) -> None:
        window = WindowSnapshot(
            index=self._index, start_ns=self._start_ns, end_ns=end_ns
        )
        for name in self.metrics.names():
            metric = self.metrics._metrics[name]
            if isinstance(metric, Counter):
                delta = metric.value - self._prev_counters.get(name, 0)
                self._prev_counters[name] = metric.value
                if delta:
                    window.counters[name] = delta
            elif isinstance(metric, Gauge):
                window.gauges[name] = metric.value
            elif isinstance(metric, Histogram):
                buckets = tuple(metric.bucket_counts)
                count = metric.stats.count
                total = metric.stats.mean * count
                pb, pc, pt = self._prev_hists.get(
                    name, ((0,) * len(buckets), 0, 0.0)
                )
                self._prev_hists[name] = (buckets, count, total)
                if count - pc:
                    window.histograms[name] = HistWindow(
                        count=count - pc,
                        total=total - pt,
                        bounds=metric.bounds,
                        bucket_deltas=tuple(
                            b - p for b, p in zip(buckets, pb)
                        ),
                    )
        self._buf.append(window)
        self._start_ns = end_ns
        self.next_close_ns = end_ns + self.window_ns
        self._index += 1

    # -- introspection -------------------------------------------------------

    @property
    def windows(self) -> List[WindowSnapshot]:
        """All retained windows, oldest first."""
        return list(self._buf)

    @property
    def dropped(self) -> int:
        """Windows evicted by the ring cap."""
        return self._buf.dropped

    def __len__(self) -> int:
        return len(self._buf)

    # -- export --------------------------------------------------------------

    def to_doc(self, exclude_prefixes: Tuple[str, ...] = ()) -> dict:
        """Deterministic plain-dict rendering of the whole series."""
        return {
            "window_ns": self.window_ns,
            "dropped_windows": self.dropped,
            "windows": [w.to_doc(exclude_prefixes) for w in self._buf],
        }

    def to_json(self, fp: Union[str, IO[str], None] = None,
                exclude_prefixes: Tuple[str, ...] = ()) -> str:
        """Serialize the series deterministically; optionally write it."""
        text = json.dumps(self.to_doc(exclude_prefixes), sort_keys=True,
                          indent=2)
        write_text(fp, text)
        return text


class TimeSeriesHook:
    """Engine-observer adapter closing time-series windows on the clock.

    Installs as ``engine.obs`` (the same hook point as
    :class:`repro.obs.audit.AuditHook`), optionally wrapping an inner
    :class:`~repro.obs.engine_hooks.EngineObserver` so time-series,
    engine stats, and profiling compose. Windows are closed *before*
    each popped event executes, so the metric writes of an event at
    virtual time ``t`` are attributed to the window containing ``t``.
    """

    def __init__(self, recorder: TimeSeriesRecorder, inner=None):
        self.recorder = recorder
        self.inner = inner

    def run_event(self, engine, callback, args=()) -> None:
        # Inline boundary check: one attribute compare per event; the
        # window-closing machinery only runs when a boundary passed.
        recorder = self.recorder
        if recorder.next_close_ns <= engine.now:
            recorder.advance(engine.now)
        if self.inner is not None:
            self.inner.run_event(engine, callback, args)
        else:
            callback(*args)

    def on_spawn(self, engine, proc) -> None:
        if self.inner is not None:
            self.inner.on_spawn(engine, proc)

    def on_finish(self, engine, proc) -> None:
        if self.inner is not None:
            self.inner.on_finish(engine, proc)

    # -- EngineObserver surface pass-through (used by ctx.snapshot) ----------

    @property
    def events_executed(self) -> int:
        return self.inner.events_executed if self.inner is not None else 0

    def publish(self, metrics) -> None:
        if self.inner is not None:
            self.inner.publish(metrics)
