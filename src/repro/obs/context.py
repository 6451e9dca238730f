"""The process-wide observability context.

Instrumentation sites all over the simulator (XEMEM modules, Pisces
channels, kernels, the NIC) fetch the active context with
:func:`repro.obs.get` and write spans/metrics through it. By default the
context is **disabled**: spans return a shared null context manager,
metrics return a shared null sink, and engines get no observer, so
simulation behaviour and benchmark numbers are unchanged.

A dark site is not free: it still pays the :func:`get` call, the
``span``/``counter``/``histogram`` call, the null object's methods and
whatever the caller built for the call (span attribute keywords,
f-string metric names). So a site that runs once per channel message
checks ``tracer.enabled`` and ``metrics.enabled`` itself and builds
nothing when dark. Don't shadow the ``ObsContext`` methods on an
instance to make them cheaper; the benchmark harness wraps them on the
class. EXPERIMENTS.md "Per-message host diet" has the measured costs.

The CLI (``python -m repro fig5 --trace out.json --metrics``) and tests
enable observability by installing an enabled context, either directly
with :func:`install` or scoped with the :func:`observing` context
manager::

    with obs.observing(trace=True, metrics=True) as ctx:
        run_experiment()
    ctx.tracer.to_chrome("trace.json")
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs.engine_hooks import EngineObserver
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_MAX_WINDOWS,
    DEFAULT_WINDOW_NS,
    TimeSeriesHook,
    TimeSeriesRecorder,
)
from repro.obs.tracer import NULL_SPAN, Tracer


class ObsContext:
    """One tracer + one metrics registry + one optional engine observer.

    When windowed aggregation is on (``observing(timeseries=True)``),
    :attr:`timeseries` holds the live
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` and
    :attr:`engine_obs` is the :class:`~repro.obs.timeseries.
    TimeSeriesHook` that advances it (wrapping the plain
    :class:`EngineObserver` when engine stats are also requested).
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 engine_obs: Optional[EngineObserver] = None,
                 timeseries: Optional[TimeSeriesRecorder] = None,
                 flightrec: Optional[FlightRecorder] = None):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.engine_obs = engine_obs
        self.timeseries = timeseries
        #: Optional always-on black box (see :mod:`repro.obs.flightrec`).
        #: Deliberately *not* part of :attr:`enabled`: an armed recorder
        #: installs no engine hook and records nothing until a hook site
        #: feeds it, so it never perturbs the zero-cost contract.
        self.flightrec = flightrec
        if flightrec is not None:
            flightrec.ctx = self

    @property
    def enabled(self) -> bool:
        """True when any recording surface is live."""
        return (
            self.tracer.enabled or self.metrics.enabled or self.engine_obs is not None
        )

    # -- one-call instrumentation surface ------------------------------------

    def span(self, name: str, engine, track: str = "main", **attrs):
        """Span on the active tracer (null context manager when off)."""
        if not self.tracer.enabled:
            return NULL_SPAN
        return self.tracer.span(name, engine, track=track, **attrs)

    def counter(self, name: str):
        """Counter in the active registry (null sink when off)."""
        return self.metrics.counter(name)

    def gauge(self, name: str):
        """Gauge in the active registry (null sink when off)."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS):
        """Histogram in the active registry (null sink when off)."""
        return self.metrics.histogram(name, bounds)

    def snapshot(self) -> dict:
        """Metrics snapshot, with the engine observer's stats folded in.

        Span-ring evictions surface here as the ``obs.spans.dropped``
        gauge (only once drops actually happened, so clean runs export
        byte-identical snapshots with or without a ring cap).
        """
        if self.engine_obs is not None and self.metrics.enabled:
            self.engine_obs.publish(self.metrics)
        if self.metrics.enabled and self.tracer.enabled and self.tracer.dropped:
            self.metrics.gauge("obs.spans.dropped").set(self.tracer.dropped)
        return self.metrics.snapshot()


#: The default, all-off context active when nothing is installed.
_DISABLED = ObsContext()
_current: ObsContext = _DISABLED


def get() -> ObsContext:
    """The active observability context (disabled by default)."""
    return _current


def install(ctx: ObsContext) -> ObsContext:
    """Make ``ctx`` the active context; returns the previous one."""
    global _current
    previous = _current
    _current = ctx  # repro: noqa[REP110] reason=the observability context is per-host-process by design; sharded engines install their own (ROADMAP item 1)
    return previous


def reset() -> None:
    """Restore the default disabled context."""
    global _current
    _current = _DISABLED  # repro: noqa[REP110] reason=restores the module default; same per-process contract as install()


@contextlib.contextmanager
def observing(trace: bool = True, metrics: bool = True,
              engine: bool = False,
              max_trace_events: Optional[int] = None,
              timeseries: bool = False,
              window_ns: int = DEFAULT_WINDOW_NS,
              max_windows: Optional[int] = DEFAULT_MAX_WINDOWS,
              flightrec: bool = False) -> Iterator[ObsContext]:
    """Scoped enablement: install an enabled context, restore on exit.

    The context object stays usable after exit (for export); only the
    global registration is undone.

    ``timeseries=True`` additionally aggregates the metrics registry
    into tumbling ``window_ns`` windows on the virtual clock (see
    :mod:`repro.obs.timeseries`); it requires ``metrics=True`` and
    installs a window-advancing engine hook, so engines built inside
    the scope pick it up automatically. Call
    ``ctx.timeseries.finish(end_ns)`` after the run to flush the final
    partial window.

    ``flightrec=True`` arms a :class:`~repro.obs.flightrec.
    FlightRecorder` black box on the context; engines built inside the
    scope attach themselves to it, and fault/audit/SLO hook sites feed
    it. It installs no engine hook, so arming it costs nothing per
    event.
    """
    if timeseries and not metrics:
        raise ValueError("observing(timeseries=True) requires metrics=True")
    registry = MetricsRegistry(enabled=metrics)
    recorder = (
        TimeSeriesRecorder(registry, window_ns=window_ns,
                           max_windows=max_windows)
        if timeseries else None
    )
    inner = EngineObserver() if engine else None
    engine_obs = (
        TimeSeriesHook(recorder, inner=inner) if recorder is not None else inner
    )
    ctx = ObsContext(
        tracer=Tracer(enabled=trace, max_events=max_trace_events),
        metrics=registry,
        engine_obs=engine_obs,
        timeseries=recorder,
        flightrec=FlightRecorder() if flightrec else None,
    )
    previous = install(ctx)
    try:
        yield ctx
    finally:
        install(previous)
