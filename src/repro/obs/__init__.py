"""Observability for the simulator: span tracing, metrics, engine hooks.

Three pieces, all default-off and recording nothing when disabled:

* :mod:`repro.obs.tracer` — nestable spans on the virtual clock,
  exportable as Chrome/Perfetto ``trace.json`` or JSONL;
* :mod:`repro.obs.metrics` — hierarchically named counters, gauges, and
  fixed-bucket histograms, snapshotable to a dict/JSON;
* :mod:`repro.obs.engine_hooks` — the one engine observer: it counts
  executed events, samples queue depth, accounts process virtual
  runtimes, closes time-series windows, and calls the engine's auditor.

On top of those sit the analysis layers:

* :mod:`repro.obs.analysis` — span-tree reconstruction and per-subsystem
  cost attribution over exported traces (``python -m repro report``);
* :mod:`repro.obs.audit` — the default-off runtime invariant auditor
  (``REPRO_AUDIT=1``), raising :class:`~repro.obs.audit.AuditViolation`
  with span context when simulated kernel state drifts;
* :mod:`repro.obs.timeseries` — tumbling-window aggregation of the
  metrics registry on the virtual clock (``observing(timeseries=True)``);
* :mod:`repro.obs.slo` — declarative latency/error objectives evaluated
  deterministically against the time-series, with journey context;
* :mod:`repro.obs.export` — Prometheus text, folded-stack flamegraphs,
  and the self-contained HTML dashboard (``python -m repro serve-report``);
* :mod:`repro.obs.flightrec` — the always-on flight recorder and
  byte-deterministic incident bundles (``python -m repro diagnose``);
* :mod:`repro.obs.diff` — differential regression attribution between
  two captures or bundles (``python -m repro perf-diff``).

Usage from instrumentation sites::

    from repro import obs

    o = obs.get()
    with o.span("xemem.attach", self.engine, track=self.enclave.name):
        ...
    o.counter("xemem.attach.count").inc()

Usage from drivers (the CLI does exactly this)::

    with obs.observing(trace=True, metrics=True) as ctx:
        figures.fig5_throughput(reps=1)
    ctx.tracer.to_chrome("trace.json")
    print(ctx.metrics.to_json())
"""

from repro.obs import analysis, audit, diff, export, flightrec, slo, timeseries
from repro.obs.audit import Auditor, AuditViolation
from repro.obs.context import ObsContext, get, install, observing, reset
from repro.obs.engine_hooks import EngineObserver
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SloReport, SloSpec, SloViolation
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.tracer import RingBuffer, Span, Tracer

__all__ = [
    "AuditViolation",
    "Auditor",
    "Counter",
    "EngineObserver",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "RingBuffer",
    "SloReport",
    "SloSpec",
    "SloViolation",
    "Span",
    "TimeSeriesRecorder",
    "Tracer",
    "analysis",
    "audit",
    "diff",
    "export",
    "flightrec",
    "get",
    "install",
    "observing",
    "reset",
    "slo",
    "timeseries",
]
