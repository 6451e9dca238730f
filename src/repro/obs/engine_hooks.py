"""Engine instrumentation: the one observer an engine calls.

An :class:`EngineObserver` plugs into :class:`repro.sim.engine.Engine` as
its optional ``obs`` sink. Per popped event it closes every due window
of its optional :class:`~repro.obs.timeseries.TimeSeriesRecorder`,
counts the event, samples the queue length every ``sample_every``
events (event-indexed, so reproducible), runs the callback, and then
calls the engine's own ``engine.auditor`` (see :mod:`repro.obs.audit`),
if one is armed. It also counts process spawns and finishes and each
finished process's virtual runtime. Every engine built in one
``observing`` scope shares the observer; the auditor is per engine.

Nothing here reads host time. Host time per simulator layer is measured
outside the package, by ``benchmarks/e2e/run.py --trace 1``.
"""

from __future__ import annotations

from repro.sim.record import SeriesStats


class EngineObserver:
    """Sink for :class:`~repro.sim.engine.Engine` instrumentation hooks."""

    def __init__(self, sample_every: int = 1024, timeseries=None):
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.sample_every = sample_every
        #: Optional TimeSeriesRecorder whose windows close on the clock.
        self.timeseries = timeseries
        self.events_executed = 0
        self.queue_depth = SeriesStats()
        self.processes_spawned = 0
        self.processes_finished = 0
        self.process_runtime_ns = SeriesStats()

    # -- engine hooks ---------------------------------------------------------

    def run_event(self, engine, callback, args=()) -> None:
        """Execute one popped event on the engine's behalf, instrumented."""
        # Inline boundary check: one attribute compare per event; the
        # window-closing machinery only runs when a boundary passed.
        timeseries = self.timeseries
        if timeseries is not None and timeseries.next_close_ns <= engine.now:
            timeseries.advance(engine.now)
        self.events_executed += 1
        if self.events_executed % self.sample_every == 0:
            self.queue_depth.add(engine.queue_len)
        callback(*args)
        if engine.auditor is not None:
            engine.auditor.after_event(engine)

    def on_spawn(self, engine, proc) -> None:
        """A process was spawned."""
        self.processes_spawned += 1

    def on_finish(self, engine, proc) -> None:
        """A process finished; record its virtual runtime."""
        self.processes_finished += 1
        if proc.finished_at is not None:
            self.process_runtime_ns.add(proc.finished_at - proc.started_at)

    # -- reporting ------------------------------------------------------------

    def publish(self, metrics) -> None:
        """Set the deterministic engine stats in a metrics registry.

        Idempotent: the counters are set to the running totals, so
        publishing on every snapshot never counts an event twice.
        """
        metrics.counter("engine.events.executed").value = self.events_executed
        metrics.counter("engine.processes.spawned").value = self.processes_spawned
        metrics.counter("engine.processes.finished").value = self.processes_finished
        if self.queue_depth.count:
            metrics.gauge("engine.queue_depth.mean").set(self.queue_depth.mean)
            metrics.gauge("engine.queue_depth.max").set(self.queue_depth.max)
        if self.process_runtime_ns.count:
            metrics.gauge("engine.process.runtime_ns.mean").set(
                self.process_runtime_ns.mean
            )
            metrics.gauge("engine.process.runtime_ns.max").set(
                self.process_runtime_ns.max
            )
