"""Engine instrumentation: event counts, queue depth, process accounting.

An :class:`EngineObserver` plugs into :class:`repro.sim.engine.Engine` as
its optional ``obs`` sink. It records, entirely from deterministic
simulation state:

* **events executed** — every popped queue entry;
* **queue-depth samples** — the queue length every ``sample_every``
  events (sampling is event-indexed, not wallclock, so it is
  reproducible);
* **process records** — spawn/finish counts and each finished process's
  virtual runtime, with a ring-capped record list for diagnostics.

Nothing here reads host time. Host time per simulator layer is measured
outside the package, by ``benchmarks/e2e/run.py --trace 1``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.tracer import RingBuffer
from repro.sim.record import SeriesStats


class EngineObserver:
    """Sink for :class:`~repro.sim.engine.Engine` instrumentation hooks."""

    def __init__(self, sample_every: int = 1024,
                 max_process_records: Optional[int] = 4096):
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.sample_every = sample_every
        self.events_executed = 0
        self.queue_depth = SeriesStats()
        self.processes_spawned = 0
        self.processes_finished = 0
        self.process_runtime_ns = SeriesStats()
        #: (name, started_at, finished_at) per finished process, ring-capped.
        self.process_records = RingBuffer(max_process_records)

    # -- engine hooks ---------------------------------------------------------

    def run_event(self, engine, callback, args=()) -> None:
        """Execute one popped event on the engine's behalf, instrumented."""
        self.events_executed += 1
        if self.events_executed % self.sample_every == 0:
            self.queue_depth.add(engine.queue_len)
        callback(*args)

    def on_spawn(self, engine, proc) -> None:
        """A process was spawned."""
        self.processes_spawned += 1

    def on_finish(self, engine, proc) -> None:
        """A process finished; record its virtual runtime."""
        self.processes_finished += 1
        if proc.finished_at is not None:
            self.process_runtime_ns.add(proc.finished_at - proc.started_at)
        self.process_records.append((proc.name, proc.started_at, proc.finished_at))

    # -- reporting ------------------------------------------------------------

    def publish(self, metrics) -> None:
        """Fold the deterministic engine stats into a metrics registry."""
        metrics.counter("engine.events.executed").inc(self.events_executed)
        metrics.counter("engine.processes.spawned").inc(self.processes_spawned)
        metrics.counter("engine.processes.finished").inc(self.processes_finished)
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
