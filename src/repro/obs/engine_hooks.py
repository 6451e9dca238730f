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

Separately — and only when ``profile=True`` — it keeps a **host
wallclock hot-path profile**: cumulative ``perf_counter`` seconds and
call counts per callback site, for finding *simulator* bottlenecks. The
profile is the single place host time is allowed; it never feeds traces
or metric snapshots, so those stay byte-identical across runs.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import RingBuffer
from repro.sim.record import SeriesStats


def _callback_site(callback) -> str:
    """A stable label for where an event callback was defined.

    ``functools.partial`` wrappers and bound methods are unwrapped, so a
    process resumption is labelled ``repro.sim.process:Process._step``.
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        qualname = type(callback).__name__
    module = getattr(func, "__module__", "") or ""
    return f"{module}:{qualname}"


class EngineObserver:
    """Sink for :class:`~repro.sim.engine.Engine` instrumentation hooks."""

    def __init__(self, sample_every: int = 1024, profile: bool = False,
                 max_process_records: Optional[int] = 4096):
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        self.sample_every = sample_every
        self.profile_enabled = profile
        self.events_executed = 0
        self.queue_depth = SeriesStats()
        self.processes_spawned = 0
        self.processes_finished = 0
        self.process_runtime_ns = SeriesStats()
        #: (name, started_at, finished_at) per finished process, ring-capped.
        self.process_records = RingBuffer(max_process_records)
        #: site -> [calls, cumulative wallclock seconds] (profile mode only).
        self._profile: Dict[str, List[float]] = {}

    # -- engine hooks ---------------------------------------------------------

    def run_event(self, engine, callback, args=()) -> None:
        """Execute one popped event on the engine's behalf, instrumented."""
        self.events_executed += 1
        if self.events_executed % self.sample_every == 0:
            self.queue_depth.add(engine.queue_len)
        if not self.profile_enabled:
            callback(*args)
            return
        t0 = time.perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = time.perf_counter() - t0
            cell = self._profile.setdefault(_callback_site(callback), [0, 0.0])
            cell[0] += 1
            cell[1] += elapsed

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

    def hot_sites(self, top: int = 15) -> List[Tuple[str, int, float, float]]:
        """Profile rows ``(site, calls, seconds, events_per_sec)``, hottest
        first. Empty unless constructed with ``profile=True``."""
        rows = [
            (site, int(calls), secs, (calls / secs) if secs > 0 else float("inf"))
            for site, (calls, secs) in self._profile.items()
        ]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows[:top]

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
