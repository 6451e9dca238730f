"""Event loop and virtual clock.

The engine owns a priority queue of ``(time_ns, seq, callback, args)``
entries. ``seq`` is a monotonically increasing tiebreaker so that events
scheduled for the same instant fire in scheduling order — this is what
makes the whole simulation deterministic. Carrying ``args`` in the queue
entry lets awaitables schedule a bound method plus its arguments (a
"slot" callback) instead of allocating a fresh closure per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

#: Virtual time units per second. All engine times are integer nanoseconds.
NS_PER_SEC = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


class SimError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. time travel)."""


class Awaitable:
    """Base class for anything a process generator may ``yield``.

    Subclasses implement :meth:`subscribe`, registering a resume callback
    invoked as ``callback(value, exc)`` exactly once.
    """

    def subscribe(self, callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        raise NotImplementedError


class Timeout(Awaitable):
    """Awaitable that fires ``delay_ns`` after it was created."""

    __slots__ = ("engine", "delay_ns", "value")

    def __init__(self, engine: "Engine", delay_ns: int, value: Any = None):
        if delay_ns < 0:
            raise SimError(f"negative timeout: {delay_ns}")
        self.engine = engine
        self.delay_ns = int(delay_ns)
        self.value = value

    def subscribe(self, callback) -> None:
        self.engine.call_at(
            self.engine.now + self.delay_ns, callback, self.value, None
        )


class Event(Awaitable):
    """One-shot event. Processes wait on it; :meth:`trigger` resumes them all.

    The value passed to :meth:`trigger` becomes the result of the ``yield``.
    :meth:`fail` resumes waiters by raising an exception inside them.
    """

    __slots__ = ("engine", "_callbacks", "_done", "_value", "_exc", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._callbacks: list = []
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        """True once the event has fired or failed."""
        return self._done

    @property
    def value(self) -> Any:
        """The trigger value; raises if not yet triggered."""
        if not self._done:
            raise SimError(f"event {self.name!r} not yet triggered")
        return self._value

    def subscribe(self, callback) -> None:
        if self._done:
            # Resume on the next loop turn (still at the current instant) so
            # a yield on an already-triggered event never re-enters the
            # yielding process synchronously.
            self.engine.call_at(self.engine.now, callback, self._value, self._exc)
        else:
            self._callbacks.append(callback)

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event, resuming every waiter with ``value``."""
        if self._done:
            raise SimError(f"event {self.name!r} triggered twice")
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.engine.call_at(self.engine.now, cb, value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event by raising ``exc`` inside every waiter."""
        if self._done:
            raise SimError(f"event {self.name!r} triggered twice")
        self._done = True
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.engine.call_at(self.engine.now, cb, None, exc)
        return self


class AllOf(Awaitable):
    """Fires when every constituent awaitable has fired; value is a list."""

    def __init__(self, engine: "Engine", items: Iterable[Awaitable]):
        self.engine = engine
        self.items = list(items)

    def subscribe(self, callback) -> None:
        pending = len(self.items)
        results: list = [None] * pending
        if pending == 0:
            self.engine.call_at(self.engine.now, callback, [], None)
            return
        state = {"left": pending, "failed": False}

        def make_cb(i):
            def cb(value, exc):
                if state["failed"]:
                    return
                if exc is not None:
                    state["failed"] = True
                    callback(None, exc)
                    return
                results[i] = value
                state["left"] -= 1
                if state["left"] == 0:
                    callback(results, None)

            return cb

        for i, item in enumerate(self.items):
            item.subscribe(make_cb(i))


class AnyOf(Awaitable):
    """Fires when the first constituent fires; value is ``(index, value)``."""

    def __init__(self, engine: "Engine", items: Iterable[Awaitable]):
        self.engine = engine
        self.items = list(items)
        if not self.items:
            raise SimError("AnyOf of nothing")

    def subscribe(self, callback) -> None:
        state = {"done": False}

        def make_cb(i):
            def cb(value, exc):
                if state["done"]:
                    return
                state["done"] = True
                if exc is not None:
                    callback(None, exc)
                else:
                    callback((i, value), None)

            return cb

        for i, item in enumerate(self.items):
            item.subscribe(make_cb(i))


class Engine:
    """The simulation event loop.

    >>> eng = Engine()
    >>> def hello(eng, out):
    ...     yield eng.sleep(5)
    ...     out.append(eng.now)
    >>> out = []
    >>> _ = eng.spawn(hello(eng, out))
    >>> eng.run()
    >>> out
    [5]
    """

    def __init__(self, obs: Optional[Any] = None) -> None:
        self.now: int = 0
        self._queue: list = []
        self._seq = 0
        # Live (unfinished) processes in spawn order: a dict used as an
        # insertion-ordered set, so pruning a finished one is O(1).
        self._processes: dict = {}
        from repro.obs import context as _obs_context

        ctx = _obs_context.get()
        if obs is None:
            # Pick up the ambient observability context's engine observer
            # (None unless the caller enabled engine instrumentation).
            obs = ctx.engine_obs
        #: Optional instrumentation sink (see repro.obs.engine_hooks).
        self.obs = obs
        if ctx.flightrec is not None:
            # An armed flight recorder summarizes the most recent engine
            # on a dump; attaching here costs one check per construction,
            # never per event.
            ctx.flightrec.attach(engine=self)
        #: Optional fault injector (see repro.faults). None = no plan armed;
        #: every hook site is a single attribute load + None check.
        self.faults = None
        #: Optional invariant auditor (see repro.obs.audit), per engine;
        #: the observer calls it after each event. None = auditing off.
        self.auditor = None
        #: The Process whose generator is currently being resumed (None
        #: between resumptions). Maintained by Process._step; the tracer
        #: keys its parent-attribution stacks on it so spans opened by
        #: interleaving processes never adopt each other as parents.
        self.current_process = None

    # -- scheduling ---------------------------------------------------------

    def call_at(self, when_ns: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute virtual time ``when_ns``.

        Passing the arguments through the queue entry (instead of closing
        over them) is what lets awaitables schedule bound methods without
        allocating a lambda per event.
        """
        when_ns = int(when_ns)
        if when_ns < self.now:
            raise SimError(f"cannot schedule at {when_ns} < now {self.now}")
        heapq.heappush(self._queue, (when_ns, self._seq, callback, args))
        self._seq += 1

    def call_after(self, delay_ns: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` ``delay_ns`` from now."""
        self.call_at(self.now + int(delay_ns), callback, *args)

    # -- awaitable factories ------------------------------------------------

    def sleep(self, delay_ns: int, value: Any = None) -> Timeout:
        """Awaitable that fires after ``delay_ns``."""
        return Timeout(self, delay_ns, value)

    def event(self, name: str = "") -> Event:
        """A fresh one-shot Event bound to this engine."""
        return Event(self, name)

    def all_of(self, items: Iterable[Awaitable]) -> AllOf:
        """Awaitable: fires when every item has fired (list of values)."""
        return AllOf(self, items)

    def any_of(self, items: Iterable[Awaitable]) -> AnyOf:
        """Awaitable: fires at the first item, value (index, value)."""
        return AnyOf(self, items)

    def spawn(self, gen, name: str = "") -> "Process":
        """Start a new process from generator ``gen``; returns the Process."""
        proc = _process.Process(self, gen, name=name)
        self._processes[proc] = None
        if self.obs is not None:
            self.obs.on_spawn(self, proc)
        return proc

    def _process_finished(self, proc) -> None:
        """Prune a finished process from the live-process table.

        Called by :class:`~repro.sim.process.Process` exactly once per
        finish, so long runs spawning millions of short-lived processes
        do not leak them here. A process that is not in the table
        finished twice or was never spawned here: an engine bug.
        """
        try:
            del self._processes[proc]
        except KeyError:
            raise SimError(
                f"process {proc.name!r} finished twice or was never spawned"
            ) from None
        if self.obs is not None:
            self.obs.on_finish(self, proc)

    # -- running ------------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event. Returns False if the queue is empty."""
        if not self._queue:
            return False
        when, _seq, callback, args = heapq.heappop(self._queue)
        self.now = when
        if self.obs is None:
            callback(*args)
        else:
            self.obs.run_event(self, callback, args)
        return True

    def run(self, until_ns: Optional[int] = None) -> None:
        """Run until the queue drains or virtual time reaches ``until_ns``.

        When ``until_ns`` is given and is reached, the clock is left exactly
        at ``until_ns`` and any not-yet-due events stay queued. Events
        scheduled *exactly at* ``until_ns`` do run.
        """
        queue = self._queue
        if self.obs is None:
            # Batched drain: identical semantics to the step() loop below,
            # with the heap pop and dispatch inlined (no per-event method
            # calls or observer checks).
            pop = heapq.heappop
            if until_ns is None:
                while queue:
                    when, _seq, callback, args = pop(queue)
                    self.now = when
                    callback(*args)
            else:
                while queue:
                    if queue[0][0] > until_ns:
                        self.now = until_ns
                        return
                    when, _seq, callback, args = pop(queue)
                    self.now = when
                    callback(*args)
        else:
            while queue:
                if until_ns is not None and queue[0][0] > until_ns:
                    self.now = until_ns
                    return
                self.step()
        if until_ns is not None and self.now < until_ns:
            self.now = until_ns

    def run_until_complete(self, proc) -> Any:
        """Step the loop until ``proc`` finishes, then return its result.

        Unlike :meth:`run`, this tolerates unbounded background activity
        (noise daemons, pollers): pending events are simply left queued
        once the target process completes.
        """
        while not proc.finished:
            if not self.step():
                raise SimError(
                    f"queue drained before process {proc.name!r} finished (deadlock?)"
                )
        return proc.result

    def run_process(self, gen, name: str = "", until_ns: Optional[int] = None) -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        Convenience wrapper used pervasively by tests and benchmarks.
        Raises the process's exception if it failed, or :class:`SimError`
        if the queue drained before the process finished.
        """
        proc = self.spawn(gen, name=name)
        self.run(until_ns=until_ns)
        if not proc.finished:
            raise SimError(f"process {name or gen!r} did not finish (deadlock?)")
        return proc.result

    @property
    def queue_len(self) -> int:
        """Events currently queued."""
        return len(self._queue)

    @property
    def live_processes(self) -> tuple:
        """The processes spawned on this engine that have not finished."""
        return tuple(self._processes)

    def state_summary(self) -> dict:
        """Deterministic loop-state digest for incident bundles.

        Virtual clock, queue depth, and the (sorted) names of unfinished
        processes — enough to see *what was still running* when a flight
        recorder froze the run, without holding object references.
        """
        current = self.current_process
        return {
            "now_ns": self.now,
            "queue_len": len(self._queue),
            "live_processes": sorted(p.name for p in self._processes),
            "current_process": None if current is None else current.name,
            "faults_armed": bool(
                self.faults is not None and self.faults.active
            ),
        }


# Bound after every class above exists: ``repro.sim.process`` imports
# them back, so a top-of-module import would be circular. Importing once
# here keeps ``spawn`` free of a per-call import.
from repro.sim import process as _process  # noqa: E402
