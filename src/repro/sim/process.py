"""Generator-backed simulated processes.

A :class:`Process` drives a generator: every value the generator yields
must be an :class:`~repro.sim.engine.Awaitable`; the process suspends until
it fires and the fired value becomes the result of the ``yield`` expression.

Processes are themselves awaitables (join semantics) and can be
:meth:`interrupted <Process.interrupt>`, which raises :class:`Interrupt`
inside the generator at its current suspension point.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from repro.sim.engine import Awaitable, Engine, SimError


class Interrupt(Exception):
    """Raised inside a process generator when another actor interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Awaitable):
    """A running simulated activity.

    Attributes
    ----------
    finished:
        True once the generator has returned or raised.
    result:
        The generator's return value (via ``StopIteration.value``).
        Accessing it re-raises the generator's exception if it failed.
    """

    __slots__ = ("engine", "gen", "name", "finished", "_result", "_exc",
                 "_waiters", "_epoch", "started_at", "finished_at")

    def __init__(self, engine: Engine, gen, name: str = ""):
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.finished = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._waiters: list = []
        # Suspension epoch: every resume invalidates callbacks registered
        # for earlier suspensions, so an interrupt cannot race with the
        # original awaitable firing later.
        self._epoch = 0
        self.started_at = engine.now
        self.finished_at: Optional[int] = None
        # First step happens via the queue so spawn order == run order.
        engine.call_at(engine.now, self._step, self._epoch, None, None)

    # -- driving the generator ----------------------------------------------

    def _step(self, epoch: int, value: Any, exc: Optional[BaseException]) -> None:
        if self.finished or epoch != self._epoch:
            return  # stale wakeup (e.g. awaitable fired after an interrupt)
        self._epoch += 1
        engine = self.engine
        prev = engine.current_process
        engine.current_process = self
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as err:  # noqa: BLE001  # repro: noqa[REP007] reason=exception becomes the process result and re-raises in every waiter via _finish
            self._finish(None, err)
            return
        finally:
            engine.current_process = prev
        if not isinstance(target, Awaitable):
            self._finish(
                None,
                SimError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Awaitable objects"
                ),
            )
            return
        target.subscribe(partial(self._step, self._epoch))

    def _finish(self, result: Any, exc: Optional[BaseException]) -> None:
        self.finished = True
        self.finished_at = self.engine.now
        self._result = result
        self._exc = exc
        self.engine._process_finished(self)
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            self.engine.call_at(self.engine.now, cb, result, exc)
        if exc is not None and not waiters:
            # Nobody is joining this process: fail loudly instead of
            # swallowing the error. Raising from inside the event loop
            # surfaces the failure out of Engine.run().
            raise exc

    # -- public surface ------------------------------------------------------

    @property
    def result(self) -> Any:
        """The generator's return value; re-raises its exception."""
        if not self.finished:
            raise SimError(f"process {self.name!r} still running")
        if self._exc is not None:
            raise self._exc
        return self._result

    @property
    def failed(self) -> bool:
        """True when the process finished by raising."""
        return self.finished and self._exc is not None

    def subscribe(self, callback) -> None:
        """Awaitable interface: resume ``callback`` when the process ends."""
        if self.finished:
            self.engine.call_at(self.engine.now, callback, self._result, self._exc)
        else:
            self._waiters.append(callback)

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its next resume.

        Delivered at the current instant if the process is suspended; a
        no-op if it already finished. The awaitable the process was waiting
        on is abandoned: the epoch moves on here, so its firing is ignored
        even when it was queued ahead of the interrupt at the same instant.
        An interrupt before the first step fails the process with
        :class:`Interrupt`.
        """
        if self.finished:
            return
        self._epoch += 1
        self.engine.call_at(
            self.engine.now, self._step, self._epoch, None, Interrupt(cause)
        )
