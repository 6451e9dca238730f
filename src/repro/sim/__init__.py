"""Discrete-event simulation engine.

A small, deterministic, simpy-flavoured engine. Simulated activities are
generator functions that ``yield`` awaitables:

* :class:`~repro.sim.engine.Timeout` — advance virtual time,
* :class:`~repro.sim.engine.Event` — wait for an explicit trigger,
* :class:`~repro.sim.process.Process` — join another process,
* resource requests from :mod:`repro.sim.resources`.

Virtual time is an integer count of **nanoseconds**; nothing in the engine
ever consults the wall clock, so runs are bit-for-bit reproducible.
"""

from repro.sim import fidelity
from repro.sim.engine import Engine, Event, Timeout, SimError
from repro.sim.process import Process, Interrupt
from repro.sim.resources import Resource, Mutex, ResourceStats
from repro.sim.record import SeriesStats

__all__ = [
    "fidelity",
    "Engine",
    "Event",
    "Timeout",
    "SimError",
    "Process",
    "Interrupt",
    "Resource",
    "Mutex",
    "ResourceStats",
    "SeriesStats",
]
