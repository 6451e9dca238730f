"""Engine run-boundary semantics under both fidelity modes.

The engine binds no fidelity twin: the fast paths live in the page
table, the Pisces channel and the Linux fault handler. These tests pin
that down — the same event and process schedule must behave the same
when the run is scoped in ``fast`` (``fast=True``) or ``detailed`` mode.
"""

import pytest

from repro.sim import Engine, fidelity


def _mode(fast):
    return fidelity.fast() if fast else fidelity.detailed()


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_executes_events_exactly_at_boundary(fast):
    """Events scheduled exactly at until_ns run; the clock lands on until_ns."""
    with _mode(fast):
        eng = Engine()
        fired = []
        eng.call_at(50, fired.append, "early")
        eng.call_at(100, fired.append, "boundary")
        eng.call_at(101, fired.append, "late")
        eng.run(until_ns=100)
        assert fired == ["early", "boundary"]
        assert eng.now == 100
        assert eng.queue_len == 1
        eng.run()
        assert fired == ["early", "boundary", "late"]
        assert eng.now == 101


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_past_queue_advances_clock(fast):
    with _mode(fast):
        eng = Engine()
        eng.call_at(10, lambda: None)
        eng.run(until_ns=500)
        assert eng.now == 500


@pytest.mark.parametrize("fast", [True, False])
def test_processes_identical_under_both_paths(fast):
    """A process mix (timeouts, events) ends at the same instants."""
    with _mode(fast):
        eng = Engine()
        ev = eng.event("go")

        def pinger():
            yield eng.sleep(7)
            ev.trigger("ping")
            yield eng.sleep(5)
            return eng.now

        def waiter():
            got = yield ev
            yield eng.sleep(3)
            return (got, eng.now)

        p1 = eng.spawn(pinger())
        p2 = eng.spawn(waiter())
        eng.run()
        assert p1.result == 12
        assert p2.result == ("ping", 10)
