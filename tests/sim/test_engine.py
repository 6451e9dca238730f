"""Unit tests for the discrete-event engine core."""

import pytest

from repro.sim import Engine, SimError
from repro.sim.engine import NS_PER_SEC


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0


def test_sleep_advances_virtual_time():
    eng = Engine()

    def proc():
        yield eng.sleep(123)
        return eng.now

    assert eng.run_process(proc()) == 123


def test_sleep_zero_is_allowed():
    eng = Engine()

    def proc():
        yield eng.sleep(0)
        return eng.now

    assert eng.run_process(proc()) == 0


def test_negative_sleep_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        eng.sleep(-1)


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def proc(delay, tag):
        yield eng.sleep(delay)
        order.append(tag)

    eng.spawn(proc(30, "c"))
    eng.spawn(proc(10, "a"))
    eng.spawn(proc(20, "b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_same_instant_events_fire_in_schedule_order():
    eng = Engine()
    order = []

    def proc(tag):
        yield eng.sleep(5)
        order.append(tag)

    for tag in "abcde":
        eng.spawn(proc(tag))
    eng.run()
    assert order == list("abcde")


def test_cannot_schedule_in_the_past():
    eng = Engine()

    def proc():
        yield eng.sleep(100)
        eng.call_at(50, lambda: None)

    with pytest.raises(SimError):
        eng.run_process(proc())


def test_run_until_stops_clock_exactly():
    eng = Engine()

    def proc():
        yield eng.sleep(1000)

    eng.spawn(proc())
    eng.run(until_ns=400)
    assert eng.now == 400
    assert eng.queue_len == 1  # the pending wakeup survives
    eng.run()
    assert eng.now == 1000


def test_run_until_beyond_queue_advances_clock():
    eng = Engine()
    eng.run(until_ns=999)
    assert eng.now == 999


def test_event_trigger_resumes_waiter_with_value():
    eng = Engine()
    ev = eng.event("e")

    def waiter():
        got = yield ev
        return got

    def firer():
        yield eng.sleep(7)
        ev.trigger("payload")

    p = eng.spawn(waiter())
    eng.spawn(firer())
    eng.run()
    assert p.result == "payload"
    assert p.finished_at == 7


def test_event_yield_after_trigger_resumes_immediately():
    eng = Engine()
    ev = eng.event()

    def proc():
        yield eng.sleep(3)
        got = yield ev  # already triggered at t=0
        return (eng.now, got)

    ev.trigger(42)
    assert eng.run_process(proc()) == (3, 42)


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.trigger()
    with pytest.raises(SimError):
        ev.trigger()


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "handled"

    p = eng.spawn(waiter())
    ev.fail(ValueError("boom"))
    eng.run()
    assert p.result == "handled"


def test_all_of_collects_values_in_order():
    eng = Engine()

    def worker(delay, value):
        yield eng.sleep(delay)
        return value

    def main():
        procs = [eng.spawn(worker(30, "x")), eng.spawn(worker(10, "y"))]
        results = yield eng.all_of(procs)
        return results

    assert eng.run_process(main()) == ["x", "y"]


def test_all_of_empty_fires_immediately():
    eng = Engine()

    def main():
        results = yield eng.all_of([])
        return (eng.now, results)

    assert eng.run_process(main()) == (0, [])


def test_any_of_returns_first_index_and_value():
    eng = Engine()

    def worker(delay, value):
        yield eng.sleep(delay)
        return value

    def main():
        a = eng.spawn(worker(50, "slow"))
        b = eng.spawn(worker(5, "fast"))
        idx, val = yield eng.any_of([a, b])
        return idx, val, eng.now

    # run() continues until the slow worker finishes too
    assert eng.run_process(main()) == (1, "fast", 5)


def test_any_of_nothing_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        eng.any_of([])


def test_ns_per_sec_constant():
    assert NS_PER_SEC == 10**9


def test_run_process_detects_deadlock():
    eng = Engine()

    def proc():
        yield eng.event()  # never triggered

    with pytest.raises(SimError, match="did not finish"):
        eng.run_process(proc())


def test_yielding_non_awaitable_fails_process():
    eng = Engine()

    def proc():
        yield 42

    with pytest.raises(SimError, match="must yield Awaitable"):
        eng.run_process(proc())


def _sleeper(eng, delay):
    yield eng.sleep(delay)


def test_live_processes_stay_in_spawn_order_when_finishing_out_of_order():
    eng = Engine()
    p40, p10, p30, p20 = (
        eng.spawn(_sleeper(eng, d), name=f"p{d}") for d in (40, 10, 30, 20)
    )
    assert eng.live_processes == (p40, p10, p30, p20)
    eng.run(until_ns=15)
    assert eng.live_processes == (p40, p30, p20)
    eng.run(until_ns=25)
    assert eng.live_processes == (p40, p30)
    eng.run()
    assert eng.live_processes == ()


def test_state_summary_lists_live_process_names_sorted():
    eng = Engine()
    for name, delay in (("gamma", 30), ("alpha", 10), ("beta", 20), ("delta", 40)):
        eng.spawn(_sleeper(eng, delay), name=name)
    assert eng.state_summary()["live_processes"] == ["alpha", "beta", "delta", "gamma"]
    eng.run(until_ns=25)
    assert eng.state_summary()["live_processes"] == ["delta", "gamma"]


def test_process_finished_twice_is_an_engine_error():
    eng = Engine()
    proc = eng.spawn(_sleeper(eng, 5), name="once")
    eng.run()
    with pytest.raises(SimError, match="'once' finished twice or was never spawned"):
        eng._process_finished(proc)
