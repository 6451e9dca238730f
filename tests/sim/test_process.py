"""Unit tests for Process semantics: joins, results, errors, interrupts."""

import pytest

from repro.sim import Engine, Interrupt, SimError


def test_process_return_value():
    eng = Engine()

    def proc():
        yield eng.sleep(1)
        return 99

    assert eng.run_process(proc()) == 99


def test_process_join_gets_result():
    eng = Engine()

    def child():
        yield eng.sleep(10)
        return "done"

    def parent():
        c = eng.spawn(child())
        got = yield c
        return (eng.now, got)

    assert eng.run_process(parent()) == (10, "done")


def test_join_already_finished_process():
    eng = Engine()

    def child():
        yield eng.sleep(1)
        return "early"

    def parent(c):
        yield eng.sleep(100)
        got = yield c
        return got

    c = eng.spawn(child())
    assert eng.run_process(parent(c)) == "early"


def test_child_exception_propagates_to_joiner():
    eng = Engine()

    def child():
        yield eng.sleep(1)
        raise RuntimeError("child died")

    def parent():
        c = eng.spawn(child())
        with pytest.raises(RuntimeError, match="child died"):
            yield c
        return "survived"

    assert eng.run_process(parent()) == "survived"


def test_unjoined_failure_surfaces_from_run():
    eng = Engine()

    def proc():
        yield eng.sleep(1)
        raise ValueError("unobserved")

    eng.spawn(proc())
    with pytest.raises(ValueError, match="unobserved"):
        eng.run()


def test_result_before_finish_raises():
    eng = Engine()

    def proc():
        yield eng.sleep(1)

    p = eng.spawn(proc())
    with pytest.raises(SimError):
        _ = p.result


def test_interrupt_wakes_sleeping_process():
    eng = Engine()

    def sleeper():
        try:
            yield eng.sleep(1_000_000)
            return "slept"
        except Interrupt as intr:
            return ("interrupted", intr.cause, eng.now)

    def interrupter(target):
        yield eng.sleep(5)
        target.interrupt(cause="wakeup")

    p = eng.spawn(sleeper())
    eng.spawn(interrupter(p))
    eng.run()
    assert p.result == ("interrupted", "wakeup", 5)


def test_stale_wakeup_after_interrupt_is_ignored():
    """The abandoned sleep must not resume the process a second time."""
    eng = Engine()
    resumes = []

    def sleeper():
        try:
            yield eng.sleep(100)
        except Interrupt:
            pass
        resumes.append(eng.now)
        yield eng.sleep(500)
        resumes.append(eng.now)

    def interrupter(target):
        yield eng.sleep(10)
        target.interrupt()

    p = eng.spawn(sleeper())
    eng.spawn(interrupter(p))
    eng.run()
    assert p.finished
    # exactly one resume from the interrupt (t=10) and one from the
    # follow-up sleep (t=510); the abandoned t=100 wakeup did nothing.
    assert resumes == [10, 510]


def test_interrupt_at_a_queued_wakeup_ns_is_delivered_once():
    """The sleep's wakeup is queued ahead of the interrupt at the same ns;
    the interrupt still lands and the wakeup is ignored."""
    eng = Engine()
    resumes = []

    def sleeper():
        try:
            yield eng.sleep(10)
            resumes.append(("woke", eng.now))
        except Interrupt as intr:
            resumes.append(("interrupted", intr.cause, eng.now))
        yield eng.sleep(500)
        resumes.append(("slept", eng.now))

    def interrupter():
        yield eng.sleep(10)  # runs first at t=10: spawned first
        p.interrupt("stop")  # queued behind the sleeper's t=10 wakeup

    eng.spawn(interrupter())
    p = eng.spawn(sleeper())
    eng.run()
    assert p.finished and not p.failed
    assert resumes == [("interrupted", "stop", 10), ("slept", 510)]


def test_interrupt_before_first_step_fails_the_process():
    eng = Engine()
    ran = []

    def proc():
        ran.append(eng.now)
        yield eng.sleep(1)

    def parent():
        child = eng.spawn(proc())
        child.interrupt("early")
        try:
            yield child
        except Interrupt as intr:
            return ("failed", intr.cause, eng.now)

    assert eng.run_process(parent()) == ("failed", "early", 0)
    assert ran == []


def test_interrupt_finished_process_is_noop():
    eng = Engine()

    def proc():
        yield eng.sleep(1)
        return "ok"

    p = eng.spawn(proc())
    eng.run()
    p.interrupt()
    eng.run()
    assert p.result == "ok"


def test_nested_yield_from():
    eng = Engine()

    def inner():
        yield eng.sleep(10)
        return 5

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    def main():
        got = yield from outer()
        return (got, eng.now)

    assert eng.run_process(main()) == (10, 20)


def test_many_processes_deterministic():
    def run_once():
        eng = Engine()
        log = []

        def worker(i):
            yield eng.sleep(i % 7)
            log.append(i)
            yield eng.sleep((i * 13) % 5)
            log.append(-i)

        for i in range(50):
            eng.spawn(worker(i))
        eng.run()
        return log

    assert run_once() == run_once()


def test_process_timestamps():
    eng = Engine()

    def starter():
        yield eng.sleep(40)
        p = eng.spawn(child())
        yield p
        return p

    def child():
        yield eng.sleep(60)

    p = eng.run_process(starter())
    assert p.started_at == 40
    assert p.finished_at == 100
