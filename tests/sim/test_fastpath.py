"""Fast-path flag plumbing and engine run-boundary semantics."""

import os
import subprocess
import sys

import pytest

from repro.obs import EngineObserver
from repro.sim import Engine, fastpath
from repro.sim.fastpath import FASTPATH


def test_flags_default_on():
    assert FASTPATH.ipi_batching
    assert FASTPATH.walk_cache
    assert FASTPATH.range_vectorize
    assert FASTPATH.fault_vectorize


def test_disabled_context_restores():
    with fastpath.disabled():
        assert not FASTPATH.ipi_batching
        assert not FASTPATH.walk_cache
    assert FASTPATH.ipi_batching
    assert FASTPATH.walk_cache


def test_configured_single_flag():
    with fastpath.configured(walk_cache=False):
        assert not FASTPATH.walk_cache
        assert FASTPATH.ipi_batching  # others untouched
    assert FASTPATH.walk_cache


def test_configured_rejects_unknown_flag():
    with pytest.raises(ValueError, match="unknown fast-path flag"):
        with fastpath.configured(warp_drive=True):
            pass


def test_configured_restores_on_exception():
    with pytest.raises(RuntimeError):
        with fastpath.configured(ipi_batching=False):
            raise RuntimeError("boom")
    assert FASTPATH.ipi_batching


def test_env_override_disables_all():
    code = (
        "from repro.sim.fastpath import FASTPATH; "
        "print(int(FASTPATH.any_enabled))"
    )
    env = dict(os.environ, REPRO_FASTPATH="0", PYTHONPATH="src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_executes_events_exactly_at_boundary(fast):
    """Events scheduled exactly at until_ns run; the clock lands on until_ns."""
    ctx = fastpath.enabled() if fast else fastpath.disabled()
    with ctx:
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


def test_run_until_boundary_same_under_observer():
    """An observed engine drains through step(), not the inlined loop;
    the until_ns boundary must behave identically."""
    eng = Engine(obs=EngineObserver())
    fired = []
    eng.call_at(50, fired.append, "early")
    eng.call_at(100, fired.append, "boundary")
    eng.call_at(101, fired.append, "late")
    eng.run(until_ns=100)
    assert fired == ["early", "boundary"]
    assert eng.now == 100
    assert eng.queue_len == 1
    eng.run(until_ns=500)
    assert fired == ["early", "boundary", "late"]
    assert eng.now == 500


@pytest.mark.parametrize("fast", [True, False])
def test_run_until_past_queue_advances_clock(fast):
    ctx = fastpath.enabled() if fast else fastpath.disabled()
    with ctx:
        eng = Engine()
        eng.call_at(10, lambda: None)
        eng.run(until_ns=500)
        assert eng.now == 500


@pytest.mark.parametrize("fast", [True, False])
def test_processes_identical_under_both_paths(fast):
    """A process mix (timeouts, events, interrupts) ends at the same instant."""
    ctx = fastpath.enabled() if fast else fastpath.disabled()
    with ctx:
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
