"""Differential tests with observability dark.

The benchmarks time the simulator with no observer attached: the engine
drains through its inlined loop and the fast paths skip their counter
updates. The scenarios of ``test_fidelity_diff`` run here in that
configuration, once in ``detailed`` and once in ``fast`` mode, and must
reach the same virtual end time and the same XEMEM module statistics —
and the same ones as their observed run.
"""

from repro import obs
from repro.sim import fidelity

from tests.sim.test_fidelity_diff import (
    _contended_scenario,
    _cross_enclave_scenario,
    _linux_local_scenario,
    _observed,
)


def _assert_dark_identical(scenario):
    assert not obs.get().enabled, "an ambient observer is attached"
    with fidelity.detailed():
        ref = scenario()
    with fidelity.fast():
        fast = scenario()
        observed, _, _ = _observed(scenario)
    assert fast == ref, "virtual end time or XEMEM stats diverged"
    assert observed == fast, "observability moved the fast run"


def test_cross_enclave_identical():
    _assert_dark_identical(_cross_enclave_scenario)


def test_linux_local_identical():
    _assert_dark_identical(_linux_local_scenario)


def test_contended_identical():
    _assert_dark_identical(_contended_scenario)
