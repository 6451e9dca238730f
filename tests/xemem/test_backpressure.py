"""Client-side backpressure on a real rig: retry-after pacing, the
circuit breaker, the retry budget, and an unarmed client facing an
armed owner.

Every case drives real ``XememModule`` requests through the name server
to a Kitten owner (``tests.xemem.conftest.build_system``); saturation is
produced by occupying the owner's admission controller through its
public ``try_admit``.
"""

import pytest

from repro import obs
from repro.faults import inject
from repro.faults.plan import FaultPlan
from repro.hw.costs import PAGE_4K
from repro.xemem import commands as C
from repro.xemem.ids import XememOverload, XememTimeout
from repro.xemem.overload import SERVE, OverloadConfig, arm_overload

from tests.xemem.conftest import build_system


def _rig_with_segment():
    """Linux (NS) + kitten0 exporting one page; returns (rig, segid)."""
    rig = build_system(num_cokernels=1)
    kitten = rig["cokernels"][0]
    kp = kitten.kernel.create_process("exp")
    heap = kitten.kernel.heap_region(kp)
    seg = rig["engine"].run_process(kitten.module.make(kp, heap.start, PAGE_4K))
    return rig, seg.segid


def _saturate(controller):
    """Fill every serve slot and the whole queue of ``controller`` (the
    probe that finds it full counts one rejection); returns how many
    admissions now hold it (one release each frees it)."""
    held = 0
    while True:
        verdict, _ = controller.try_admit(C.ATTACH_REQ)
        if verdict is not None and verdict != SERVE:
            return held
        held += 1


def _counter(name):
    return obs.get().metrics.counter(name).value


def test_rejections_are_retried_after_the_hinted_pause():
    rig, segid = _rig_with_segment()
    eng = rig["engine"]
    cfg = OverloadConfig.parse("clientretries=1,retryafter=100us,jitter=0")
    armed = arm_overload(rig["modules"], cfg)
    owner = armed["kitten0"].controller
    held = _saturate(owner)
    linux = rig["linux"]
    lp = linux.kernel.create_process("client", core_id=2)

    def drain():
        # free the owner well inside the hinted 100 us pause
        yield eng.sleep(50_000)
        for _ in range(held):
            owner.release()

    with obs.observing(trace=False, metrics=True, engine=False):
        t0 = eng.now
        eng.spawn(drain(), name="drain")
        apid = eng.run_process(linux.module.get(lp, segid, write=False))
        assert apid is not None
        assert eng.now - t0 >= cfg.retry_after_ns
        assert _counter("xemem.req.backpressured") == 1
    assert owner.rejected == 2  # the saturation probe, then the client


def test_rejection_without_retries_raises_still_overloaded():
    rig, segid = _rig_with_segment()
    eng = rig["engine"]
    cfg = OverloadConfig.parse("clientretries=0")
    armed = arm_overload(rig["modules"], cfg)
    owner = armed["kitten0"].controller
    _saturate(owner)
    linux = rig["linux"]
    lp = linux.kernel.create_process("client", core_id=2)
    with obs.observing(trace=False, metrics=True, engine=False):
        with pytest.raises(XememOverload,
                           match="still overloaded after 1 attempt"):
            eng.run_process(linux.module.get(lp, segid, write=False))
        assert _counter("xemem.req.backpressured") == 1
        assert _counter("xemem.req.retries") == 0
    assert owner.rejected == 2  # the saturation probe, then the client


def test_open_breaker_fails_fast_without_sending():
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    kitten = rig["cokernels"][0].module
    arm_overload(rig["modules"], OverloadConfig.parse("breaker=1"))
    injector = inject.arm(
        eng, FaultPlan(drop_prob=1.0, request_timeout_ns=100_000, max_retries=0)
    )
    with pytest.raises(XememTimeout):
        eng.run_process(kitten.lookup("nothing"))
    dropped = injector.counts["msgs_dropped"]
    assert dropped == 1
    with pytest.raises(XememOverload) as err:
        eng.run_process(kitten.lookup("nothing"))
    assert err.value.verdict == "breaker-open"
    assert err.value.retry_after_ns > 0
    assert injector.counts["msgs_dropped"] == dropped


def test_exhausted_budget_stops_timeout_retries():
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    kitten = rig["cokernels"][0].module
    arm_overload(rig["modules"], OverloadConfig.parse("budget=0"))
    injector = inject.arm(
        eng, FaultPlan(drop_prob=1.0, request_timeout_ns=100_000, max_retries=3)
    )
    with obs.observing(trace=False, metrics=True, engine=False):
        with pytest.raises(XememOverload) as err:
            eng.run_process(kitten.lookup("nothing"))
        assert err.value.verdict == "budget-exhausted"
        assert _counter("xemem.req.timeouts") == 1
        assert _counter("xemem.req.retries") == 0
    assert injector.counts["msgs_dropped"] == 1
    assert kitten.overload.budget.exhausted == 1


def test_unarmed_client_surfaces_the_owner_rejection_once():
    rig, segid = _rig_with_segment()
    eng = rig["engine"]
    kitten = rig["modules"]["kitten0"]
    armed = arm_overload({"kitten0": kitten}, OverloadConfig.parse("clientretries=4"))
    owner = armed["kitten0"].controller
    _saturate(owner)
    offered = owner.offered
    linux = rig["linux"]
    assert linux.module.overload is None
    lp = linux.kernel.create_process("client", core_id=2)
    with obs.observing(trace=False, metrics=True, engine=False):
        with pytest.raises(XememOverload, match="overloaded: reject") as err:
            eng.run_process(linux.module.get(lp, segid, write=False))
        assert err.value.verdict == "reject"
        assert _counter("xemem.req.backpressured") == 0
        assert _counter("xemem.req.retries") == 0
    assert owner.offered == offered + 1
    assert owner.rejected == 2  # the saturation probe, then the client
