"""Probabilistic channel/IPI faults: recovery, dedup, and arming rules."""

import pytest

from repro.faults import FaultPlan, arm, disarm
from repro.xemem import XememTimeout

from tests.faults.conftest import build_rig, table1_cycle


def test_total_drop_times_out_and_drains():
    plan = FaultPlan.parse("drop=1.0,timeout=50us,retries=2", seed=0)
    rig = build_rig(plan=plan)
    with pytest.raises(XememTimeout) as exc:
        rig.engine.run_process(table1_cycle(rig))
    assert "unanswered after 3 attempt(s)" in str(exc.value)
    rig.engine.run()  # stale retry timers must drain cleanly
    assert rig.engine.queue_len == 0
    assert rig.engine.live_processes == ()
    injector = rig.engine.faults
    assert injector.counts["msgs_dropped"] > 0


def test_total_corruption_behaves_like_drop():
    plan = FaultPlan.parse("corrupt=1.0,timeout=50us,retries=1", seed=0)
    rig = build_rig(plan=plan)
    with pytest.raises(XememTimeout):
        rig.engine.run_process(table1_cycle(rig))
    rig.engine.run()
    assert rig.engine.queue_len == 0
    assert rig.engine.faults.counts["msgs_corrupted"] > 0


def test_total_duplication_is_deduplicated():
    """dup=1.0 doubles every delivery; req-id dedup must keep the owner's
    grant accounting exact (one grant per GET, fully released at the end)."""
    plan = FaultPlan.parse("dup=1.0,timeout=2ms,retries=2", seed=0)
    rig = build_rig(plan=plan)
    module, segid = rig.engine.run_process(table1_cycle(rig))
    rig.engine.run()
    seg = module.owner.segments[int(segid)]
    assert seg.grants_out == 0  # the duplicated RELEASE did not double-free
    assert rig.engine.faults.counts["msgs_duplicated"] > 0
    # a duplicated response for an already-answered req_id is dropped, not
    # raised — the run ends with no live processes and an intact auditor
    assert rig.engine.live_processes == ()
    if rig.auditor is not None:
        rig.auditor.audit_now(rig.engine.now)


def test_delay_slows_but_completes():
    baseline = build_rig()
    baseline.engine.run_process(table1_cycle(baseline))
    base_end = baseline.engine.now

    plan = FaultPlan.parse("delay=1.0:100us,timeout=50ms,retries=0", seed=0)
    rig = build_rig(plan=plan)
    module, segid = rig.engine.run_process(table1_cycle(rig))
    assert module.owner.segments[int(segid)].grants_out == 0
    assert rig.engine.now > base_end
    assert rig.engine.faults.counts["msgs_delayed"] > 0


def test_ipi_loss_is_retransmitted():
    plan = FaultPlan.parse("ipiloss=0.5,timeout=50ms,retries=0", seed=0)
    rig = build_rig(plan=plan)
    module, segid = rig.engine.run_process(table1_cycle(rig))
    assert module.owner.segments[int(segid)].grants_out == 0  # cycle completed
    assert rig.engine.faults.counts["ipi_lost"] > 0


def test_mixed_plan_with_audit():
    """A lossy-everything plan under the full invariant auditor."""
    plan = FaultPlan.parse(
        "drop=0.1,dup=0.1,delay=0.1:20us,corrupt=0.05,ipiloss=0.1,"
        "timeout=300us,retries=6", seed=4,
    )
    rig = build_rig(plan=plan, with_audit=True)
    rig.engine.run_process(table1_cycle(rig))
    rig.engine.run()
    assert rig.engine.queue_len == 0
    rig.auditor.audit_now(rig.engine.now)


def test_arm_twice_rejected_and_disarm():
    rig = build_rig()
    injector = arm(rig, FaultPlan.parse("drop=0.5"))
    with pytest.raises(RuntimeError):
        arm(rig, FaultPlan())
    assert disarm(rig) is injector
    assert rig.engine.faults is None
    # re-arming after a disarm is fine
    arm(rig, FaultPlan())


def test_empty_plan_is_inactive():
    rig = build_rig()
    injector = arm(rig, FaultPlan())
    assert not injector.active
    assert not injector.affects_messages and not injector.affects_ipi
    # no deadlines are armed: the module parks forever like the baseline
    module = rig.cokernels[0].module
    assert module._request_policy() == (None, 0, 1)
    # and no RNG draw ever happened (state equals a fresh seeded RNG)
    import random

    assert injector.rng.getstate() == random.Random(0).getstate()
