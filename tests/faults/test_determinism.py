"""The fault layer's two determinism contracts.

1. Seeded reproducibility: same plan + same seed → byte-identical trace
   and identical end time, whatever the plan injects.
2. Zero-perturbation: arming an *empty* plan is byte-identical to not
   arming anything, in both fidelity modes.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults import CRASH, FaultEvent, FaultPlan
from repro.sim import fidelity
from repro.xemem import XememError, XememTimeout

from tests.faults.conftest import build_rig, table1_cycle


def _traced_cycle(plan):
    """Run one Table 1 cycle under ``plan``; returns (jsonl_bytes, end_ns)."""
    with obs.observing(trace=True, metrics=False, engine=False):
        rig = build_rig(plan=plan, with_audit=False)
        try:
            rig.engine.run_process(table1_cycle(rig))
        except (XememTimeout, XememError):
            pass  # aggressive plans may kill the cycle; determinism still holds
        rig.engine.run()
        out = io.StringIO()
        obs.get().tracer.to_jsonl(out)
        return out.getvalue(), rig.engine.now


def test_same_seed_same_bytes():
    plan = "drop=0.1,dup=0.1,delay=0.1:30us,corrupt=0.05,ipiloss=0.1," \
           "timeout=200us,retries=4,crash=kitten1@500us"
    a = _traced_cycle(FaultPlan.parse(plan, seed=7))
    b = _traced_cycle(FaultPlan.parse(plan, seed=7))
    assert a == b
    c = _traced_cycle(FaultPlan.parse(plan, seed=8))
    assert c != a  # the seed is actually consumed


def test_armed_empty_plan_is_byte_identical_to_disarmed():
    for ctx in (fidelity.fast, fidelity.detailed):
        with ctx():
            baseline = _traced_cycle(None)
            armed_empty = _traced_cycle(FaultPlan())
            assert armed_empty == baseline, f"perturbed under {ctx.__name__}"


def test_fault_run_chaos_reports_reproduce():
    from repro.faults.chaos import run_chaos

    a = run_chaos(seed=3, cokernels=2, ops=6)
    b = run_chaos(seed=3, cokernels=2, ops=6)
    assert a == b
    assert a.drained and a.live_processes == 0


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    crash_at_us=st.integers(0, 400),
    victim=st.integers(0, 1),
    drop=st.integers(0, 3),
    dup=st.integers(0, 3),
)
def test_random_crash_plans_always_drain(seed, crash_at_us, victim, drop, dup):
    """Whatever the plan does, the engine drains and no process leaks."""
    plan = FaultPlan(
        seed=seed,
        drop_prob=drop / 10, dup_prob=dup / 10,
        request_timeout_ns=100_000, max_retries=3,
        events=[FaultEvent(crash_at_us * 1_000, CRASH, f"kitten{victim}")],
    )
    rig = build_rig(plan=plan, with_audit=False)
    eng = rig.engine
    outcomes = []

    def client():
        try:
            yield from table1_cycle(rig)
            outcomes.append("ok")
        except (XememTimeout, XememError) as err:
            outcomes.append(type(err).__name__)

    eng.spawn(client(), name="client")
    eng.run()
    assert eng.queue_len == 0
    assert eng.live_processes == ()
    assert len(outcomes) == 1  # the client finished, one way or the other
    assert rig.engine.faults.counts["crashes"] == 1
