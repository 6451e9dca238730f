"""Unit tests for the overload-protection layer (repro.xemem.overload):
config spec parsing, the four-class admission ladder, CoDel shedding,
the client-side retry budget and circuit breaker, the degradation
ladder, and the arm/disarm lifecycle."""

import types

import pytest

from repro.sim import Engine
from repro.xemem import commands as C
from repro.xemem.nameserver import NameServer
from repro.xemem.overload import (
    CLASS_ATTACH, CLASS_DISCOVERY, CLASS_NEW, CLASS_RELEASE,
    CLOSED, HALF_OPEN, OPEN, REJECT, SERVE, SHED,
    AdmissionController, CircuitBreaker, ModuleOverload, OverloadConfig,
    RetryBudget, admission_totals, arm_overload, disarm_overload,
    priority_class,
)

from tests.xemem.conftest import build_system


class Clock:
    """Just enough engine for the clock-only components."""

    def __init__(self, now=0):
        self.now = now  # repro: noqa[REP006] reason=test clock stub for clock-only components (breaker/budget); no engine events involved


# -- config spec -------------------------------------------------------------

def test_config_parse_full_spec():
    cfg = OverloadConfig.parse(
        "policy=codel,workers=2,qcap=16,codeltarget=40us,codelint=80us,"
        "retryafter=100us,jitter=20us,budget=12,budgetwin=1ms,"
        "breaker=6,open=500us,clientretries=3,stalettl=250us,"
        "shedfill=0.4,gcfill=0.9",
        seed=7,
    )
    assert cfg.seed == 7
    assert cfg.policy == "codel"
    assert cfg.workers == 2
    assert cfg.queue_cap == 16
    assert cfg.codel_target_ns == 40_000
    assert cfg.codel_interval_ns == 80_000
    assert cfg.retry_after_ns == 100_000
    assert cfg.retry_jitter_ns == 20_000
    assert cfg.retry_budget == 12
    assert cfg.retry_budget_window_ns == 1_000_000
    assert cfg.breaker_threshold == 6
    assert cfg.breaker_open_ns == 500_000
    assert cfg.max_client_retries == 3
    assert cfg.stale_lookup_ttl_ns == 250_000
    assert cfg.shed_discovery_fill == 0.4
    assert cfg.defer_gc_fill == 0.9


def test_config_parse_rejects_junk():
    with pytest.raises(ValueError):
        OverloadConfig.parse("frobnicate=1")
    with pytest.raises(ValueError):
        OverloadConfig.parse("qcap")
    with pytest.raises(ValueError):
        OverloadConfig.parse("policy=lifo")
    with pytest.raises(ValueError):
        OverloadConfig.parse("workers=0")
    with pytest.raises(ValueError):
        OverloadConfig.parse("shedfill=1.5")


# -- priority classes --------------------------------------------------------

def test_priority_class_ladder():
    assert priority_class(C.RELEASE_REQ) == CLASS_RELEASE
    assert priority_class(C.REMOVE_SEGID) == CLASS_RELEASE
    assert priority_class(C.ENCLAVE_DEPART) == CLASS_RELEASE
    assert priority_class(C.ATTACH_REQ) == CLASS_ATTACH
    assert priority_class(C.SIGNAL_REQ) == CLASS_ATTACH
    assert priority_class(C.GET_REQ) == CLASS_NEW
    assert priority_class(C.ALLOC_SEGID) == CLASS_NEW
    assert priority_class(C.LOOKUP_NAME) == CLASS_DISCOVERY
    assert priority_class(C.LIST_NAMES) == CLASS_DISCOVERY
    # the freeing class must always outrank the others (anti-livelock)
    assert CLASS_RELEASE < CLASS_ATTACH < CLASS_NEW < CLASS_DISCOVERY


# -- admission: fail-fast ----------------------------------------------------

def _drive(cfg, arrivals, service_ns=10_000):
    """Run one controller through ``arrivals`` = [(gap_ns, kind), ...];
    returns (controller, verdicts-in-arrival-order)."""
    eng = Engine()
    ctrl = AdmissionController(cfg, eng, "t")
    verdicts = {}

    def req(i, kind):
        verdict = yield from ctrl.admit(kind)
        verdicts[i] = verdict
        if verdict == SERVE:
            yield eng.sleep(service_ns)
            ctrl.release()

    def root():
        for i, (gap, kind) in enumerate(arrivals):
            if gap:
                yield eng.sleep(gap)
            eng.spawn(req(i, kind), name=f"req{i}")
        yield eng.sleep(0)

    eng.run_process(root(), name="root")
    eng.run()
    return ctrl, [verdicts[i] for i in range(len(arrivals))]


def test_fail_fast_bounds_the_queue():
    cfg = OverloadConfig(policy="fail-fast", workers=1, queue_cap=4)
    # 8 new-flow requests at t=0: 1 serves, new-class cap (4 - 4//4 = 3)
    # park, the rest fail fast; the queue then drains in order.
    ctrl, verdicts = _drive(cfg, [(0, C.GET_REQ)] * 8)
    assert verdicts.count(SERVE) == 4
    assert verdicts.count(REJECT) == 4
    assert ctrl.offered == 8
    assert ctrl.admitted == 4 and ctrl.rejected == 4
    assert ctrl.completed == 4 and ctrl.waiting == 0
    assert ctrl.peak_waiting == 3  # never above the class cap


def test_release_class_admits_when_new_class_is_full():
    cfg = OverloadConfig(policy="fail-fast", workers=1, queue_cap=4)
    # Fill the new-flow share of the queue, then offer a release: the
    # headroom reserve must still admit it, and it must dispatch before
    # every queued GET despite arriving last.
    order = []
    eng = Engine()
    ctrl = AdmissionController(cfg, eng, "t")

    def req(tag, kind):
        verdict = yield from ctrl.admit(kind)
        if verdict == SERVE:
            order.append(tag)
            yield eng.sleep(1_000)
            ctrl.release()
        else:
            order.append(f"{tag}:{verdict}")

    for i in range(5):  # 1 serves + 3 park (new cap) + 1 rejected
        eng.spawn(req(f"get{i}", C.GET_REQ), name=f"get{i}")
    eng.spawn(req("rel", C.RELEASE_REQ), name="rel")
    eng.run()
    assert order[0] == "get0"
    assert "get4:reject" in order
    assert order.index("rel") < order.index("get1")  # frees jump the line
    assert ctrl.offered == 6
    assert ctrl.admitted + ctrl.rejected == 6


def test_discovery_share_is_smallest():
    cfg = OverloadConfig(policy="fail-fast", workers=1, queue_cap=8)
    # discovery cap = 8 // 2 = 4: one serves, four park, the rest fail
    # fast — while the same queue still takes new-flow traffic, whose
    # share (8 - 8//4 = 6) is larger.
    ctrl, verdicts = _drive(cfg, [(0, C.LOOKUP_NAME)] * 7 + [(0, C.GET_REQ)])
    assert verdicts[:7].count(REJECT) == 2
    assert verdicts[7] == SERVE  # GET parked fine behind discovery


# -- admission: CoDel --------------------------------------------------------

def test_codel_sheds_standing_queue_but_never_frees():
    cfg = OverloadConfig(
        policy="codel", workers=1, queue_cap=10,
        codel_target_ns=10_000, codel_interval_ns=20_000,
    )
    # Service time 15us > target: sojourn stays above target, so once a
    # full interval elapses the dispatcher starts shedding new-flow
    # waiters — but the queued release must still be served.
    arrivals = [(0, C.GET_REQ)] * 7 + [(0, C.RELEASE_REQ)]
    ctrl, verdicts = _drive(cfg, arrivals, service_ns=15_000)
    assert SHED in verdicts[:7]
    assert verdicts[7] == SERVE  # release-class is CoDel-exempt
    assert ctrl.offered == 8
    assert ctrl.admitted + ctrl.rejected + ctrl.shed == 8


def test_fail_fast_never_sheds():
    cfg = OverloadConfig(policy="fail-fast", workers=1, queue_cap=10)
    ctrl, verdicts = _drive(cfg, [(0, C.GET_REQ)] * 8, service_ns=50_000)
    assert SHED not in verdicts
    assert ctrl.shed == 0


# -- admission: crash semantics ---------------------------------------------

def test_fail_all_aborts_parked_waiters():
    eng = Engine()
    cfg = OverloadConfig(policy="fail-fast", workers=1, queue_cap=8)
    ctrl = AdmissionController(cfg, eng, "t")
    outcomes = []

    def req(i):
        try:
            verdict = yield from ctrl.admit(C.GET_REQ)
            outcomes.append(verdict)
            if verdict == SERVE:
                yield eng.sleep(50_000)
                ctrl.release()
        except RuntimeError:
            outcomes.append("aborted")

    def killer():
        yield eng.sleep(5_000)
        ctrl.fail_all(RuntimeError("enclave crashed"))

    for i in range(4):
        eng.spawn(req(i), name=f"req{i}")
    eng.spawn(killer(), name="killer")
    eng.run()
    assert outcomes.count("aborted") == 3
    assert ctrl.aborted == 3 and ctrl.waiting == 0
    assert ctrl.offered == ctrl.admitted + ctrl.rejected + ctrl.shed + ctrl.aborted


# -- deterministic hints -----------------------------------------------------

def test_retry_hints_are_seeded_and_deterministic():
    eng = Engine()
    cfg = OverloadConfig(seed=7)
    a = AdmissionController(cfg, eng, "ns")
    b = AdmissionController(cfg, eng, "ns")
    seq_a = [a.retry_hint_ns() for _ in range(8)]
    seq_b = [b.retry_hint_ns() for _ in range(8)]
    assert seq_a == seq_b
    other = AdmissionController(OverloadConfig(seed=8), eng, "ns")
    assert [other.retry_hint_ns() for _ in range(8)] != seq_a
    assert all(h >= cfg.retry_after_ns for h in seq_a)


# -- retry budget ------------------------------------------------------------

def test_retry_budget_spends_and_refills_per_window():
    clk = Clock()
    cfg = OverloadConfig(retry_budget=2, retry_budget_window_ns=1_000)
    budget = RetryBudget(cfg, clk)
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()
    assert budget.exhausted == 1
    clk.now = 1_000  # a new window refills the bucket # repro: noqa[REP006] reason=test clock stub for clock-only components (breaker/budget); no engine events involved
    assert budget.try_spend()


# -- circuit breaker ---------------------------------------------------------

def test_breaker_state_machine():
    clk = Clock()
    cfg = OverloadConfig(breaker_threshold=3, breaker_open_ns=100)
    breaker = CircuitBreaker(cfg, clk, "t")
    assert breaker.allow() and breaker.state == CLOSED
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED  # below threshold
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()  # fast fail while open
    assert breaker.retry_after_ns() == 100
    clk.now = 100  # repro: noqa[REP006] reason=test clock stub for clock-only components (breaker/budget); no engine events involved
    assert breaker.allow()  # half-open: exactly one probe
    assert breaker.state == HALF_OPEN
    assert not breaker.allow()
    breaker.record_failure()  # probe failed: re-open
    assert breaker.state == OPEN
    clk.now = 250  # repro: noqa[REP006] reason=test clock stub for clock-only components (breaker/budget); no engine events involved
    assert breaker.allow()
    breaker.record_success()  # probe succeeded: closed
    assert breaker.state == CLOSED
    assert breaker.opens == 2


def test_breaker_success_resets_failure_streak():
    clk = Clock()
    cfg = OverloadConfig(breaker_threshold=3, breaker_open_ns=100)
    breaker = CircuitBreaker(cfg, clk, "t")
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # streak broken — only *consecutive* count
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED


# -- degradation ladder ------------------------------------------------------

def _fake_module(eng, name="ns"):
    return types.SimpleNamespace(
        engine=eng, enclave=types.SimpleNamespace(name=name), overload=None,
        nameserver=NameServer(),
    )


def test_refresh_level_follows_queue_fill():
    eng = Engine()
    cfg = OverloadConfig(workers=1, queue_cap=9,
                         shed_discovery_fill=0.5, defer_gc_fill=0.8)
    ov = ModuleOverload(cfg, _fake_module(eng))
    assert ov.refresh_level() == 0
    ov.controller.in_service = 5  # fill 5/10
    assert ov.refresh_level() == 1
    ov.controller.in_service = 8  # fill 8/10
    assert ov.refresh_level() == 2
    ov.controller.in_service = 0
    assert ov.refresh_level() == 0
    assert ov.module.nameserver.ladder.level_transitions == 3


def test_module_jitter_is_seeded_per_enclave():
    eng = Engine()
    cfg = OverloadConfig(seed=3, retry_jitter_ns=10_000)
    a = ModuleOverload(cfg, _fake_module(eng, "kitten0"))
    b = ModuleOverload(cfg, _fake_module(eng, "kitten0"))
    c = ModuleOverload(cfg, _fake_module(eng, "kitten1"))
    seq = [a.jitter_ns() for _ in range(8)]
    assert seq == [b.jitter_ns() for _ in range(8)]
    assert seq != [c.jitter_ns() for _ in range(8)]


# -- arm / disarm lifecycle --------------------------------------------------

def test_arm_disarm_lifecycle(basic):
    modules = basic["modules"]
    assert all(m.overload is None for m in modules.values())
    armed = arm_overload(modules, OverloadConfig(seed=0))
    assert sorted(armed) == sorted(modules)
    assert all(m.overload is armed[n] for n, m in modules.items())
    with pytest.raises(ValueError):
        arm_overload(modules, OverloadConfig(seed=0))  # double-arm
    totals = admission_totals(modules)
    assert totals["offered"] == 0 and totals["admitted"] == 0
    disarm_overload(modules)
    assert all(m.overload is None for m in modules.values())
    assert admission_totals(modules) == {}


def test_admission_totals_sums_across_modules(basic):
    modules = basic["modules"]
    arm_overload(modules, OverloadConfig(seed=0))
    names = sorted(modules)
    modules[names[0]].overload.controller.count_served_direct()
    modules[names[1]].overload.controller.count_shed_direct()
    totals = admission_totals(modules)
    assert totals["offered"] == 2
    assert totals["admitted"] == 1 and totals["shed"] == 1
