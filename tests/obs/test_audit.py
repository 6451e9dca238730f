"""Tests for the runtime invariant auditor and its audit cadence."""

import pytest

from repro import obs
from repro.bench.configs import build_cokernel_system
from repro.hw.costs import MB
from repro.obs import EngineObserver
from repro.obs.audit import (
    Auditor,
    AuditViolation,
    env_enabled,
    env_interval_ns,
)
from repro.sim import Engine, fidelity
from repro.xemem import XpmemApi


def _attach_scenario(rig, detach=True):
    """One Fig. 3 cross-enclave attach on the standard rig."""
    eng = rig.engine
    kitten = rig.cokernels[0].kernel
    linux = rig.linux.kernel
    kp = kitten.create_process("sim")
    lp = linux.create_process("ana", core_id=2)
    heap = kitten.heap_region(kp)

    def run():
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, 1 * MB)
        apid = yield from api_l.xpmem_get(segid)
        att = yield from api_l.xpmem_attach(apid)
        yield from linux.touch_pages(lp, att.vaddr, att.npages)
        if detach:
            yield from api_l.xpmem_detach(att)
            yield from api_l.xpmem_release(apid)

    eng.run_process(run())
    return kp, lp


# -- clean runs ----------------------------------------------------------------

def test_clean_rig_audits_clean():
    rig = build_cokernel_system(with_audit=True)
    assert rig.auditor is not None
    _attach_scenario(rig)
    auditor = rig.auditor
    assert auditor.audits_run > 0
    assert auditor.violations_found == 0
    # an explicit full audit (including quiescent checks) is also clean
    auditor.audit_now(now_ns=rig.engine.now, quiescent=True)


def test_audit_does_not_perturb_the_simulation():
    plain = build_cokernel_system(with_audit=False)
    _attach_scenario(plain)
    audited = build_cokernel_system(with_audit=True)
    _attach_scenario(audited)
    assert audited.engine.now == plain.engine.now
    assert (audited.linux.module.stats == plain.linux.module.stats)


# -- injected violations -------------------------------------------------------

def test_injected_refcount_imbalance_detected_with_span_context():
    with obs.observing(trace=True):
        rig = build_cokernel_system(with_audit=True)
        _attach_scenario(rig, detach=False)
        auditor = rig.auditor
        assert auditor.tracer is not None
        # corrupt: the owner forgets it handed out the grant
        module = rig.cokernels[0].module
        (segid,) = module.owner.segments
        module.owner.segments[segid].grants_out = 0
        with pytest.raises(AuditViolation) as ei:
            auditor.audit_now(now_ns=rig.engine.now, quiescent=True)
    v = ei.value
    assert v.invariant == "refcount-balance"
    assert v.time_ns == rig.engine.now
    assert v.recent_spans, "violation must carry span context"
    assert any(name.startswith("xemem.") for name, _ in v.recent_spans)
    assert "refcount-balance" in str(v)
    assert "recent:" in str(v)


def test_dangling_attachments_and_released_grant_detected():
    rig = build_cokernel_system(with_audit=True)
    _attach_scenario(rig, detach=False)
    attacher = rig.linux.module.attacher
    attacher.attachments[99999] = [object()] * 3  # live attachments, no grant
    violations = rig.auditor.check()
    assert any("3 live attachments but no grant" in v.detail for v in violations)
    del attacher.attachments[99999]
    (grant,) = attacher.grants.values()
    grant.released = True  # released, yet still registered
    violations = rig.auditor.check()
    assert any("released but still registered" in v.detail for v in violations)


def test_mapped_pfn_on_free_list_detected():
    rig = build_cokernel_system(with_audit=True)
    kp, _ = _attach_scenario(rig)
    kitten = rig.cokernels[0].kernel
    pfns = kp.aspace.table.present_pfns()
    p = int(pfns[0])
    kitten.allocator._free.append([p, p + 1])
    kitten.allocator._free.sort()
    violations = rig.auditor.check()
    assert any(v.invariant == "frame-exclusivity" for v in violations)


def test_free_run_outside_window_detected():
    rig = build_cokernel_system(with_audit=True)
    alloc = rig.cokernels[0].kernel.allocator
    alloc._free.insert(0, [alloc.start_pfn - 8, alloc.start_pfn - 4])
    violations = rig.auditor.check()
    assert any("outside" in v.detail for v in violations)


def test_region_populated_drift_detected():
    rig = build_cokernel_system(with_audit=True)
    kp, _ = _attach_scenario(rig)
    region = kp.aspace.regions[0]
    region.populated -= 1
    violations = rig.auditor.check()
    assert any(v.invariant == "pte-region" for v in violations)


def test_stale_walk_cache_pfns_detected():
    with fidelity.fast():  # the walk cache is a fast-mode twin
        rig = build_cokernel_system(with_audit=True)
        kp, _ = _attach_scenario(rig)
    table = kp.aspace.table
    heap = rig.cokernels[0].kernel.heap_region(kp)
    table.translate_range(heap.start, 4)  # populate the walk cache
    entries = table.walk_cache_entries()
    assert entries, "scenario should have cached a walk"
    key = (entries[0][0], entries[0][1])
    gen, pfns = table._walk_cache[key]
    table._walk_cache[key] = (gen, pfns + 1)  # corrupt the cached pfns
    violations = rig.auditor.check()
    assert any(v.invariant == "walkcache-coherence" for v in violations)


def test_future_generation_cache_entry_detected():
    with fidelity.fast():
        rig = build_cokernel_system(with_audit=True)
        kp, _ = _attach_scenario(rig)
    table = kp.aspace.table
    heap = rig.cokernels[0].kernel.heap_region(kp)
    table.translate_range(heap.start, 4)
    key = next(iter(table._walk_cache))
    gen, pfns = table._walk_cache[key]
    table._walk_cache[key] = (table.generation + 5, pfns)
    violations = rig.auditor.check()
    assert any("future generation" in v.detail for v in violations)


def test_unbalanced_channel_detected_at_quiescence():
    rig = build_cokernel_system(with_audit=True)
    _attach_scenario(rig)
    auditor = rig.auditor
    assert auditor.channels, "rig channels must be watched"
    channel = auditor.channels[0]
    assert channel.transfers_started > 0
    channel.transfers_completed -= 1
    # interval audits don't check channel balance (transfers are in
    # flight mid-run); the quiescent audit must.
    assert auditor.check(quiescent=False) == []
    violations = auditor.check(quiescent=True)
    assert any(v.invariant == "channel-balance" for v in violations)


# -- the audit cadence ---------------------------------------------------------

class _CountingAuditor(Auditor):
    def __init__(self, interval_ns):
        super().__init__(interval_ns=interval_ns)
        self.calls = []

    def audit_now(self, now_ns=0, quiescent=False):
        self.calls.append((now_ns, quiescent))


def _counting_engine(interval_ns):
    eng = Engine(obs=EngineObserver())
    eng.auditor = _CountingAuditor(interval_ns)
    return eng, eng.auditor


def test_hook_audits_on_interval_and_at_quiescence():
    eng, fake = _counting_engine(interval_ns=100)

    def proc():
        for _ in range(5):
            yield eng.sleep(60)

    eng.run_process(proc())
    periodic = [c for c in fake.calls if not c[1]]
    quiescent = [c for c in fake.calls if c[1]]
    # events land at 60,120,...,300: deadlines 100,200,300 each fire once
    assert [t for t, _ in periodic] == [120, 240, 300]
    assert quiescent and quiescent[-1][0] == 300


def test_hook_rearms_past_long_virtual_jumps():
    eng, fake = _counting_engine(interval_ns=100)

    def proc():
        yield eng.sleep(1000)
        yield eng.sleep(50)

    eng.run_process(proc())
    periodic = [c for c in fake.calls if not c[1]]
    # one audit at t=1000 (not ten), re-armed to 1100: t=1050 stays quiet
    assert [t for t, _ in periodic] == [1000]


def test_hook_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        Auditor(interval_ns=0)


def test_hook_composes_with_inner_observer():
    with obs.observing(metrics=True, engine=True) as ctx:
        rig = build_cokernel_system(with_audit=True)
        # the rig's engine calls the scope's one observer, which calls
        # the rig's auditor
        assert rig.engine.obs is ctx.engine_obs
        assert rig.engine.auditor is rig.auditor
        _attach_scenario(rig)
        snap = ctx.snapshot()
    assert snap["engine.events.executed"] > 0
    assert rig.auditor.audits_run > 0


def test_two_audited_rigs_share_one_observer_and_audit_only_themselves():
    with obs.observing(metrics=True, engine=True, timeseries=True,
                       window_ns=10_000) as ctx:
        rig_a = build_cokernel_system(with_audit=True)
        rig_b = build_cokernel_system(with_audit=True)
        assert rig_a.engine.obs is rig_b.engine.obs is ctx.engine_obs
        assert rig_a.auditor is not rig_b.auditor
        _attach_scenario(rig_a)
        # rig B's engine has not run, so its auditor has not either
        assert rig_a.auditor.audits_run > 0
        assert rig_b.auditor.audits_run == 0
        _attach_scenario(rig_b)
        snap = ctx.snapshot()
    assert len(ctx.timeseries) > 0
    assert snap["engine.events.executed"] == ctx.engine_obs.events_executed > 0
    assert rig_b.auditor.audits_run > 0
    for rig, other in ((rig_a, rig_b), (rig_b, rig_a)):
        kernels = rig.auditor.kernels
        assert kernels == [e.kernel for e in rig.system.enclaves]
        assert not any(e.kernel in kernels for e in other.system.enclaves)
        assert rig.auditor.violations_found == 0


# -- environment gating --------------------------------------------------------

def test_env_gating(monkeypatch):
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    assert not env_enabled()
    assert build_cokernel_system().auditor is None
    monkeypatch.setenv("REPRO_AUDIT", "0")
    assert not env_enabled()
    monkeypatch.setenv("REPRO_AUDIT", "1")
    assert env_enabled()
    rig = build_cokernel_system()
    assert rig.auditor is not None
    # explicit opt-out wins over the environment
    assert build_cokernel_system(with_audit=False).auditor is None


def test_env_interval(monkeypatch):
    monkeypatch.delenv("REPRO_AUDIT_INTERVAL_NS", raising=False)
    assert env_interval_ns() == 1_000_000
    monkeypatch.setenv("REPRO_AUDIT_INTERVAL_NS", "2500")
    assert env_interval_ns() == 2500
    monkeypatch.setenv("REPRO_AUDIT", "1")
    rig = build_cokernel_system()
    assert rig.auditor.interval_ns == 2500


def test_violation_message_shape():
    v = AuditViolation("refcount-balance", "segment 7 is off", time_ns=42,
                       open_spans=("xemem.attach",),
                       recent_spans=(("pisces.transfer", 10),))
    assert isinstance(v, AssertionError)
    msg = str(v)
    assert "[refcount-balance] t=42ns: segment 7 is off" in msg
    assert "in flight: xemem.attach" in msg
    assert "recent: pisces.transfer@10" in msg
