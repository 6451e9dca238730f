"""Departure must not leak per-registration module state (stale grants,
attachment refcounts, signal plumbing, apid counters)."""

import pytest

from repro.hw.costs import PAGE_4K
from repro.xemem import XememError, XpmemApi

from tests.xemem.conftest import build_system


def test_shutdown_clears_all_module_state():
    rig = build_system(num_cokernels=2)
    eng, system = rig["engine"], rig["system"]
    exporter, attacher = rig["cokernels"]
    kp = exporter.kernel.create_process("exp")
    ap = attacher.kernel.create_process("att")
    heap = exporter.kernel.heap_region(kp)

    def setup():
        api_e, api_a = XpmemApi(kp), XpmemApi(ap)
        segid = yield from api_e.xpmem_make(heap.start, 4 * PAGE_4K)
        apid = yield from api_a.xpmem_get(segid)
        att = yield from api_a.xpmem_attach(apid)
        return att

    eng.run_process(setup())
    module = attacher.module
    assert module.attacher.grants and module.attacher.attachments  # state exists to clear

    system.shutdown_enclave(attacher, force=True)

    assert module.owner.segments == {}
    assert module.attacher.grants == {}
    assert module.attacher.attachments == {}
    assert module.attacher.smartmap_refs == {}
    assert module.owner.subscribers == {}
    assert module._signal_state == {}
    # apid minting restarts from 1 on a later re-join
    assert next(module.attacher._apids) == 1
    assert not module.routing.discovered


def test_forced_shutdown_fails_parked_signal_waiters():
    rig = build_system(num_cokernels=1)
    eng, system = rig["engine"], rig["system"]
    kitten = rig["cokernels"][0]
    kp = kitten.kernel.create_process("exp")
    waiter_proc = kitten.kernel.create_process("waiter")
    heap = kitten.kernel.heap_region(kp)

    def export():
        api = XpmemApi(kp)
        return (yield from api.xpmem_make(heap.start, 4 * PAGE_4K))

    segid = eng.run_process(export())

    def waiter():
        api = XpmemApi(waiter_proc)
        try:
            yield from api.xpmem_wait(segid)
        except XememError as err:
            return ("failed", str(err))
        return "woken"

    parked = eng.spawn(waiter())
    eng.run()
    assert not parked.finished  # still parked on the doorbell

    system.shutdown_enclave(kitten, force=True)
    eng.run()
    outcome = parked.result
    assert outcome[0] == "failed"
    assert "departed" in outcome[1]
    assert kitten.module._signal_state == {}


def test_unforced_shutdown_leaves_no_waiter_behind_either():
    """Without force, departure with no outstanding grants still clears
    the signal plumbing (waiters of an empty cell simply disappear with
    the enclave; nothing dangles into a re-join)."""
    rig = build_system(num_cokernels=1)
    eng, system = rig["engine"], rig["system"]
    kitten = rig["cokernels"][0]
    system.shutdown_enclave(kitten)
    assert kitten.module._signal_state == {}
    assert kitten.module.attacher.grants == {}
    assert next(kitten.module.attacher._apids) == 1


def test_unforced_shutdown_refused_while_holding_foreign_grants():
    """An enclave holding a grant and a live attachment on another
    enclave's segment must not depart unforced: the owner would count
    the grant forever and never depart itself, and the mapping would
    outlive the module's registry of it."""
    rig = build_system(num_cokernels=2)
    eng, system = rig["engine"], rig["system"]
    owner, holder = rig["cokernels"]
    kp = owner.kernel.create_process("exp")
    ap = holder.kernel.create_process("att")
    heap = owner.kernel.heap_region(kp)

    def setup():
        api_o, api_h = XpmemApi(kp), XpmemApi(ap)
        segid = yield from api_o.xpmem_make(heap.start, 4 * PAGE_4K)
        apid = yield from api_h.xpmem_get(segid)
        att = yield from api_h.xpmem_attach(apid)
        return api_h, apid, att

    api_h, apid, att = eng.run_process(setup())
    (seg,) = owner.module.owner.segments.values()

    with pytest.raises(XememError, match=r"detach/release first \(or force\)"):
        system.shutdown_enclave(holder)
    assert holder.module.routing.discovered
    assert not att.detached and holder.module.attacher.grants
    assert seg.grants_out == 1

    def teardown():
        yield from api_h.xpmem_detach(att)
        yield from api_h.xpmem_release(apid)

    eng.run_process(teardown())
    system.shutdown_enclave(holder)
    assert seg.grants_out == 0
    # with nothing held on its segment any more, the owner may leave too
    system.shutdown_enclave(owner)


def test_release_drops_attachment_record_and_crash_note_counts_live():
    """Released grants leave no attachment record behind, and the crash
    note counts live attachments, not apids ever attached."""
    from repro.obs import observing

    with observing(trace=False, metrics=False, flightrec=True) as ctx:
        rig = build_system(num_cokernels=2)
        eng = rig["engine"]
        exporter, attacher = rig["cokernels"]
        kp = exporter.kernel.create_process("exp")
        ap = attacher.kernel.create_process("att")
        heap = exporter.kernel.heap_region(kp)
        api_e, api_a = XpmemApi(kp), XpmemApi(ap)
        segid = eng.run_process(api_e.xpmem_make(heap.start, 4 * PAGE_4K))

        def cycle():
            apid = yield from api_a.xpmem_get(segid)
            att = yield from api_a.xpmem_attach(apid)
            yield from api_a.xpmem_detach(att)
            yield from api_a.xpmem_release(apid)

        for _ in range(5):
            eng.run_process(cycle())
        assert attacher.module.attacher.grants == {}
        assert attacher.module.attacher.attachments == {}

        def attach_once():
            # a held grant whose attachment is detached: an empty record
            held = yield from api_a.xpmem_get(segid)
            att = yield from api_a.xpmem_attach(held)
            yield from api_a.xpmem_detach(att)
            apid = yield from api_a.xpmem_get(segid)
            yield from api_a.xpmem_attach(apid)

        eng.run_process(attach_once())
        assert len(attacher.module.attacher.attachments) == 2
        rig["pisces"].crash_enclave(attacher, system=rig["system"])

    notes = [n for n in ctx.flightrec.notes
             if n["kind"] == "xemem.module.crashed"]
    assert [n["detail"]["enclave"] for n in notes] == ["kitten1"]
    assert notes[0]["detail"]["live_attachments"] == 1
