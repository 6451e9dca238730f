"""Enclave failure: crash semantics, reclamation, lease GC, NS restart."""

import pytest

from repro import obs
from repro.enclave.enclave import KernelMessage
from repro.faults import CRASH, NS_RESTART, FaultEvent, FaultPlan, arm
from repro.hw.costs import PAGE_4K
from repro.pisces.pisces import PartitionError
from repro.sim import Engine
from repro.xemem import XememError, XememTimeout, XpmemApi
from repro.xemem import commands as C

from tests.faults.conftest import build_rig, table1_cycle


def test_crash_mid_attach_fails_waiters_and_reclaims():
    """The acceptance scenario: a seeded crash lands mid-protocol.

    Clients parked on the dead enclave must get XememTimeout/XememError
    (never hang), its partition frames return to the zone allocator, its
    segids are retired at the name server, and the auditor stays green.
    """
    plan = FaultPlan.parse("timeout=100us,retries=1,crash=kitten0@1us", seed=0)
    rig = build_rig(plan=plan)
    eng = rig.engine
    zone1 = rig.node.memory.zone(1).allocator
    free_before = zone1.free_frames
    victim = rig.cokernels[0]
    nframes = victim.kernel.allocator.nframes
    failures = []

    def client():
        try:
            yield from table1_cycle(rig)
        except (XememTimeout, XememError) as err:
            failures.append(err)

    eng.spawn(client(), name="doomed-client")
    eng.run()

    assert eng.queue_len == 0 and eng.live_processes == ()
    assert len(failures) == 1  # failed fast, did not hang
    # partition frames are back in the zone, enclave is gone
    assert zone1.free_frames == free_before + nframes
    assert victim not in rig.system.enclaves
    assert victim not in rig.pisces.cokernel_enclaves
    # the name server retired the dead enclave's id
    ns = rig.system.name_server_enclave.module.nameserver
    assert victim.enclave_id in ns.retired_enclaves
    rig.auditor.audit_now(eng.now, quiescent=True)


def test_survivor_attachments_invalidated_on_crash():
    """A completed cross-enclave attachment dies with its exporter: the
    survivor's mapping is torn down (marked detached, region unmapped)
    without double-freeing the dead enclave's frames."""
    rig = build_rig()
    eng = rig.engine
    exporter = rig.cokernels[0]
    kp = exporter.kernel.create_process("exp")
    lp = rig.linux.kernel.create_process("att", core_id=2)
    heap = exporter.kernel.heap_region(kp)

    def setup():
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, 4 * PAGE_4K)
        apid = yield from api_l.xpmem_get(segid)
        att = yield from api_l.xpmem_attach(apid)
        return segid, att

    segid, att = eng.run_process(setup())
    assert not att.detached
    rig.pisces.crash_enclave(exporter, system=rig.system)

    assert att.detached
    assert att.region not in lp.aspace.regions
    with pytest.raises(RuntimeError):
        att.read(0, 8)
    # the survivor's module dropped the dead grant entirely
    assert rig.linux.module.attacher.grants == {}
    ns = rig.system.name_server_enclave.module.nameserver
    with pytest.raises(XememError, match="retired"):
        ns.owner_of(int(segid))
    rig.auditor.audit_now(eng.now, quiescent=True)


def test_survivors_keep_working_after_crash():
    plan = FaultPlan(events=[FaultEvent(1_000, CRASH, "kitten0")])
    rig = build_rig(plan=plan)
    eng = rig.engine
    eng.run()  # let the crash fire
    assert rig.engine.faults.counts["crashes"] == 1
    # a fresh full cycle against the surviving co-kernel succeeds
    module, segid = eng.run_process(table1_cycle(rig, exporter_idx=1))
    assert module.owner.segments[int(segid)].grants_out == 0
    rig.auditor.audit_now(eng.now, quiescent=True)


def test_crash_is_fail_stop_and_unpartitioned():
    rig = build_rig()
    victim = rig.cokernels[0]
    rig.pisces.crash_enclave(victim, system=rig.system)
    assert victim.module.crashed
    victim.module.crash()  # idempotent
    # a second crash of the same enclave is a partition error
    with pytest.raises(PartitionError):
        rig.pisces.crash_enclave(victim, system=rig.system)
    # the management (Linux) enclave is not a crashable partition
    with pytest.raises(PartitionError):
        rig.pisces.crash_enclave(rig.linux, system=rig.system)


def test_heartbeat_lease_gc_collects_dead_enclave():
    """With heartbeats on, the injector does NOT tell the name server
    about the crash — the lease expiry is the failure detector."""
    plan = FaultPlan.parse(
        "hb=100us,lease=500us,horizon=3ms,crash=kitten0@1ms", seed=0
    )
    rig = build_rig(plan=plan)
    eng = rig.engine
    exporter = rig.cokernels[0]
    kp = exporter.kernel.create_process("exp")
    heap = exporter.kernel.heap_region(kp)
    eng.spawn(XpmemApi(kp).xpmem_make(heap.start, 4 * PAGE_4K,
                                      name="doomed/seg"), name="make")
    ns = rig.system.name_server_enclave.module.nameserver
    eng.run(until_ns=900_000)  # export done, crash not yet fired
    assert ns.live_segments == 1
    eng.run()

    assert eng.queue_len == 0  # horizon bounded the beacon daemons
    assert rig.engine.faults.counts["heartbeats_sent"] > 0
    # the lease sweep (not a direct notification) retired the enclave
    assert exporter.enclave_id in ns.retired_enclaves
    assert ns.live_segments == 0
    assert ns.lookup_name("doomed/seg") is None


def test_nameserver_restart_drops_then_recovers():
    """During the outage window the NS drops everything (clients retry
    through it); its restart also wipes the replay cache and re-stamps
    leases so survivors are not GC'd for beacons lost to the outage."""
    plan = FaultPlan.parse(
        "timeout=200us,retries=6,nsrestart=@1us:100us", seed=0
    )
    rig = build_rig(plan=plan)
    module, segid = rig.engine.run_process(table1_cycle(rig))
    rig.engine.run()
    assert rig.engine.faults.counts["ns_restarts"] == 1
    assert module.owner.segments[int(segid)].grants_out == 0
    assert rig.engine.queue_len == 0
    # a restart wipes the name server's own replay/dedup cache (the cycle
    # above refilled it after the scheduled restart fired); the module's
    # owner-side cache is not the service's and survives
    ns_module = rig.system.name_server_enclave.module
    service = ns_module.nameserver.replay
    assert service.served
    ns_module.replay.record("owner:0", "owner-resp", keep=True)
    ns_module.restart_nameserver()
    assert service.served == {} and service.in_service == set()
    assert ns_module.replay.served == {"owner:0": "owner-resp"}


def test_nameserver_restart_keeps_owner_replay_entries():
    """A GET_REQ retried across a restart to a segment the name-server
    enclave exports is answered from the owner-side replay cache: the
    restart loses only the name server's own cache, so the segment is
    not granted twice."""
    plan = FaultPlan.parse("timeout=300us,retries=3,nsrestart=@1s:0", seed=0)
    # no auditor: the GET_REQ below is hand-made, so no attacher holds
    # the grant it counts
    rig = build_rig(plan=plan, with_audit=False)
    eng = rig.engine
    ns_enclave = rig.system.name_server_enclave
    ns_module, kernel = ns_enclave.module, ns_enclave.kernel
    proc = kernel.create_process("exp")

    def export():
        region = yield from kernel.mmap_anonymous(proc, 4 * PAGE_4K)
        segid = yield from XpmemApi(proc).xpmem_make(region.start, 4 * PAGE_4K)
        return segid

    segid = eng.run_process(export())
    get = C.make_command(C.GET_REQ, rig.cokernels[0].module.my_id, None,
                         req_id="retried:0", segid=int(segid), write=False)

    def deliver():
        copy = KernelMessage(kind=get.kind, payload=dict(get.payload))
        eng.run_process(ns_module._handle(copy, None))
        eng.run(until_ns=eng.now + 100_000)  # the response goes out

    deliver()
    ns_module.restart_nameserver(0)
    deliver()
    assert ns_module.owner.segments[int(segid)].grants_out == 1


def test_crash_unknown_target_is_skipped():
    plan = FaultPlan(events=[
        FaultEvent(1_000, CRASH, "no-such-enclave"),
        FaultEvent(2_000, CRASH, "linux"),  # not a crashable partition
    ])
    rig = build_rig(plan=plan)
    rig.engine.run()
    assert rig.engine.faults.counts["events_skipped"] == 2
    assert rig.engine.faults.counts["crashes"] == 0
    # the rig is untouched: a normal cycle still runs
    module, segid = rig.engine.run_process(table1_cycle(rig))
    assert module.owner.segments[int(segid)].grants_out == 0


@pytest.mark.parametrize("action", [CRASH, NS_RESTART])
def test_skipped_event_is_counted_in_metrics(action):
    """A bare engine has no partition to crash and no name server to
    restart: the event is skipped, in the counts and the metrics alike."""
    with obs.observing(trace=False, metrics=True) as ctx:
        engine = Engine()
        injector = arm(engine, FaultPlan(events=[FaultEvent(0, action, "kitten0")]))
        engine.run()
    assert injector.counts["events_skipped"] == 1
    assert ctx.metrics.counter("faults.events.skipped").value == 1


def test_force_shutdown_fails_inflight_requests():
    """Satellite: ``shutdown(force=True)`` must fail parked ``_request``
    waiters instead of leaving them hanging forever."""
    rig = build_rig()
    eng = rig.engine
    exporter, attacher = rig.cokernels
    kp = exporter.kernel.create_process("exp")
    heap = exporter.kernel.heap_region(kp)
    segid = eng.run_process(XpmemApi(kp).xpmem_make(heap.start, 4 * PAGE_4K))

    # silence the owner so the attacher's GET parks forever (no deadline)
    exporter.module.crashed = True
    ap = attacher.kernel.create_process("att")
    outcome = []

    def stuck_client():
        try:
            yield from XpmemApi(ap).xpmem_get(segid)
            outcome.append("completed")
        except XememError as err:
            outcome.append(str(err))

    eng.spawn(stuck_client(), name="stuck")
    eng.run()
    assert outcome == []  # parked in _pending, engine drained around it
    assert attacher.module._pending

    rig.system.shutdown_enclave(attacher, force=True)
    eng.run()
    assert outcome == [f"enclave {attacher.name!r} departed"]
    assert eng.live_processes == ()
    assert attacher.module._pending == {}
