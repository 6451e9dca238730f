"""Tests for the event-notification extension (§6.1 future work)."""

import pytest

from repro.hw.costs import MB, PAGE_4K
from repro.workloads.hpccg import HpccgProblem
from repro.workloads.insitu import InSituConfig
from repro.xemem import XememError, XpmemApi

from tests.xemem.conftest import build_system


def make_segment(eng, kernel, npages=1):
    proc = kernel.create_process("owner")
    heap = kernel.heap_region(proc)
    api = XpmemApi(proc)

    def run():
        segid = yield from api.xpmem_make(heap.start, npages * PAGE_4K)
        return segid

    return proc, api, eng.run_process(run())


def test_local_signal_wakes_local_waiter(basic):
    eng = basic["engine"]
    kitten = basic["cokernels"][0].kernel
    _proc, api, segid = make_segment(eng, kitten)
    order = []

    def waiter():
        yield from api.xpmem_wait(segid)
        order.append(("woke", eng.now))

    def signaler():
        yield eng.sleep(1000)
        yield from api.xpmem_signal(segid)
        order.append(("signaled", eng.now))

    eng.spawn(waiter())
    eng.spawn(signaler())
    eng.run()
    assert order[0][0] == "signaled" or order[0][0] == "woke"
    assert any(k == "woke" for k, _t in order)


def test_signal_before_wait_is_not_lost(basic):
    """Semaphore semantics: a pending signal satisfies the next wait."""
    eng = basic["engine"]
    kitten = basic["cokernels"][0].kernel
    _proc, api, segid = make_segment(eng, kitten)

    def run():
        yield from api.xpmem_signal(segid)
        yield from api.xpmem_signal(segid)
        t0 = eng.now
        yield from api.xpmem_wait(segid)   # consumes first pending
        yield from api.xpmem_wait(segid)   # consumes second pending
        return eng.now - t0

    assert eng.run_process(run()) == 0


def test_cross_enclave_notify_roundtrip(basic):
    """A remote subscriber is woken by the owner's signal, and the owner
    is woken by the remote side's signal."""
    eng = basic["engine"]
    kitten = basic["cokernels"][0].kernel
    linux = basic["linux"].kernel
    kp = kitten.create_process("owner")
    lp = linux.create_process("waiter", core_id=2)
    heap = kitten.heap_region(kp)
    api_k, api_l = XpmemApi(kp), XpmemApi(lp)
    log = []

    def owner():
        segid = yield from api_k.xpmem_make(heap.start, PAGE_4K, name="bell")
        yield eng.sleep(50_000)
        yield from api_k.xpmem_signal(segid)      # wake the remote waiter
        yield from api_k.xpmem_wait(segid)        # then wait for its reply
        log.append(("owner-woke", eng.now))

    def waiter():
        yield eng.sleep(10_000)
        segid = yield from api_l.xpmem_search("bell")
        yield from api_l.xpmem_subscribe(segid)
        yield from api_l.xpmem_wait(segid)
        log.append(("waiter-woke", eng.now))
        yield from api_l.xpmem_signal(segid)

    po = eng.spawn(owner())
    pw = eng.spawn(waiter())
    eng.run()
    assert not po.failed and not pw.failed
    assert [k for k, _t in log] == ["waiter-woke", "owner-woke"]
    # the wake crossed a channel: it took nonzero time after the signal
    assert log[0][1] > 50_000


def test_signal_unknown_segid_errors(basic):
    eng = basic["engine"]
    linux = basic["linux"].kernel
    lp = linux.create_process("p", core_id=1)

    def run():
        from repro.xemem.ids import SegmentId

        api = XpmemApi(lp)
        with pytest.raises(XememError):
            yield from api.xpmem_subscribe(SegmentId(0xABCDEF))
        with pytest.raises(XememError):
            yield from api.xpmem_signal(SegmentId(0xABCDEF))
        return True

    assert eng.run_process(run())


def test_one_signal_wakes_one_waiter_per_ring(basic):
    eng = basic["engine"]
    kitten = basic["cokernels"][0].kernel
    _proc, api, segid = make_segment(eng, kitten)
    woken = []

    def waiter(i):
        yield from api.xpmem_wait(segid)
        woken.append(i)

    eng.spawn(waiter(0))
    eng.spawn(waiter(1))

    def signaler():
        yield eng.sleep(100)
        yield from api.xpmem_signal(segid)

    eng.spawn(signaler())
    eng.run(until_ns=1_000_000)
    assert len(woken) == 1  # one ring, one wake


@pytest.mark.parametrize("config_name", ["linux_linux", "kitten_linux"])
def test_insitu_notify_mode_works_and_is_not_slower(config_name):
    """Ablation E's premise: kernel doorbells replace polling without
    breaking the workflow, and save the polling detection latency."""
    from repro.bench.configs import build_insitu_rig

    times = {}
    for mode in ("poll", "notify"):
        cfg = InSituConfig(
            execution="sync", attach="one_time",
            iterations=60, comm_interval=20, data_bytes=16 * MB,
            problem=HpccgProblem(24, 24, 24), signal_mode=mode,
        )
        rig = build_insitu_rig(config_name, cfg, seed=3)
        res = rig["workload"].run()
        assert res.data_marks_verified
        times[mode] = res.sim_time_s
    assert times["notify"] <= times["poll"]


def test_bad_signal_mode_rejected():
    with pytest.raises(ValueError):
        InSituConfig(signal_mode="semaphore")


def test_signal_to_departed_subscriber_counts_undeliverable():
    """The owner (here the name-server enclave, which has no route to
    fall back on) still lists a subscriber that has since departed; the
    doorbell toward it has no route, and the loss is counted."""
    from repro import obs

    with obs.observing(trace=False, metrics=True) as ctx:
        rig = build_system(num_cokernels=1)
        eng = rig["engine"]
        linux = rig["linux"].kernel
        owner = linux.create_process("owner", core_id=1)
        region = eng.run_process(linux.mmap_anonymous(owner, PAGE_4K))
        api_o = XpmemApi(owner)
        segid = eng.run_process(api_o.xpmem_make(region.start, PAGE_4K))
        kitten = rig["cokernels"][0]
        api_s = XpmemApi(kitten.kernel.create_process("subscriber"))
        eng.run_process(api_s.xpmem_subscribe(segid))
        rig["system"].shutdown_enclave(kitten)
        eng.run_process(api_o.xpmem_signal(segid))
        eng.run()
    assert ctx.snapshot().get("xemem.msgs.undeliverable") == 1
