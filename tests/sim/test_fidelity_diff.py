"""Differential tests: fidelity must be invisible except in wall-clock.

Each scenario runs twice under full observability — in ``detailed``
mode (the radix store with every twin on its plain reference side: an
uncached walk, per-round IPIs, per-page faults) and in ``fast`` mode
(the columnar store plus the walk cache, IPI bursts and batched
faults). The two runs must agree on the virtual end time, on the XEMEM
module statistics, on every metrics counter outside the ``fastpath.*``
namespace the fast side may add, and on the byte-exact JSONL trace
export (docs/COSTMODEL.md § Fidelity modes). A store-level op-mix
additionally pins down the per-operation observables — translations,
masks, collision messages, and exact-hole fault addresses — with
observability off and on.
"""

import io

import numpy as np
import pytest

from repro import obs
from repro.hw.costs import PAGE_4K
from repro.kernels.pagetable import (
    PAGE_SIZE,
    PML4_SLOT_SPAN,
    PTE_DIRTY,
    PTE_PINNED,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageFault,
    PageTable,
    _ColumnarStore,
    _RadixStore,
)
from repro.sim import fidelity
from repro.xemem import XpmemApi

from tests.xemem.conftest import build_system

RW = PTE_PRESENT | PTE_WRITABLE | PTE_USER


def _counters(ctx):
    """The metrics snapshot minus the ``fastpath.*`` namespace."""
    return {
        k: v for k, v in ctx.metrics.snapshot().items()
        if not k.startswith("fastpath.")
    }


def _outcome(rig):
    """What a scenario computed: its virtual end time and the statistics
    of every XEMEM module."""
    return {
        "end_ns": rig["engine"].now,
        "xemem_stats": {
            name: dict(module.stats) for name, module in rig["modules"].items()
        },
    }


def _observed(scenario):
    """Run ``scenario`` under tracing+metrics; return (outcome, counters, trace)."""
    with obs.observing(trace=True, metrics=True) as ctx:
        outcome = scenario()
    buf = io.StringIO()
    ctx.tracer.to_jsonl(buf)
    return outcome, _counters(ctx), buf.getvalue()


def _assert_identical(scenario):
    with fidelity.detailed():
        ref = _observed(scenario)
    with fidelity.fast():
        fast = _observed(scenario)
    assert fast[0] == ref[0], "virtual end time or XEMEM stats diverged"
    assert fast[1] == ref[1], "metrics counters diverged"
    assert fast[2] == ref[2], "trace export bytes diverged"


def _cross_enclave_scenario():
    """Single co-kernel: burst-eligible IPI chunking, walk cache on the
    recurring attach, vectorized EAGER map install."""
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    kitten = rig["cokernels"][0]
    npages = 20_000  # ~80 MB -> several IPI chunk rounds per attach
    kitten.kernel.heap_pages = npages  # heap is sized at process creation
    kp = kitten.kernel.create_process("exp")
    lp = rig["linux"].kernel.create_process("att", core_id=2)
    heap = kitten.kernel.heap_region(kp)

    def run():
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, npages * PAGE_4K)
        apid = yield from api_l.xpmem_get(segid)
        for _ in range(2):  # second round re-walks the unchanged range
            att = yield from api_l.xpmem_attach(apid)
            yield from rig["linux"].kernel.touch_pages(lp, att.vaddr, npages)
            yield from api_l.xpmem_detach(att)
        yield from api_l.xpmem_release(apid)

    eng.run_process(run())
    return _outcome(rig)


def _linux_local_scenario():
    """Single-OS Linux path: partially-populated lazy faulting in
    pin_pages (export side) and touch_pages (attach side)."""
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    linux = rig["linux"].kernel
    exp = linux.create_process("exp", core_id=1)
    att = linux.create_process("att", core_id=2)
    npages = 300

    def run():
        region = yield from linux.mmap_anonymous(exp, npages * PAGE_4K, "src")
        # touch only half: the export's get_user_pages must fault the rest
        yield from linux.touch_pages(exp, region.start, npages // 2)
        api_e, api_a = XpmemApi(exp), XpmemApi(att)
        segid = yield from api_e.xpmem_make(region.start, npages * PAGE_4K)
        apid = yield from api_a.xpmem_get(segid)
        attached = yield from api_a.xpmem_attach(apid)
        # partial touch, then full touch over the half-populated window
        yield from linux.touch_pages(att, attached.vaddr, npages // 3)
        yield from linux.touch_pages(att, attached.vaddr, npages, write=True)
        yield from api_a.xpmem_detach(attached)
        yield from api_a.xpmem_release(apid)

    eng.run_process(run())
    return _outcome(rig)


def _contended_scenario():
    """Two co-kernels: core 0 has two bound vectors, so IPI bursts must
    fall back to per-round queueing (the §5.3 contention model)."""
    rig = build_system(num_cokernels=2)
    eng = rig["engine"]
    linux = rig["linux"].kernel
    npages = 12_000
    procs = []
    for i, kitten in enumerate(rig["cokernels"]):
        kitten.kernel.heap_pages = npages
        kp = kitten.kernel.create_process("exp")
        lp = linux.create_process(f"att{i}", core_id=2 + i)
        heap = kitten.kernel.heap_region(kp)
        procs.append((kp, lp, heap))

    def attacher(kp, lp, heap):
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, npages * PAGE_4K)
        apid = yield from api_l.xpmem_get(segid)
        att = yield from api_l.xpmem_attach(apid)
        yield from api_l.xpmem_detach(att)
        yield from api_l.xpmem_release(apid)

    for kp, lp, heap in procs:
        eng.spawn(attacher(kp, lp, heap))
    eng.run()
    return _outcome(rig)


def test_cross_enclave_identical():
    _assert_identical(_cross_enclave_scenario)


def test_linux_local_identical():
    _assert_identical(_linux_local_scenario)


def test_contended_identical():
    _assert_identical(_contended_scenario)


def test_fast_run_uses_walk_cache_and_burst():
    """The fast run must actually take the fast paths it claims to."""
    with fidelity.fast():
        with obs.observing(trace=False, metrics=True) as ctx:
            _cross_enclave_scenario()
    snap = ctx.metrics.snapshot()
    assert snap.get("fastpath.walkcache.hits", 0) > 0
    assert snap.get("fastpath.ipi.batched_rounds", 0) > 1


def test_detailed_run_has_no_fastpath_counters():
    with fidelity.detailed():
        with obs.observing(trace=False, metrics=True) as ctx:
            _cross_enclave_scenario()
    assert not [k for k in ctx.metrics.snapshot() if k.startswith("fastpath.")]


# -- store-level observables --------------------------------------------------


def _exercise_table():
    """One PageTable op-mix; returns every observable output."""
    out = []
    pt = PageTable()
    base = 2 * PML4_SLOT_SPAN
    npages = 1600  # crosses four leaf tables
    base2 = base + npages * PAGE_SIZE
    pfns = np.arange(5000, 5000 + npages, dtype=np.int64)
    pt.map_range(base, pfns, RW)
    out.append(pt.translate_range(base, npages).tolist())
    pt.set_flags_range(base, npages, set_mask=PTE_PINNED)
    out.append(pt.flag_mask(base, npages, PTE_PINNED).tolist())
    out.append(pt.range_flags_all(base, npages, PTE_PINNED))
    pt.set_flags_range(base + 700 * PAGE_SIZE, 600, clear_mask=PTE_PINNED)
    out.append(pt.flag_mask(base, npages, PTE_PINNED).tolist())
    out.append(pt.range_flags_all(base, npages, PTE_PINNED))
    # sparse fill with holes, spanning multiple leaves
    idx = np.array([0, 3, 4, 5, 600, 1100], dtype=np.int64)
    pt.map_pages_sparse(base2, idx, 9000 + idx, RW)
    out.append(pt.present_mask(base2, 1200).tolist())
    # exact-hole fault addresses must agree across stores
    try:
        pt.translate_range(base2, 1200)
    except PageFault as exc:
        out.append(exc.vaddr)
    try:
        pt.unmap_range(base, npages + 2)  # base2+1 is a sparse hole
    except PageFault as exc:
        out.append(exc.vaddr)
    try:
        pt.set_flags_range(base2, 4, set_mask=PTE_DIRTY)
    except PageFault as exc:
        out.append(exc.vaddr)
    # collision messages (first colliding page) must agree too
    try:
        pt.map_range(
            base + (npages - 2) * PAGE_SIZE, np.arange(3, dtype=np.int64), RW
        )
    except ValueError as exc:
        out.append(str(exc))
    try:
        pt.map_pages_sparse(
            base2, np.array([0, 1]), np.array([1, 2], dtype=np.int64), RW
        )
    except ValueError as exc:
        out.append(str(exc))
    out.append(pt.unmap_range(base, npages).tolist())
    out.append(pt.present_pfns().tolist())
    out.append(pt.mapped_vaddrs())
    out.append(pt.present_pages)
    out.append(pt.generation)
    return out


def _store_run(observed):
    """The op-mix outputs, plus the counters it bumps when observed."""
    if observed == "off":
        return _exercise_table(), {}
    with obs.observing(trace=False, metrics=True) as ctx:
        out = _exercise_table()
    return out, _counters(ctx)


@pytest.mark.parametrize("observed", ["off", "on"])
def test_store_observables_identical(observed):
    with fidelity.detailed():
        ref = _store_run(observed)
    with fidelity.fast():
        fast = _store_run(observed)
    assert fast == ref


# -- switchboard behavior -----------------------------------------------------


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="unknown fidelity mode"):
        fidelity.FIDELITY.set_mode("quick")


def test_mode_binds_at_construction():
    """Flipping FIDELITY affects tables built afterwards, not live ones."""
    with fidelity.detailed():
        detailed_pt = PageTable()
    with fidelity.fast():
        fast_pt = PageTable()
    assert isinstance(detailed_pt._store, _RadixStore)
    assert isinstance(fast_pt._store, _ColumnarStore)
    assert detailed_pt._walk_cache is None
    assert fast_pt._walk_cache == {}


def test_configured_restores_mode():
    before = fidelity.FIDELITY.mode
    with fidelity.configured("detailed" if before == "fast" else "fast"):
        assert fidelity.FIDELITY.mode != before
    assert fidelity.FIDELITY.mode == before
