"""Read-only grants must yield read-only mappings on every attach path."""

import pytest

from repro.hw.costs import PAGE_4K
from repro.kernels.pagetable import PTE_WRITABLE, PageFault
from repro.xemem import XpmemApi

from tests.xemem.conftest import build_system

NPAGES = 16


def _export_and_get(eng, exp_proc, heap_start, att_proc, write):
    def run():
        api_e, api_a = XpmemApi(exp_proc), XpmemApi(att_proc)
        segid = yield from api_e.xpmem_make(heap_start, NPAGES * PAGE_4K)
        apid = yield from api_a.xpmem_get(segid, write=write)
        att = yield from api_a.xpmem_attach(apid)
        return segid, att

    return eng.run_process(run())


def test_readonly_remote_attach_rejects_writes():
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    kitten = rig["cokernels"][0]
    kp = kitten.kernel.create_process("exp")
    lp = rig["linux"].kernel.create_process("att", core_id=2)
    heap = kitten.kernel.heap_region(kp)
    _segid, att = _export_and_get(eng, kp, heap.start, lp, write=False)

    assert att.read(0, 4) is not None
    with pytest.raises(PermissionError):
        att.write(0, b"nope")
    # the installed PTEs are read-only, so a write *touch* protection-faults
    table = lp.aspace.table
    assert not table.range_flags_all(att.vaddr, NPAGES, PTE_WRITABLE)

    def touch_write():
        yield from rig["linux"].kernel.touch_pages(
            lp, att.vaddr, NPAGES, write=True
        )

    with pytest.raises(PageFault) as excinfo:
        eng.run_process(touch_write())
    assert excinfo.value.write


def test_readonly_linux_local_lazy_attach():
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    linux = rig["linux"].kernel
    exp = linux.create_process("exp", core_id=1)
    att_proc = linux.create_process("att", core_id=2)

    def setup():
        region = yield from linux.mmap_anonymous(exp, NPAGES * PAGE_4K, "src")
        yield from linux.touch_pages(exp, region.start, NPAGES)
        api_e, api_a = XpmemApi(exp), XpmemApi(att_proc)
        segid = yield from api_e.xpmem_make(region.start, NPAGES * PAGE_4K)
        apid = yield from api_a.xpmem_get(segid, write=False)
        attached = yield from api_a.xpmem_attach(apid)
        # a *read* touch demand-populates the lazy window read-only
        yield from linux.touch_pages(att_proc, attached.vaddr, NPAGES)
        return attached

    att = eng.run_process(setup())
    assert att.kind == "linux-lazy"
    assert not att_proc.aspace.table.range_flags_all(
        att.vaddr, NPAGES, PTE_WRITABLE
    )
    with pytest.raises(PermissionError):
        att.write(0, b"nope")

    # writing through the populated read-only window is a protection fault
    def touch_write():
        yield from linux.touch_pages(att_proc, att.vaddr, NPAGES, write=True)

    with pytest.raises(PageFault) as excinfo:
        eng.run_process(touch_write())
    assert excinfo.value.write


def test_readonly_smartmap_attach_rejects_writes():
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    kitten = rig["cokernels"][0]
    kp = kitten.kernel.create_process("exp")
    kp2 = kitten.kernel.create_process("att")
    heap = kitten.kernel.heap_region(kp)
    _segid, att = _export_and_get(eng, kp, heap.start, kp2, write=False)

    assert att.kind == "smartmap"
    assert att.read(0, 4) is not None
    with pytest.raises(PermissionError):
        att.write(0, b"nope")
    with pytest.raises(PermissionError):
        att.view.fill(0x5A)


def test_writable_grant_still_works_end_to_end():
    rig = build_system(num_cokernels=1)
    eng = rig["engine"]
    kitten = rig["cokernels"][0]
    kp = kitten.kernel.create_process("exp")
    lp = rig["linux"].kernel.create_process("att", core_id=2)
    heap = kitten.kernel.heap_region(kp)
    segid, att = _export_and_get(eng, kp, heap.start, lp, write=True)

    att.write(0, b"ok!!")
    exporter_view = None
    for seg in kitten.module.owner.segments.values():
        if seg.segid == segid:
            exporter_view = seg.view()
    assert exporter_view.read(0, 4) == b"ok!!"
    assert lp.aspace.table.range_flags_all(att.vaddr, NPAGES, PTE_WRITABLE)
