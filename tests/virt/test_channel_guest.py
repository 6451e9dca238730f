"""Direct tests for PalaciosChannel transfer semantics and multi-VM hosting."""

import numpy as np
import pytest

from repro.enclave import EnclaveSystem, KernelMessage
from repro.hw import NodeHardware, R420_SPEC
from repro.hw.costs import GB, MB
from repro.pisces import PiscesManager
from repro.sim import Engine
from repro.xemem import XpmemApi, install_xemem


def build_host_and_vm(num_vms=1):
    eng = Engine()
    node = NodeHardware(eng, R420_SPEC)
    pisces = PiscesManager(node)
    linux = pisces.boot_linux(core_ids=range(0, 8), mem_bytes=12 * GB)
    vms = [
        pisces.boot_vm(linux, core_ids=[16 + 2 * i, 17 + 2 * i],
                       ram_bytes=1 * GB, name=f"vm{i}")
        for i in range(num_vms)
    ]
    return eng, node, pisces, linux, vms


def test_host_to_guest_translates_pfns_to_gpa():
    eng, _node, _pisces, linux, (vm,) = build_host_and_vm()
    vmm = vm.kernel.vmm
    got = []
    vm.set_receiver(lambda msg, ch: got.append(msg))
    linux.set_receiver(lambda msg, ch: got.append(msg))
    channel = vm.channels[0]
    hpas = linux.kernel.alloc_pfns(16, scattered=True)

    def send():
        yield from channel.send(linux, KernelMessage("attach_resp", pfns=hpas))

    eng.run_process(send())
    assert len(got) == 1
    delivered = got[0].pfns
    # delivered PFNs are guest-physical (above VM RAM), and resolve back
    # to the original host frames
    assert int(delivered.min()) >= vmm.ram_frames
    back = vmm.memmap.peek_translate_array(delivered)
    assert (back == hpas).all()


def test_guest_to_host_translates_gpa_to_pfns():
    eng, _node, _pisces, linux, (vm,) = build_host_and_vm()
    guest = vm.kernel
    got = []
    linux.set_receiver(lambda msg, ch: got.append(msg))
    vm.set_receiver(lambda msg, ch: got.append(msg))
    channel = vm.channels[0]
    gpas = guest.alloc_pfns(16)

    def send():
        yield from channel.send(vm, KernelMessage("attach_resp", pfns=gpas))

    eng.run_process(send())
    delivered = got[0].pfns
    expected = guest.gpa_to_hpa(gpas)
    assert (delivered == expected).all()
    assert all(linux.kernel.owns_pfn(int(p)) for p in delivered)


def test_pfnless_messages_skip_translation():
    eng, _node, _pisces, linux, (vm,) = build_host_and_vm()
    vmm = vm.kernel.vmm
    entries_before = vmm.memmap.num_entries
    vm.set_receiver(lambda msg, ch: None)
    channel = vm.channels[0]

    def send():
        yield from channel.send(linux, KernelMessage("get_req", {"segid": 1}))

    eng.run_process(send())
    assert vmm.memmap.num_entries == entries_before
    assert vmm.pci.virqs_raised == 1


def test_two_vms_on_one_host_are_independent():
    eng, node, pisces, linux, vms = build_host_and_vm(num_vms=2)
    system = EnclaveSystem(node)
    system.add_all(pisces.all_enclaves)
    for vm in vms:
        system.add_enclave(vm)
    system.designate_name_server(linux)
    install_xemem(system)

    g0 = vms[0].kernel.create_process("p0")
    g1 = vms[1].kernel.create_process("p1")

    def run():
        api0, api1 = XpmemApi(g0), XpmemApi(g1)
        r0 = yield from vms[0].kernel.mmap_anonymous(g0, 1 * MB)
        yield from vms[0].kernel.touch_pages(g0, r0.start, r0.npages)
        segid = yield from api0.xpmem_make(r0.start, 1 * MB, name="vm2vm")
        # guest-to-guest attachment: VM1 attaches VM0's export, crossing
        # BOTH PCI channels through the host
        found = yield from api1.xpmem_search("vm2vm")
        apid = yield from api1.xpmem_get(found)
        att = yield from api1.xpmem_attach(apid)
        api0.segment(segid).view().write(0, b"vm to vm")
        return att.read(0, 8)

    assert eng.run_process(run()) == b"vm to vm"
    # each VM has its own device and memory map
    assert vms[0].kernel.vmm is not vms[1].kernel.vmm
    assert vms[0].kernel.vmm.pci.hypercalls >= 1
    assert vms[1].kernel.vmm.memmap.num_entries > vms[1].kernel.vmm.boot_map_entries


def test_guest_alloc_exhaustion():
    eng, _node, _pisces, _linux, (vm,) = build_host_and_vm()
    guest = vm.kernel
    from repro.hw.memory import OutOfMemoryError

    with pytest.raises(OutOfMemoryError):
        guest.alloc_pfns(guest.allocator.nframes + 1)


def _two_way_sends(linux, vm):
    """One host->guest PFN list (a response) and one guest->host list
    (a request) through the VM's channel."""
    linux.set_receiver(lambda msg, ch: None)
    vm.set_receiver(lambda msg, ch: None)
    channel = vm.channels[0]
    hpas = linux.kernel.alloc_pfns(16, scattered=True)
    gpas = vm.kernel.alloc_pfns(8)

    def sends():
        yield from channel.send(linux, KernelMessage(
            "attach_resp", {"reply_to": "vm0:1"}, pfns=hpas))
        yield from channel.send(vm, KernelMessage(
            "attach_req", {"req_id": "vm0:2"}, pfns=gpas))

    return sends()


def test_transfer_span_splits_memmap_work_from_the_device():
    from repro import obs

    eng, _node, _pisces, linux, (vm,) = build_host_and_vm()
    vmm = vm.kernel.vmm
    costs = vmm.costs
    with obs.observing(trace=True, metrics=False) as ctx:
        eng.run_process(_two_way_sends(linux, vm))
    to_guest, to_host = ctx.tracer.of_name("palacios.transfer")
    assert to_guest.attrs == {"kind": "attach_resp", "npfns": 16,
                              "req_id": "vm0:1",
                              "memmap_ns": vmm.insert_work_log[-1]}
    assert to_guest.duration_ns == (vmm.insert_work_log[-1]
                                    + 16 * costs.pci_copy_per_pfn_ns
                                    + costs.virq_inject_ns)
    assert to_host.attrs["req_id"] == "vm0:2"
    assert to_host.duration_ns == (to_host.attrs["memmap_ns"]
                                   + 8 * costs.pci_copy_per_pfn_ns
                                   + costs.hypercall_ns)


def test_transfer_span_site_stays_dark(monkeypatch):
    from repro.obs.context import ObsContext
    from repro.obs.tracer import Tracer

    def boom(*_args, **_kwargs):
        raise AssertionError("a dark site reached the tracer")

    eng, _node, _pisces, linux, (vm,) = build_host_and_vm()
    monkeypatch.setattr(Tracer, "span", boom)
    monkeypatch.setattr(ObsContext, "span", boom)
    eng.run_process(_two_way_sends(linux, vm))
    assert vm.channels[0].messages_sent == 2
