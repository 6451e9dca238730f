"""The Palacios host/guest channel (paper §4.4–4.5).

Wraps the virtual PCI device as an enclave :class:`Channel`. The defining
behaviour: PFN lists are rewritten at the VM boundary, in flight —

* **host → guest** (Fig. 4(a)): the VMM allocates fresh guest-physical
  space, points the memory map at the host frames (the RB-tree inserts
  Table 2 measures), and delivers *guest* PFNs through the device.
* **guest → host** (Fig. 4(b)): the VMM walks the memory map for each
  guest page and delivers *host* PFNs.

Messages without a PFN list skip translation and just pay the command
header + doorbell costs, as §4.5 describes.

Fault injection (:mod:`repro.faults`) acts at the base :class:`Channel`
delivery layer, so it applies here too. One VM-boundary consequence: a
host→guest message dropped *after* translation leaves its fresh
guest-physical alias installed in the memory map (the guest never saw
the PFNs, so nothing will detach them). A retried attach maps a fresh
alias; the stale one is reclaimed with the VM. That mirrors real
device-window leaks under lost interrupts and is bounded by the retry
budget.
"""

from __future__ import annotations

from dataclasses import replace

from repro import obs
from repro.enclave.enclave import Channel, Enclave, KernelMessage
from repro.obs.tracer import NULL_SPAN
from repro.virt.palacios import PalaciosVmm


class PalaciosChannel(Channel):
    """Host enclave <-> guest enclave, over the XEMEM PCI device."""

    def __init__(self, host_enclave: Enclave, guest_enclave: Enclave,
                 vmm: PalaciosVmm, name: str = ""):
        super().__init__(host_enclave, guest_enclave, name=name)
        self.host_enclave = host_enclave
        self.guest_enclave = guest_enclave
        self.vmm = vmm
        # Channel-level delivery: the device handler hands the (already
        # translated) message to the enclave's receiver. Processing is
        # spawned, not awaited, so sends stay one-way like PiscesChannel.
        vmm.pci.register_guest_handler(self._noop_handler)
        vmm.pci.register_host_handler(self._noop_handler)

    @staticmethod
    def _noop_handler(_msg, _pfns):
        return None
        yield  # pragma: no cover

    def _transfer(self, src: Enclave, dst: Enclave, msg: KernelMessage):
        engine = src.engine
        o = obs.get()
        # Dark runs build no span: this runs once per channel message.
        if o.tracer.enabled:
            # Journey tag, as on pisces.transfer: requests carry req_id,
            # responses reply_to.
            rid = msg.payload.get("req_id") or msg.payload.get("reply_to")
            span = o.span("palacios.transfer", engine, track=self.name,
                          kind=msg.kind, npfns=msg.npfns,
                          **({"req_id": rid} if rid else {}))
        else:
            span = NULL_SPAN
        with span:
            start = engine.now
            if dst is self.guest_enclave:
                # host -> guest: map any host PFN list into fresh guest space
                remap = self.vmm.map_host_pfns_into_guest
                deliver = self.vmm.pci.host_to_guest
            else:
                # guest -> host: translate any guest PFN list to host frames
                remap = self.vmm.translate_guest_pfns
                deliver = self.vmm.pci.guest_to_host
            if msg.pfns is not None:
                msg = replace(msg, pfns=(yield from remap(msg.pfns)))
            # The analysis layer splits the span into the VMM's memory-map
            # work (``vmm``) and the PCI copy plus doorbell (``channel``).
            span.set(memmap_ns=engine.now - start)
            yield from deliver(msg.kind, msg.pfns)
        # guest-side PTE installs for delivered lists cost more through
        # the VMM than native installs; the module layer charges
        # guest_map_install_per_page_ns via the kernel's map routines.
        return msg
