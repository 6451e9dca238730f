"""The Palacios VMM: VM construction and XEMEM memory translations.

Implements both Fig. 4 flows:

* :meth:`PalaciosVmm.map_host_pfns_into_guest` — **guest attaches to host
  enclave memory** (Fig. 4(a)): allocate fresh guest-physical space equal
  to the shared region, update the memory map to point it at the host
  frame list (one entry per contiguous host run — the RB-tree growth the
  paper measures), copy the new guest PFNs through the PCI device, and
  inject the vIRQ.
* :meth:`PalaciosVmm.translate_guest_pfns` — **host attaches to guest
  enclave memory** (Fig. 4(b)): walk the memory map for each guest page
  and emit the host frame list. Cheap, because VM RAM is a few large
  entries and the last-entry cache absorbs sequential walks.

VM RAM is allocated from the host enclave's partition in large physically
contiguous blocks ("Palacios is usually configured to manage large blocks
of physically contiguous memory"), so the boot-time memory map is small.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.hw.costs import MB, PAGE_4K
from repro.hw.memory import FrameRange, FrameRangeList
from repro.kernels.base import KernelBase
from repro.virt.memmap import VmmMemoryMap
from repro.virt.pci import XememPciDevice


class PalaciosVmm:
    """One VM instance: memory map, PCI device, vCPU pinning."""

    def __init__(
        self,
        host_kernel: KernelBase,
        vcpu_cores: List,
        ram_bytes: int,
        name: str = "vm",
        ram_block_bytes: int = 128 * MB,
        memmap_backend: str = "rbtree",
        memmap_coalesce: bool = False,
    ):
        if ram_bytes <= 0 or ram_bytes % PAGE_4K:
            raise ValueError(f"bad VM RAM size {ram_bytes}")
        if not vcpu_cores:
            raise ValueError("VM needs at least one vCPU core")
        self.host_kernel = host_kernel
        self.engine = host_kernel.engine
        self.costs = host_kernel.costs
        self.name = name
        self.vcpu_cores = vcpu_cores
        self.memmap = VmmMemoryMap(
            self.costs, backend=memmap_backend, coalesce=memmap_coalesce
        )
        self.ram_frames = ram_bytes // PAGE_4K
        self._ram_blocks: List[FrameRange] = []
        self._build_ram(ram_block_bytes)
        #: Fresh GPA space for XEMEM attachments starts above RAM.
        self._gpa_cursor = self.ram_frames
        self.pci = XememPciDevice(
            self.engine,
            self.costs,
            host_core=host_kernel.service_core,
            guest_core=vcpu_cores[0],
            name=f"{name}.xemem-pci",
        )
        #: Work spent on memory-map inserts per attach (Table 2 accounting).
        self.insert_work_log: List[int] = []

    def _build_ram(self, block_bytes: int) -> None:
        block_frames = max(1, block_bytes // PAGE_4K)
        gpa = 0
        remaining = self.ram_frames
        while remaining > 0:
            take = min(block_frames, remaining)
            rng = self.host_kernel.allocator.alloc(take)
            self._ram_blocks.append(rng)
            # RAM blocks are single entries regardless of policy: Palacios
            # builds them as whole contiguous regions at VM boot.
            self.memmap.insert_mapping(
                gpa, FrameRangeList([rng.start_pfn], [rng.nframes]), coalesce=True)
            gpa += take
            remaining -= take

    @property
    def boot_map_entries(self) -> int:
        """Memory-map entries from VM RAM construction alone."""
        return len(self._ram_blocks)

    # -- Fig. 4(a): guest attachment to host enclave memory ------------------------

    def alloc_guest_pfns(self, npages: int) -> np.ndarray:
        """Allocate a completely new guest-physical region (never RAM)."""
        if npages <= 0:
            raise ValueError(f"bad gpa allocation {npages}")
        start = self._gpa_cursor
        self._gpa_cursor += npages
        return np.arange(start, start + npages, dtype=np.int64)

    def map_host_pfns_into_guest(self, hpa_pfns: np.ndarray):
        """Generator: returns the new guest PFN list for ``hpa_pfns``.

        Simulated time covers the memory-map update (real tree work); the
        caller then pushes the guest PFNs through :attr:`pci` to notify
        the guest. Runs on the VMM's host-side core.
        """
        hpa_pfns = np.asarray(hpa_pfns, dtype=np.int64)
        gpa_pfns = self.alloc_guest_pfns(len(hpa_pfns))
        insert_ns = None

        def work():
            nonlocal insert_ns
            insert_ns = self.memmap.insert_mapping(int(gpa_pfns[0]), hpa_pfns)
            yield self.engine.sleep(insert_ns)

        core = self.host_kernel.service_core
        yield core.resource.acquire()
        start = self.engine.now
        try:
            yield from work()
        finally:
            core.resource.release()
            core.log_steal(start, self.engine.now - start, f"{self.name}:memmap-insert")
        self.insert_work_log.append(insert_ns)
        return gpa_pfns

    def unmap_guest_attachment(self, gpa_pfns: np.ndarray):
        """Generator: drop the memory-map entries of a guest attachment."""
        gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
        work_ns = self.memmap.remove_mapping(int(gpa_pfns[0]), len(gpa_pfns))
        yield self.engine.sleep(work_ns)

    # -- Fig. 4(b): host attachment to guest enclave memory -------------------------

    def translate_guest_pfns(self, gpa_pfns: np.ndarray):
        """Generator: walk the memory map, return the host PFN list.

        Like a page-table walk's, the list is read-only, so the
        attacher's data view adopts it without a copy.
        """
        gpa_pfns = np.asarray(gpa_pfns, dtype=np.int64)
        hpa = self.memmap.translate_array(gpa_pfns)
        hpa.setflags(write=False)
        yield self.engine.sleep(self.memmap.last_op_work_ns)
        return hpa

    def __repr__(self) -> str:
        return (
            f"PalaciosVmm({self.name!r}, ram={self.ram_frames * PAGE_4K // MB}MB, "
            f"map_entries={self.memmap.num_entries}, "
            f"backend={self.memmap.backend.name})"
        )
