"""Guest-side pieces: guest-physical memory and the guest Linux kernel.

A guest kernel allocates *guest* PFNs from its own [0, ram_frames) space;
data access resolves GPA→HPA through the VMM memory map (a zero-cost peek
— the hardware MMU does that walk) and lands in the node's single backing
store. Guest shared memory therefore stays genuinely zero-copy end to end.
"""

from __future__ import annotations

import numpy as np

from repro.hw.memory import FrameAllocator, MappedRegion, PhysicalMemory
from repro.kernels.linux import LinuxKernel


class GuestPhysicalMemory:
    """Duck-typed stand-in for :class:`PhysicalMemory` inside a VM."""

    def __init__(self, vmm: "object", host_mem: PhysicalMemory):
        self.vmm = vmm
        self.host_mem = host_mem

    @property
    def total_frames(self) -> int:
        """Extent of guest-physical space (RAM + attachment regions)."""
        return self.vmm.memmap.max_gpa_pfn()

    def frame_view(self, gpa_pfn: int) -> np.ndarray:
        """Writable view of one guest frame, resolved to its host frame."""
        hpa = int(self.vmm.memmap.peek_translate_array(np.array([gpa_pfn]))[0])
        return self.host_mem.frame_view(hpa)

    def map_region(self, gpa_pfns: np.ndarray, writable: bool = True) -> MappedRegion:
        """Host-backed MappedRegion for a guest PFN list."""
        hpa_pfns = self.vmm.memmap.peek_translate_array(gpa_pfns)
        hpa_pfns.setflags(write=False)  # a fresh array: the view adopts it
        return self.host_mem.map_region(hpa_pfns, writable=writable)


class GuestLinuxKernel(LinuxKernel):
    """Linux running inside a Palacios VM.

    Behaves exactly like :class:`LinuxKernel` (same paging, locking, noise
    profile) except that its frame space is guest-physical and its
    "hardware" cores are the vCPUs Palacios pinned to host cores.
    """

    kernel_type = "linux"

    def __init__(self, engine, node, cores, vmm, name: str = ""):
        ram_frames = vmm.ram_frames
        allocator = FrameAllocator(0, ram_frames)
        super().__init__(engine, node, cores, allocator, name=name or f"{vmm.name}-guest")
        self.vmm = vmm
        self.virtualized = True
        #: Guest data access resolves through the VMM memory map.
        self.mem = GuestPhysicalMemory(vmm, node.memory)

    def gpa_to_hpa(self, gpa_pfns: np.ndarray) -> np.ndarray:
        """Zero-cost data-path translation (tests and region plumbing)."""
        return self.vmm.memmap.peek_translate_array(gpa_pfns)
