"""User-visible shared-memory objects.

:class:`ExportedSegment` is what ``xpmem_make`` returns to the exporting
process; :class:`AttachedRegion` is what ``xpmem_attach`` returns to the
attaching process. Both carry a *data view* (:class:`~repro.hw.memory.
MappedRegion`) over the actual frames, so reads and writes through either
side hit the same bytes — the zero-copy property the test suite checks
end to end, including across VM boundaries.

The data view is the simulation's data plane: it is valid as soon as the
object exists. The control plane (page-table state, demand-paging faults,
modeled costs) is what the kernels account separately — e.g. touching a
lazily attached Linux region via ``kernel.touch_pages`` pays the fault
costs even though the view could already read the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.memory import MappedRegion
from repro.kernels.addrspace import Region
from repro.kernels.process import OSProcess
from repro.xemem.ids import ApId, Permit, SegmentId


@dataclass
class ExportedSegment:
    """An address range exported under a globally unique segid."""

    segid: SegmentId
    proc: OSProcess
    vaddr: int
    npages: int
    permit: Permit
    name: Optional[str] = None
    removed: bool = False
    #: How many grants (apids) other processes currently hold.
    grants_out: int = 0

    @property
    def nbytes(self) -> int:
        return self.npages * 4096

    def view(self) -> MappedRegion:
        """Exporter-side data view over the segment's current frames.

        The exporting process must have populated the pages first (on
        Linux, by touching them or via a served attach's get_user_pages;
        Kitten regions are always populated).
        """
        from repro.kernels.pagetable import PageFault
        from repro.xemem.ids import XememError

        try:
            pfns = self.proc.aspace.table.translate_range(self.vaddr, self.npages)
        except PageFault as fault:
            raise XememError(
                f"segment {self.segid!r} has unpopulated pages (first at "
                f"{fault.vaddr:#x}); touch the region before reading it"
            ) from fault
        return self.proc.kernel.mem.map_region(pfns)


@dataclass
class AttachedRegion:
    """A mapped window into another process's exported segment."""

    apid: ApId
    segid: SegmentId
    proc: OSProcess
    vaddr: int
    npages: int
    #: "remote" (cross-enclave eager map), "linux-lazy" (single-OS Linux),
    #: or "smartmap" (single-OS Kitten).
    kind: str
    #: Kernel region backing the mapping (None for SMARTMAP, which maps
    #: nothing — it aliases the donor's whole table).
    region: Optional[Region] = None
    #: PFNs in the *attacher's* physical namespace (guest PFNs inside a
    #: VM); needed for teardown of VM attachments.
    local_pfns: Optional[np.ndarray] = None
    #: The data view (attacher's window onto the shared bytes).
    view: MappedRegion = None
    detached: bool = False
    #: SMARTMAP bookkeeping: the donor process.
    smartmap_donor: Optional[OSProcess] = None

    @property
    def nbytes(self) -> int:
        return self.npages * 4096

    def write(self, offset: int, data: bytes) -> None:
        """Store bytes through the attachment's data view."""
        self._check_live()
        self.view.write(offset, data)

    def read(self, offset: int, length: int) -> bytes:
        """Load bytes through the attachment's data view."""
        self._check_live()
        return self.view.read(offset, length)

    def as_array(self) -> np.ndarray:
        """Gather the whole attached window into one numpy array (copy)."""
        self._check_live()
        return self.view.as_array()

    def _check_live(self) -> None:
        if self.detached:
            raise RuntimeError(f"attachment {self.apid!r} already detached")
