"""Explain where an attachment's time goes, stage by stage.

``explain_native_attach`` and ``explain_vm_attach`` run one real
attachment in a fresh rig with span tracing on and read the attach's
request journey (:func:`repro.obs.analysis.journeys`), bucket by bucket,
against the latency the virtual clock measured. The two are independent,
so the remainder (tests enforce 0) checks the tracer against the cost
model. `python -m repro explain` prints the table for both paths.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro import obs
from repro.bench.configs import build_cokernel_system
from repro.hw.costs import GB, MB, PAGE_4K, gib_per_s
from repro.obs import analysis
from repro.obs.tracer import Tracer
from repro.xemem.api import XpmemApi

#: Journey buckets in pipeline order, with what each covers on an attach.
STAGES = {
    "pagetable": "exporter page-table walk",
    "channel": "PFN-list marshal; VM: PCI copy, doorbells",
    "ipi": "request + chunk IPIs, core-0 handlers",
    "vmm": "VMM memory-map inserts",
    "map_install": "attacher PTE install + vm_mmap",
    "xemem": "fixed protocol cost",
}


@dataclass
class AttachBreakdown:
    """One measured attachment and its traced request journey."""
    path: str
    size_bytes: int
    measured_ns: int
    journey: analysis.Journey
    rig: object  #: the rig the attach ran on, for cross-checks

    @property
    def by_subsystem(self) -> Dict[str, int]:
        """The journey's buckets (ns)."""
        return self.journey.by_subsystem

    @property
    def unattributed_ns(self) -> int:
        """Measured minus traced (should be 0)."""
        return self.measured_ns - sum(self.by_subsystem.values())

    @property
    def gib_s(self) -> float:
        """The attachment's throughput."""
        return gib_per_s(self.size_bytes, self.measured_ns)

    def rows(self) -> List[Tuple[str, str, str]]:
        """Render-ready (stage, time, share) rows including the total."""
        order = list(STAGES) + sorted(set(self.by_subsystem) - set(STAGES))
        stages = [
            (f"{bucket} ({STAGES.get(bucket, 'other')})",
             self.by_subsystem[bucket])
            for bucket in order if bucket in self.by_subsystem
        ]
        if self.unattributed_ns:  # the clock saw time no span did
            stages.append(("(unattributed)", self.unattributed_ns))
        out = [
            (stage, f"{ns / 1e6:.3f} ms", f"{100 * ns / self.measured_ns:.1f}%")
            for stage, ns in stages
        ]
        out.append(("TOTAL", f"{self.measured_ns / 1e6:.3f} ms", "100.0%"))
        return out


@contextlib.contextmanager
def _tracing() -> Iterator[Tracer]:
    """The active tracer, or for the scope a fresh one on a copy of the
    active context (the same metrics, engine observer, flight recorder)."""
    ctx = copy.copy(obs.get())
    if ctx.tracer.enabled:
        yield ctx.tracer
        return
    ctx.tracer = Tracer()
    previous = obs.install(ctx)
    try:
        yield ctx.tracer
    finally:
        obs.install(previous)


def _explain_attach(path: str, rig, exporter_kernel, attacher_kernel,
                    size_bytes: int) -> AttachBreakdown:
    eng = rig.engine
    npages = -(-size_bytes // PAGE_4K)
    exporter_kernel.heap_pages = npages + 16
    kp = exporter_kernel.create_process("exporter")
    ap = attacher_kernel.create_process("attacher", core_id=attacher_kernel.cores[-1].core_id)
    heap = exporter_kernel.heap_region(kp)

    def run():
        api_x, api_a = XpmemApi(kp), XpmemApi(ap)
        segid = yield from api_x.xpmem_make(heap.start, size_bytes)
        apid = yield from api_a.xpmem_get(segid)
        t0 = eng.now
        yield from api_a.xpmem_attach(apid)
        return eng.now - t0

    with _tracing() as tracer:
        before = len(tracer) + tracer.dropped
        measured_ns = eng.run_process(run())
    trace = analysis.from_tracer(tracer, since=before)
    if trace.dropped:
        raise RuntimeError(
            f"the span ring cap dropped {trace.dropped} spans of the attach"
        )
    (journey,) = (j for j in analysis.journeys(trace)
                  if j.op == "xemem.attach")
    return AttachBreakdown(path, size_bytes, measured_ns, journey, rig)


def explain_native_attach(size_bytes: int = 1 * GB) -> AttachBreakdown:
    """One Kitten→Linux attachment, decomposed."""
    rig = build_cokernel_system(
        num_cokernels=1, cokernel_mem=int(size_bytes + 64 * MB)
    )
    return _explain_attach("Kitten -> Linux (native)", rig,
                           rig.cokernels[0].kernel, rig.linux.kernel,
                           size_bytes)


def explain_vm_attach(size_bytes: int = 1 * GB,
                      memmap_backend: str = "rbtree") -> AttachBreakdown:
    """One Kitten→Linux-VM attachment (the Table 2 slow path), decomposed."""
    rig = build_cokernel_system(
        num_cokernels=1, with_vm=True, vm_host="linux",
        cokernel_mem=int(size_bytes + 64 * MB), memmap_backend=memmap_backend,
    )
    return _explain_attach(
        f"Kitten -> Linux VM (Fig. 4(a), {memmap_backend} memory map)", rig,
        rig.cokernels[0].kernel, rig.vm.kernel, size_bytes,
    )
