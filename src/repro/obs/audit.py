"""Runtime invariant auditor: a sanitizer for the simulated kernels.

Default-off. When enabled (``REPRO_AUDIT=1`` on rig builders, or an
explicit :func:`install`), an :class:`Auditor` sits in its engine's
``engine.auditor`` slot and re-derives global invariants from live
kernel/module state at configurable virtual-time intervals and at
quiescence, raising a structured :class:`AuditViolation` (with the spans
that were in flight attached) the moment simulated state drifts. The
engine's :class:`~repro.obs.engine_hooks.EngineObserver` hands each
event's engine to :meth:`Auditor.after_event`, which keeps the cadence.
Because the same checks run under both fidelity modes, the auditor
doubles as a standing differential check on the fast/detailed twin
contracts.

The invariant catalogue (see ``docs/OBSERVABILITY.md``):

* **frame-ownership exclusivity** — enclave allocator windows over the
  same physical memory are disjoint; a PFN mapped by a process of its
  owning kernel is never simultaneously on that kernel's free list;
  free lists themselves are sorted, non-overlapping, inside the window.
* **refcount balance** — live attachments refer to live grants, no
  released grant stays registered, SMARTMAP refcounts are
  non-negative; a segment's ``grants_out``
  covers at least the owner-local grants at all times and, at
  quiescence, equals the live grants across *all* modules.
* **PTE <-> region consistency** — each region's ``populated`` equals
  its present PTE count; STATIC regions are fully populated, EAGER ones
  all-or-nothing; present PTEs carry the region's flags, and read-only
  regions (read-only XEMEM grants) never gain ``PTE_WRITABLE``.
* **walk-cache generation coherence** — the cache never exceeds its slot
  budget, never holds an entry from the future, and every
  current-generation entry re-walks to the identical PFN list.
* **channel balance** (quiescent) — every started Pisces transfer
  completed.

Audit reads are side-effect free: they use counter-free taps
(:meth:`PageTable.walk_cache_entries`, :meth:`PageTable.present_pfns`,
``PageTable._walk``) so enabling audits never changes traces, metrics,
or the virtual clock.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional

import numpy as np

from repro.obs import context as _obs_context
from repro.obs.engine_hooks import EngineObserver

#: Default virtual-time audit cadence: once per simulated millisecond.
DEFAULT_INTERVAL_NS = 1_000_000

#: Environment switches (read by the rig builders).
ENV_ENABLE = "REPRO_AUDIT"
ENV_INTERVAL = "REPRO_AUDIT_INTERVAL_NS"


def env_enabled() -> bool:
    """True when ``REPRO_AUDIT`` requests auditing."""
    return os.environ.get(ENV_ENABLE, "") not in ("", "0")  # repro: noqa[REP103] reason=construction-time arming switch read by rig builders; toggles checking only, never simulation outcomes


def env_interval_ns() -> int:
    """The audit cadence requested by ``REPRO_AUDIT_INTERVAL_NS``."""
    raw = os.environ.get(ENV_INTERVAL, "")  # repro: noqa[REP103] reason=audit cadence knob; affects how often invariants are checked, not what the simulation computes
    return int(raw) if raw else DEFAULT_INTERVAL_NS


class AuditViolation(AssertionError):
    """A broken invariant, with the offending span context attached."""

    def __init__(self, invariant: str, detail: str, time_ns: int = 0,
                 open_spans: tuple = (), recent_spans: tuple = ()):
        self.invariant = invariant
        self.detail = detail
        self.time_ns = time_ns
        #: Names of spans that were open when the audit fired.
        self.open_spans = tuple(open_spans)
        #: (name, start_ns) of the most recently completed spans.
        self.recent_spans = tuple(recent_spans)
        ctx = ""
        if self.open_spans:
            ctx += f" | in flight: {', '.join(self.open_spans)}"
        if self.recent_spans:
            ctx += " | recent: " + ", ".join(
                f"{name}@{start}" for name, start in self.recent_spans
            )
        super().__init__(
            f"[{invariant}] t={time_ns}ns: {detail}{ctx}"
        )


class Auditor:
    """Checks registered kernels/modules/channels against the catalogue."""

    def __init__(self, tracer=None, interval_ns: int = DEFAULT_INTERVAL_NS):
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive, got {interval_ns}")
        self.kernels: List[Any] = []
        self.modules: List[Any] = []
        self.channels: List[Any] = []
        self.tracer = tracer
        self.interval_ns = interval_ns
        self._next_deadline = interval_ns
        self.audits_run = 0
        self.violations_found = 0

    # -- registration ---------------------------------------------------------

    def watch_kernel(self, kernel) -> "Auditor":
        if kernel not in self.kernels:
            self.kernels.append(kernel)
        return self

    def watch_module(self, module) -> "Auditor":
        if module not in self.modules:
            self.modules.append(module)
        return self

    def watch_channel(self, channel) -> "Auditor":
        if channel not in self.channels:
            self.channels.append(channel)
        return self

    def unwatch_kernel(self, kernel) -> "Auditor":
        """Stop checking a kernel (its enclave crashed or was torn down)."""
        if kernel in self.kernels:
            self.kernels.remove(kernel)
        return self

    def unwatch_module(self, module) -> "Auditor":
        if module in self.modules:
            self.modules.remove(module)
        return self

    def unwatch_channel(self, channel) -> "Auditor":
        if channel in self.channels:
            self.channels.remove(channel)
        return self

    @classmethod
    def for_rig(cls, rig, tracer=None,
                interval_ns: int = DEFAULT_INTERVAL_NS) -> "Auditor":
        """Watch every kernel, module, and channel of a cokernel rig."""
        auditor = cls(tracer=tracer, interval_ns=interval_ns)
        for enclave in rig.system.enclaves:
            auditor.watch_kernel(enclave.kernel)
        for module in rig.modules.values():
            auditor.watch_module(module)
        for channel in getattr(rig.system, "channels", []):
            if hasattr(channel, "transfers_started"):
                auditor.watch_channel(channel)
        return auditor

    # -- span context ---------------------------------------------------------

    def _context(self) -> dict:
        if self.tracer is None:
            return {"open_spans": (), "recent_spans": ()}
        return {
            "open_spans": tuple(s.name for s in self.tracer.open_spans()),
            "recent_spans": tuple(
                (s.name, s.start_ns) for s in self.tracer.recent(4)
            ),
        }

    # -- checks ---------------------------------------------------------------

    def check(self, now_ns: int = 0, quiescent: bool = False) -> List[AuditViolation]:
        """Run every applicable invariant; return the violations found.

        ``quiescent=True`` adds the checks that only hold when no
        protocol messages are in flight (exact cross-module grant
        balance, channel transfer balance).
        """
        self.audits_run += 1
        ctx = self._context()
        violations: List[AuditViolation] = []

        def fail(invariant: str, detail: str) -> None:
            violations.append(
                AuditViolation(invariant, detail, time_ns=now_ns, **ctx)
            )

        self._check_frames(fail)
        self._check_regions(fail)
        self._check_walk_caches(fail)
        self._check_refcounts(fail)
        if quiescent:
            self._check_quiescent(fail)
        self.violations_found += len(violations)
        return violations

    def audit_now(self, now_ns: int = 0, quiescent: bool = False) -> None:
        """Like :meth:`check` but raises the first violation found."""
        violations = self.check(now_ns=now_ns, quiescent=quiescent)
        if violations:
            raise violations[0]

    # -- cadence ----------------------------------------------------------------

    def after_event(self, engine) -> None:
        """Audit after one event, if a deadline passed or the queue drained.

        Interval audits fire the first event at-or-after each virtual-time
        deadline; a quiescent audit (with the stricter cross-module
        checks) fires whenever the event queue drains.
        """
        now = engine.now
        if now >= self._next_deadline:
            # One audit per elapsed deadline, then re-arm past `now` so a
            # long virtual jump does not trigger a backlog of audits.
            self._next_deadline = now - now % self.interval_ns + self.interval_ns
            self._audit(now)
        if engine.queue_len == 0:
            self._audit(now, quiescent=True)

    def _audit(self, now_ns: int, quiescent: bool = False) -> None:
        """One audit pass; a violation triggers the ambient flight
        recorder (black-box evidence survives the raise) before it
        propagates."""
        try:
            self.audit_now(now_ns=now_ns, quiescent=quiescent)
        except AuditViolation as exc:
            recorder = _obs_context.get().flightrec
            if recorder is not None:
                recorder.trigger(
                    "audit.violation", now_ns,
                    invariant=exc.invariant, detail=exc.detail,
                    quiescent=quiescent,
                )
            raise

    # frame-ownership exclusivity ---------------------------------------------

    def _physical_kernels(self) -> List[Any]:
        return [
            k for k in self.kernels if not getattr(k, "virtualized", False)
        ]

    def _check_frames(self, fail) -> None:
        # Allocator windows over the same physical memory must be disjoint.
        by_mem: dict = {}
        for kernel in self._physical_kernels():
            by_mem.setdefault(id(kernel.mem), []).append(kernel)  # repro: noqa[REP104] reason=process-local identity grouping of shared PhysicalMemory objects; never ordered on, exported, or compared across processes
        for kernels in by_mem.values():
            spans = sorted(
                (k.allocator.start_pfn,
                 k.allocator.start_pfn + k.allocator.nframes, k.name)
                for k in kernels
            )
            for (lo1, hi1, n1), (lo2, hi2, n2) in zip(spans, spans[1:]):
                if lo2 < hi1:
                    fail(
                        "frame-exclusivity",
                        f"allocator windows of {n1!r} [{lo1},{hi1}) and "
                        f"{n2!r} [{lo2},{hi2}) overlap",
                    )
        for kernel in self._physical_kernels():
            alloc = kernel.allocator
            free_runs = [tuple(run) for run in alloc._free]
            lo = alloc.start_pfn
            hi = alloc.start_pfn + alloc.nframes
            prev_end = None
            free_set = []
            for start, end in free_runs:
                if start >= end or start < lo or end > hi:
                    fail(
                        "frame-exclusivity",
                        f"{kernel.name!r} free run [{start},{end}) outside "
                        f"window [{lo},{hi}) or empty",
                    )
                    continue
                if prev_end is not None and start < prev_end:
                    fail(
                        "frame-exclusivity",
                        f"{kernel.name!r} free list unsorted/overlapping at "
                        f"[{start},{end})",
                    )
                prev_end = end
                free_set.append((start, end))
            # A PFN mapped by one of the kernel's own processes must not
            # simultaneously be free in the kernel's allocator.
            for proc in kernel.processes.values():
                pfns = proc.aspace.table.present_pfns()
                if not len(pfns):
                    continue
                own = pfns[(pfns >= lo) & (pfns < hi)]
                for start, end in free_set:
                    hit = own[(own >= start) & (own < end)]
                    if len(hit):
                        fail(
                            "frame-exclusivity",
                            f"{kernel.name!r} pid {proc.pid} maps pfn "
                            f"{int(hit[0])} which is on the free list "
                            f"[{start},{end})",
                        )
                        break

    # PTE <-> region consistency ----------------------------------------------

    def _check_regions(self, fail) -> None:
        from repro.kernels.addrspace import RegionKind
        from repro.kernels.pagetable import PTE_WRITABLE

        for kernel in self.kernels:
            for proc in kernel.processes.values():
                table = proc.aspace.table
                for region in proc.aspace.regions:
                    where = (
                        f"{kernel.name!r} pid {proc.pid} region "
                        f"{region.name!r} [{region.start:#x}+{region.npages}p]"
                    )
                    if not 0 <= region.populated <= region.npages:
                        fail("pte-region", f"{where}: populated "
                             f"{region.populated}/{region.npages} out of range")
                        continue
                    if region.kind is RegionKind.STATIC and (
                        region.populated != region.npages
                    ):
                        fail("pte-region",
                             f"{where}: STATIC region not fully populated "
                             f"({region.populated}/{region.npages})")
                    if region.kind is RegionKind.EAGER and region.populated not in (
                        0, region.npages
                    ):
                        fail("pte-region",
                             f"{where}: EAGER region partially populated "
                             f"({region.populated}/{region.npages})")
                    present = table.present_mask(region.start, region.npages)
                    npresent = int(present.sum())
                    if npresent != region.populated:
                        fail("pte-region",
                             f"{where}: {npresent} present PTEs but "
                             f"populated={region.populated}")
                        continue
                    if npresent:
                        flagged = table.flag_mask(
                            region.start, region.npages, region.pte_flags
                        )
                        if int(flagged.sum()) != npresent:
                            fail("pte-region",
                                 f"{where}: present PTEs missing region flags "
                                 f"{region.pte_flags:#x}")
                        if not region.pte_flags & PTE_WRITABLE:
                            writable = table.flag_mask(
                                region.start, region.npages, PTE_WRITABLE
                            )
                            if int(writable.sum()):
                                fail("pte-region",
                                     f"{where}: read-only region has "
                                     f"{int(writable.sum())} writable PTEs")

    # walk-cache generation coherence ------------------------------------------

    def _check_walk_caches(self, fail) -> None:
        from repro.kernels.pagetable import PageFault, WALK_CACHE_SLOTS

        for kernel in self.kernels:
            for proc in kernel.processes.values():
                table = proc.aspace.table
                entries = table.walk_cache_entries()
                where = f"{kernel.name!r} pid {proc.pid}"
                if len(entries) > WALK_CACHE_SLOTS:
                    fail("walkcache-coherence",
                         f"{where}: {len(entries)} cached walks exceed the "
                         f"{WALK_CACHE_SLOTS}-slot budget")
                for vaddr, npages, gen, pfns in entries:
                    if gen > table.generation:
                        fail("walkcache-coherence",
                             f"{where}: cache entry ({vaddr:#x},{npages}p) "
                             f"from future generation {gen} > "
                             f"{table.generation}")
                        continue
                    if len(pfns) != npages:
                        fail("walkcache-coherence",
                             f"{where}: cache entry ({vaddr:#x},{npages}p) "
                             f"holds {len(pfns)} pfns")
                        continue
                    if gen != table.generation:
                        continue  # stale entry; a hit would re-walk
                    try:
                        fresh = table._walk(vaddr, npages)
                    except PageFault:
                        fail("walkcache-coherence",
                             f"{where}: current-generation cache entry "
                             f"({vaddr:#x},{npages}p) no longer walks")
                        continue
                    if not np.array_equal(fresh, pfns):
                        fail("walkcache-coherence",
                             f"{where}: current-generation cache entry "
                             f"({vaddr:#x},{npages}p) disagrees with a "
                             f"fresh walk")

    # refcount balance ---------------------------------------------------------

    def _check_refcounts(self, fail) -> None:
        for module in self.modules:
            name = module.enclave.name
            attacher = module.attacher
            for apid, live in attacher.attachments.items():
                if live and apid not in attacher.grants:
                    fail("refcount-balance",
                         f"{name}: apid {apid} has {len(live)} live "
                         "attachments but no grant")
            for key, refs in attacher.smartmap_refs.items():
                if refs < 0:
                    fail("refcount-balance",
                         f"{name}: SMARTMAP refcount {refs} for {key} is "
                         "negative")
            local_by_segid: dict = {}
            for apid, grant in attacher.grants.items():
                if grant.released:
                    fail("refcount-balance",
                         f"{name}: apid {apid} is released but still "
                         "registered")
                if grant.owner_is_local:
                    segid = int(grant.segid)
                    local_by_segid[segid] = local_by_segid.get(segid, 0) + 1
            for segid, seg in module.owner.segments.items():
                if seg.grants_out < 0:
                    fail("refcount-balance",
                         f"{name}: segment {segid} grants_out "
                         f"{seg.grants_out} is negative")
                elif local_by_segid.get(segid, 0) > seg.grants_out:
                    fail("refcount-balance",
                         f"{name}: segment {segid} has "
                         f"{local_by_segid[segid]} owner-local grants but "
                         f"grants_out={seg.grants_out}")

    # quiescent-only checks ----------------------------------------------------

    def _lossy_faults(self) -> bool:
        """True when an armed fault plan can drop/corrupt messages.

        Under message loss the exact grant balance is not an invariant: a
        requester whose GET response was dropped may exhaust its retry
        budget and abandon the grant the owner already counted. The
        per-module refcount checks still run; only the exact cross-module
        balance is waived.
        """
        for kernel in self.kernels:
            injector = getattr(kernel.engine, "faults", None)
            if injector is not None and injector.active and injector.affects_messages:
                return True
        return False

    def _check_quiescent(self, fail) -> None:
        # Exact cross-module grant balance: with no requests in flight,
        # a segment's grants_out equals the live grants across all
        # watched modules.
        if not self._lossy_faults():
            grants_by_segid: dict = {}
            for module in self.modules:
                for grant in module.attacher.grants.values():
                    segid = int(grant.segid)
                    grants_by_segid[segid] = grants_by_segid.get(segid, 0) + 1
            for module in self.modules:
                for segid, seg in module.owner.segments.items():
                    held = grants_by_segid.get(segid, 0)
                    if held != seg.grants_out:
                        fail("refcount-balance",
                             f"{module.enclave.name}: segment {segid} "
                             f"grants_out={seg.grants_out} but {held} live "
                             "grant(s) exist across modules")
        for channel in self.channels:
            if channel.transfers_started != channel.transfers_completed:
                fail("channel-balance",
                     f"channel {channel.name!r}: {channel.transfers_started} "
                     f"transfers started, {channel.transfers_completed} "
                     "completed")


def install(rig, interval_ns: Optional[int] = None,
            tracer=None) -> Auditor:
    """Arm an :class:`Auditor` on a rig's engine; returns the auditor.

    The auditor watches every kernel, module, and channel in the rig and
    sits in the engine's ``auditor`` slot, so rigs sharing one ambient
    observer each audit only themselves. An engine with no observer gets
    a plain :class:`~repro.obs.engine_hooks.EngineObserver` to call it.
    """
    if tracer is None:
        ambient = _obs_context.get().tracer
        tracer = ambient if ambient.enabled else None
    engine = rig.engine
    engine.auditor = Auditor.for_rig(
        rig, tracer=tracer, interval_ns=interval_ns or env_interval_ns(),
    )
    if engine.obs is None:
        engine.obs = EngineObserver()
    return engine.auditor
