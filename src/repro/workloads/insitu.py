"""The composed in situ workload (paper §6.1–6.2).

A modified-HPCCG *simulation* and a STREAM *analytics* program, coupled
exactly as the paper describes: stop/go signals are variables in shared
memory (a small control segment exported by the simulation), the
analytics side polls them, and the simulation's data region reaches the
analytics program through XEMEM.

Workflow parameters (§6.2):

* **synchronous** — at each communication interval the simulation blocks
  until the analytics program finishes STREAM and acks;
  **asynchronous** — the analytics program acks immediately after
  (optionally) attaching, then runs STREAM while the simulation resumes.
* **one-time** — the simulation exports one data region up front and the
  analytics program attaches once;
  **recurring** — a fresh region is exported at every interval and
  attached (and detached) every time.

Interference is explicit and seeded: while the analytics program is
actively streaming, a concurrently executing simulation is slowed by a
memory-bandwidth contention factor — large when both run under the same
kernel (the Linux-only configuration), small across enclave boundaries.
OS noise enters through the kernels' noise profiles via
:func:`~repro.workloads.compute.noise_aware_compute`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.hw.costs import MB, PAGE_4K
from repro.hw.memory import MappedRegion
from repro.kernels.noise import splitmix64
from repro.sim.engine import Awaitable
from repro.workloads.compute import noise_aware_compute
from repro.workloads.hpccg import HpccgProblem, HpccgSolver
from repro.workloads.stream import StreamBenchmark
from repro.xemem.api import XpmemApi
from repro.xemem.ids import SegmentId

#: Control-segment layout (offsets of uint64 words).
CTL_SEQ = 0        # simulation -> analytics: "go" counter
CTL_ACK = 8        # analytics -> simulation: completion counter
CTL_DATA_SEGID = 16  # segid of the current data region
CTL_BYTES = 4096

POLL_START_NS = 1_000
POLL_CAP_NS = 1_000_000

_U64 = struct.Struct("<Q")


def write_u64(view, offset: int, value: int) -> None:
    """Store one little-endian u64 into a shared view."""
    view.write(offset, struct.pack("<Q", value))


def read_u64(view, offset: int) -> int:
    """Load one little-endian u64 from a shared view."""
    return struct.unpack("<Q", view.read(offset, 8))[0]


class SharedFlags:
    """Typed accessor for the control segment's stop/go words.

    The paper's applications poll "variables in shared memory"; this
    wraps a control-segment view with named accessors for those words.
    """

    def __init__(self, view):
        self.view = view

    @property
    def seq(self) -> int:
        return read_u64(self.view, CTL_SEQ)

    @seq.setter
    def seq(self, value: int) -> None:
        write_u64(self.view, CTL_SEQ, value)

    @property
    def ack(self) -> int:
        return read_u64(self.view, CTL_ACK)

    @ack.setter
    def ack(self, value: int) -> None:
        write_u64(self.view, CTL_ACK, value)

    @property
    def data_segid(self) -> int:
        return read_u64(self.view, CTL_DATA_SEGID)

    @data_segid.setter
    def data_segid(self, value: int) -> None:
        write_u64(self.view, CTL_DATA_SEGID, value)


class _WordPoll(Awaitable):
    """Awaitable: fires once a shared u64 reads at least ``target``.

    The word is checked on a backoff schedule: the first check
    ``POLL_START_NS`` after parking, each later one twice as far from
    the last, capped at ``POLL_CAP_NS``. A check is a bare engine
    callback, one ``call_at`` each, at the times and in the queue order
    a ``sleep`` loop's timeouts would take, so same-ns ties with writers
    and other pollers resolve exactly as they would for such a loop. The
    waiter is resumed, synchronously from the check, only when the word
    has reached the target; a write is seen at the first check at or
    after it.

    A word of a plain :class:`MappedRegion` that lies inside one page is
    loaded straight from its frame (located once, at park time), so
    stores through any mapping, ``fill`` or a raw page view all show.
    Any other view, such as an attachment that checks it is still live,
    and a word that straddles a page are loaded through :func:`read_u64`
    at every check; a load that raises fails the waiter.
    """

    __slots__ = ("engine", "view", "offset", "target", "interval", "resume",
                 "lookup", "pfn", "in_page")

    def __init__(self, engine, view, offset: int, target: int):
        self.engine = engine
        self.view = view
        self.offset = offset
        self.target = target
        self.interval = POLL_START_NS
        #: The waiter's resume callback; None before parking, once fired,
        #: and once the waiter left (a still-queued check is then stale).
        self.resume = None
        located = view.locate_word(offset) if type(view) is MappedRegion else None
        self.lookup, self.pfn, self.in_page = located or (None, 0, 0)

    def subscribe(self, callback) -> None:
        self.resume = callback
        self.engine.call_at(self.engine.now + self.interval, self._check)

    def _check(self) -> None:
        resume = self.resume
        if resume is None:
            return
        if self.lookup is not None:
            frame = self.lookup(self.pfn)
            value = 0 if frame is None else _U64.unpack_from(frame, self.in_page)[0]
        else:
            try:
                value = read_u64(self.view, self.offset)
            except Exception as exc:  # noqa: BLE001  # repro: noqa[REP007] reason=the error is thrown into the waiter, where a load inside it would raise
                self.resume = None
                resume(None, exc)
                return
        if value >= self.target:
            self.resume = None
            resume(None, None)
            return
        self.interval = interval = min(self.interval * 2, POLL_CAP_NS)
        engine = self.engine
        engine.call_at(engine.now + interval, self._check)


def poll_u64_at_least(engine, view, offset: int, target: int):
    """Generator: poll a shared word until it reaches ``target``.

    A word that already holds ``target`` yields nothing; otherwise the
    caller parks on a :class:`_WordPoll`. Exponential backoff keeps the
    event count bounded; the paper's workloads poll continuously, and at
    the capped 1 ms granularity the detection-latency difference is
    invisible at the 150 s scale.
    """
    if read_u64(view, offset) >= target:
        return
    poll = _WordPoll(engine, view, offset, target)
    try:
        yield poll
    finally:
        poll.resume = None  # interrupted while parked: the queued check is stale


@dataclass
class InSituConfig:
    """One experimental cell of §6 (a bar of Fig. 8 / a point of Fig. 9)."""

    execution: str = "sync"         # "sync" | "async"
    attach: str = "one_time"        # "one_time" | "recurring"
    iterations: int = 600
    comm_interval: int = 40
    data_bytes: int = 512 * MB
    problem: HpccgProblem = field(default_factory=lambda: HpccgProblem(100, 100, 100))
    sim_ncores: int = 1
    #: HPCCG slowdown while virtualized (Palacios is lightweight).
    sim_vm_slowdown: float = 1.0
    #: STREAM slowdown of the analytics environment (1.0 native;
    #: Palacios-on-Linux guests pay the most, §6.4).
    analytics_slowdown: float = 1.0
    #: "poll" = the paper's stop/go variables polled in shared memory;
    #: "notify" = the event-notification extension (kernel doorbells,
    #: §6.1 future work — ablation E compares the two).
    signal_mode: str = "poll"
    #: Simulation slowdown while analytics streams under the SAME kernel
    #: (Linux-only co-location: STREAM contends for the socket's memory
    #: bandwidth and the shared scheduler). Calibrated to the paper's
    #: ≈2.5 s async-mode gap between Linux-only and Kitten/Linux.
    colocated_interference: float = 1.18
    #: ... and across enclave boundaries (separate kernels, shared DRAM).
    isolated_interference: float = 1.04
    seed: int = 0
    verify_numerics: bool = False

    def __post_init__(self):
        if self.execution not in ("sync", "async"):
            raise ValueError(f"bad execution model {self.execution!r}")
        if self.attach not in ("one_time", "recurring"):
            raise ValueError(f"bad attach model {self.attach!r}")
        if self.signal_mode not in ("poll", "notify"):
            raise ValueError(f"bad signal mode {self.signal_mode!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.comm_interval < 1:
            raise ValueError(
                f"comm_interval must be at least 1, got {self.comm_interval}"
            )
        if self.iterations % self.comm_interval:
            raise ValueError("iterations must be a multiple of comm_interval")

    @property
    def comm_points(self) -> int:
        """Number of simulation/analytics communication intervals."""
        return self.iterations // self.comm_interval


@dataclass
class InSituResult:
    """Outcome of one composed run (timings, faults, verification)."""
    sim_time_s: float
    stream_times_s: List[float]
    attach_times_s: List[float]
    analytics_faults: int
    data_marks_verified: bool
    numerics_verified: Optional[bool]
    config: InSituConfig


class InSituWorkload:
    """Drives one full composed run on an assembled enclave system."""

    def __init__(self, sim_enclave, analytics_enclave, config: InSituConfig,
                 iteration_hook: Optional[Callable] = None):
        self.sim_enclave = sim_enclave
        self.analytics_enclave = analytics_enclave
        self.config = config
        self.engine = sim_enclave.engine
        #: Optional generator factory called as ``iteration_hook(it)`` after
        #: every simulation iteration (the cluster layer's MPI allreduce).
        self.iteration_hook = iteration_hook
        self._analytics_streaming = False
        self._marks_ok = True
        self._rng_draw = 0

    # -- interference -----------------------------------------------------------

    def _sim_slowdown(self) -> float:
        """Per-iteration simulation slowdown from concurrent analytics."""
        cfg = self.config
        if not self._analytics_streaming:
            return cfg.sim_vm_slowdown
        base = (
            cfg.colocated_interference
            if self.sim_enclave is self.analytics_enclave
            else cfg.isolated_interference
        )
        # seeded jitter: contention is bursty, not constant
        self._rng_draw += 1
        u = splitmix64(cfg.seed * 7919 + self._rng_draw) / 2**64
        jitter = 1.0 + 0.15 * (u - 0.5)
        return cfg.sim_vm_slowdown * base * jitter

    # -- the two program halves -----------------------------------------------------

    def _sim_main(self, proc, api: XpmemApi, ctl_view, data_state):
        cfg = self.config
        kernel = proc.kernel
        iter_ns = cfg.problem.iteration_ns(kernel.costs, cfg.sim_ncores)
        t_start = self.engine.now
        seq = 0
        for it in range(1, cfg.iterations + 1):
            yield from noise_aware_compute(
                kernel, proc, iter_ns, slowdown=self._sim_slowdown()
            )
            if self.iteration_hook is not None:
                yield from self.iteration_hook(it)
            if it % cfg.comm_interval == 0:
                seq += 1
                if cfg.attach == "recurring" and seq > 1:
                    yield from self._sim_reexport(proc, api, data_state)
                # stamp the data region so analytics can verify real bytes
                data_state["view"].write(0, struct.pack("<Q", 0xC0FFEE00 + seq))
                write_u64(ctl_view, CTL_DATA_SEGID, int(data_state["segid"]))
                write_u64(ctl_view, CTL_SEQ, seq)
                if cfg.signal_mode == "notify":
                    yield from api.xpmem_signal(data_state["ctl_segid"])
                    yield from api.xpmem_wait(data_state["ack_segid"])
                else:
                    # wait for the ack word (sync: after STREAM; async:
                    # immediate) by polling shared memory, §6.1
                    yield from poll_u64_at_least(
                        self.engine, ctl_view, CTL_ACK, seq
                    )
        return (self.engine.now - t_start) / 1e9

    def _sim_reexport(self, proc, api: XpmemApi, data_state):
        """Recurring model: retire the old segid, register a fresh one.

        The simulation's data buffer itself persists (it is the solver's
        working set); what recurs is the *registration* — so the exporter
        pays a name-server round trip per interval, and the attacher pays
        a fresh attach (with, on Linux, fresh demand-paging faults over
        the new lazy VMA — the §6.4 mechanism).
        """
        yield from api.xpmem_remove(data_state["segid"])
        segid = yield from api.xpmem_make(data_state["vaddr"], self.config.data_bytes)
        data_state["segid"] = segid
        data_state["view"] = api.segment(segid).view()

    def _analytics_main(self, proc, api: XpmemApi, segids, result):
        cfg = self.config
        ctl_segid, ack_segid = segids
        kernel = proc.kernel
        stream = StreamBenchmark(kernel, proc)
        ctl_apid = yield from api.xpmem_get(ctl_segid)
        ctl_att = yield from api.xpmem_attach(ctl_apid)
        if cfg.signal_mode == "notify":
            yield from api.xpmem_subscribe(ctl_segid)
        attached = None
        data_apid = None
        for point in range(1, cfg.comm_points + 1):
            if cfg.signal_mode == "notify":
                yield from api.xpmem_wait(ctl_segid)
            else:
                yield from poll_u64_at_least(
                    self.engine, ctl_att.view, CTL_SEQ, point
                )
            if attached is None or cfg.attach == "recurring":
                if attached is not None:
                    yield from api.xpmem_detach(attached)
                    yield from api.xpmem_release(data_apid)
                segid = SegmentId(read_u64(ctl_att.view, CTL_DATA_SEGID))
                t0 = self.engine.now
                data_apid = yield from api.xpmem_get(segid)
                attached = yield from api.xpmem_attach(data_apid)
                result["attach_times"].append((self.engine.now - t0) / 1e9)
            # verify the simulation's stamp through the shared mapping
            mark = struct.unpack("<Q", attached.read(0, 8))[0]
            if mark != 0xC0FFEE00 + point:
                self._marks_ok = False
            if cfg.execution == "async":
                yield from self._ack(api, ctl_att, ack_segid, point)
            # the attacher touches the region (faults on lazy local maps)
            if attached.kind != "smartmap":
                faults = yield from kernel.touch_pages(
                    proc, attached.vaddr, attached.npages
                )
                result["faults"] += faults
            self._analytics_streaming = True
            sres = yield from stream.run(
                attached.view, cfg.data_bytes, slowdown=cfg.analytics_slowdown
            )
            self._analytics_streaming = False
            if not sres.verified:
                raise RuntimeError(
                    f"STREAM triad check failed on analytics pass {point} "
                    f"of {cfg.comm_points} (seed {cfg.seed})"
                )
            result["stream_times"].append(sres.elapsed_ns / 1e9)
            if cfg.execution == "sync":
                yield from self._ack(api, ctl_att, ack_segid, point)
        return result

    def _ack(self, api: XpmemApi, ctl_att, ack_segid, point: int):
        write_u64(ctl_att.view, CTL_ACK, point)
        if self.config.signal_mode == "notify":
            yield from api.xpmem_signal(ack_segid)

    # -- setup + drive ---------------------------------------------------------------

    def start(self):
        """Spawn the simulation and analytics processes; returns
        ``(sim_proc, analytics_proc)`` without driving the engine.

        Multi-node runs (Fig. 9) start one workload per node in a shared
        engine and then drive them together; :meth:`run` is the
        single-workload convenience wrapper.
        """
        cfg = self.config
        engine = self.engine
        sim_kernel = self.sim_enclave.kernel
        ana_kernel = self.analytics_enclave.kernel
        data_pages = -(-cfg.data_bytes // PAGE_4K)
        if sim_kernel.kernel_type == "kitten":
            sim_kernel.heap_pages = data_pages + 2  # data + control slack
        sim_proc = sim_kernel.create_process("hpccg-sim")
        ana_core = ana_kernel.cores[min(1, len(ana_kernel.cores) - 1)].core_id
        ana_proc = ana_kernel.create_process("analytics", core_id=ana_core)
        result = {"stream_times": [], "attach_times": [], "faults": 0}

        def setup_and_sim():
            api = XpmemApi(sim_proc)
            if sim_kernel.kernel_type == "linux":
                ctl_region = yield from sim_kernel.mmap_anonymous(sim_proc, CTL_BYTES)
                yield from sim_kernel.touch_pages(sim_proc, ctl_region.start, 1)
                data_region = yield from sim_kernel.mmap_anonymous(
                    sim_proc, cfg.data_bytes, "data"
                )
                yield from sim_kernel.touch_pages(
                    sim_proc, data_region.start, data_region.npages
                )
                ctl_vaddr, data_vaddr = ctl_region.start, data_region.start
            else:
                heap = sim_kernel.heap_region(sim_proc)
                data_vaddr = heap.start
                ctl_vaddr = heap.start + data_pages * PAGE_4K
                data_region = heap
            ctl_segid = yield from api.xpmem_make(
                ctl_vaddr, CTL_BYTES, name=f"insitu-ctl-{cfg.seed}"
            )
            # a second registration of the control page serves as the
            # simulation-side doorbell in notify mode
            ack_segid = yield from api.xpmem_make(ctl_vaddr, CTL_BYTES)
            data_segid = yield from api.xpmem_make(data_vaddr, cfg.data_bytes)
            ctl_view = api.segment(ctl_segid).view()
            data_state = {
                "segid": data_segid,
                "vaddr": data_vaddr,
                "region": data_region,
                "view": api.segment(data_segid).view(),
                "ctl_segid": ctl_segid,
                "ack_segid": ack_segid,
            }
            ready.trigger((ctl_segid, ack_segid))
            sim_time = yield from self._sim_main(sim_proc, api, ctl_view, data_state)
            return sim_time

        def analytics():
            segids = yield ready
            api = XpmemApi(ana_proc)
            yield from self._analytics_main(ana_proc, api, segids, result)

        ready = engine.event("insitu-ready")
        sim_p = engine.spawn(setup_and_sim(), name="sim")
        ana_p = engine.spawn(analytics(), name="analytics")
        self._result_state = result
        return sim_p, ana_p

    def collect(self, sim_p) -> InSituResult:
        """Build the result record once both processes have finished."""
        cfg = self.config
        result = self._result_state
        numerics = None
        if cfg.verify_numerics:
            solver = HpccgSolver(HpccgProblem(24, 24, 24))
            _x, hist = solver.solve(solver.default_rhs(cfg.seed), tol=1e-8,
                                    max_iters=200)
            numerics = hist[-1] < 1e-8
        return InSituResult(
            sim_time_s=sim_p.result,
            stream_times_s=result["stream_times"],
            attach_times_s=result["attach_times"],
            analytics_faults=result["faults"],
            data_marks_verified=self._marks_ok,
            numerics_verified=numerics,
            config=cfg,
        )

    def run(self) -> InSituResult:
        """Start and drive one workload to completion."""
        sim_p, ana_p = self.start()
        self.engine.run_until_complete(sim_p)
        self.engine.run_until_complete(ana_p)
        return self.collect(sim_p)
