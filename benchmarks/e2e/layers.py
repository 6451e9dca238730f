"""Host-time attribution for the simulator's layers, applied from outside.

Nothing under ``src/`` knows about this module. :func:`instrument`
replaces each layer's public entry points (class methods and module
functions) with thin wrappers and puts the originals back on exit:

* every run mode times the rig builders (``build_cokernel_system``,
  ``build_insitu_rig``, ``Cluster(...)``), so set-up can be reported
  apart from the cells' own work;
* with ``trace=True`` every entry point also opens a host-time span on
  one :class:`SpanStack`. A wrapped generator is returned as a
  :class:`TimedGen`, which times each ``send``/``throw``/``close``
  resumption, so ``yield from`` chains nest exactly as they execute.
  ``Engine.spawn`` charges each process's root generator to the layer
  whose file defines it, which is how XEMEM handler processes count as
  ``xemem``. ``Engine.run`` is the ``sim`` span, so engine and process
  stepping not covered by another layer is ``sim`` self time.

A layer is named by the file its code lives in (:func:`layer_of_file`);
the cProfile cross-check (``crosscheck.py``) groups by the same rule.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
import weakref
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``src/repro/<prefix>`` -> layer; first match wins, so files come
#: before the package that holds them.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("virt/", "virt"),
    ("kernels/pagetable.py", "kernels.pagetable"),
    ("kernels/noise.py", "kernels.noise"),
    ("kernels/", "kernels.mm"),
    ("hw/memory.py", "hw.memory"),
    ("hw/interrupts.py", "hw.interrupts"),
    ("pisces/", "pisces"),
    ("xemem/overload.py", "xemem.overload"),
    ("xemem/", "xemem"),
    ("faults/", "faults"),
    ("obs/", "obs"),
    ("workloads/", "workloads"),
    ("cluster/", "cluster"),
)

LAYERS: Tuple[str, ...] = tuple(layer for _prefix, layer in LAYER_PREFIXES)


def module_layer(module: str) -> Optional[str]:
    """The layer of dotted module name ``module``."""
    return layer_of_file("/" + module.replace(".", "/") + ".py")


def layer_of_file(path: str) -> Optional[str]:
    """The layer owning source file ``path``; None outside the layers
    (``bench``, ``enclave``, ``hw/topology.py``, third-party code)."""
    path = path.replace("\\", "/")
    i = path.rfind("/repro/")
    if i < 0:
        return None
    rel = path[i + len("/repro/"):]
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return None


# --------------------------------------------------------------------- spans


class SpanStack:
    """Host-time spans with exclusive (self) time per layer.

    A layer's self time is its spans' duration minus the part covered by
    nested spans. Each span also costs the tracer a little time, part of
    it inside the span's own window and part outside it, in the parent's;
    :func:`calibrate` measures both per span (``inner_bias`` and
    ``outer_bias``) and they are charged to nobody, the way the standard
    library profiler subtracts its calibrated bias. While :attr:`muted`
    is non-zero (inside a rig builder) nothing is recorded.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 inner_bias: float = 0.0, outer_bias: float = 0.0):
        self.clock = clock
        self.inner_bias = inner_bias
        self.outer_bias = outer_bias
        self.frames: List[list] = []  # [layer, start, child_s, nested]
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Spans closed per layer. A call into the layer already on top
        #: of the stack opens no span, so for a layer entered only through
        #: plain functions this is the number of calls from other layers.
        self.closed: Counter = Counter()
        self.counts: Counter = Counter()
        self.muted = 0
        self._events_seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def enter(self, layer: str) -> None:
        if self.muted:
            return
        frames = self.frames
        if frames and frames[-1][0] == layer:
            frames[-1][3] += 1  # same layer: attribution cannot change
        else:
            frames.append([layer, self.clock(), 0.0, 0])

    def exit(self) -> None:
        if self.muted:
            return
        top = self.frames[-1]
        if top[3]:
            top[3] -= 1
            return
        end = self.clock()
        layer, start, child_s, _nested = self.frames.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s - self.inner_bias
        self.closed[layer] += 1
        if self.frames:
            self.frames[-1][2] += duration + self.outer_bias

    @property
    def bookkeeping_s(self) -> float:
        """The tracer's own time, by the calibrated cost per span."""
        return sum(self.closed.values()) * (self.inner_bias + self.outer_bias)

    def exclude(self, seconds: float) -> None:
        """Time spent in an excluded call (a rig builder) is nobody's."""
        if self.frames:
            self.frames[-1][2] += seconds

    def count(self, key: str, n: int = 1) -> None:
        if not self.muted:
            self.counts[key] += n

    def note_events(self, engine) -> None:
        """Add the ``call_at`` calls ``engine`` made since last seen."""
        seq = engine._seq
        previous = self._events_seen.get(engine, 0)
        self._events_seen[engine] = seq
        self.count("sim.events", seq - previous)


class TimedGen:
    """A generator whose every resumption is a span of ``layer``.

    Keeps the wrapped generator's ``__name__``, which the engine uses as
    the default process name.
    """

    def __init__(self, gen, layer: str, spans: SpanStack):
        self.gen = gen
        self.layer = layer
        self.spans = spans
        self.__name__ = getattr(gen, "__name__", "gen")

    def __iter__(self) -> "TimedGen":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        spans = self.spans
        spans.enter(self.layer)
        try:
            return self.gen.send(value)
        finally:
            spans.exit()

    def throw(self, *args):
        spans = self.spans
        spans.enter(self.layer)
        try:
            return self.gen.throw(*args)
        finally:
            spans.exit()

    def close(self) -> None:
        spans = self.spans
        spans.enter(self.layer)
        try:
            self.gen.close()
        finally:
            spans.exit()


#: ``(metric, parameter, measure)``: on each call add ``measure(arg)`` to
#: ``<layer>.<metric>``; a None parameter adds 1. Counting costs the
#: caller a little, so frequently called entry points count nothing and
#: their layer reports ``calls`` from :attr:`SpanStack.closed` instead.
CountSpec = Tuple[str, Optional[str], Optional[Callable]]


def _counter(fn, layer: str, specs: Tuple[CountSpec, ...]):
    params = list(inspect.signature(fn).parameters)
    plan = [
        (f"{layer}.{metric}", None if param is None else params.index(param),
         param, measure)
        for metric, param, measure in specs
    ]

    def count(spans: SpanStack, args, kwargs) -> None:
        for key, index, param, measure in plan:
            if index is None:
                spans.count(key)
            else:
                value = args[index] if index < len(args) else kwargs[param]
                spans.count(key, int(measure(value)))

    return count


def traced(fn, layer: str, spans: SpanStack, counts: Tuple[CountSpec, ...] = ()):
    """``fn`` with its calls (or, for a generator function, the
    resumptions of the generators it returns) charged to ``layer``."""
    count = _counter(fn, layer, counts) if counts else None
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if count is not None:
                count(spans, args, kwargs)
            return TimedGen(fn(*args, **kwargs), layer, spans)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count is not None:
            count(spans, args, kwargs)
        spans.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.exit()
    return wrapper


def calibrate(clock: Callable[[], float] = time.perf_counter, n: int = 20000,
              trials: int = 5) -> Tuple[float, float]:
    """``(inner_bias, outer_bias)``: the tracer's cost per span inside a
    span's own window and outside it, from a wrapped no-op called ``n``
    times inside a parent span; the median of ``trials``."""
    def noop():
        pass

    inners, outers = [], []
    for _ in range(trials):
        t0 = clock()
        for _ in range(n):
            pass
        t1 = clock()
        for _ in range(n):
            noop()
        t2 = clock()
        loop_s, call_s = (t1 - t0) / n, (t2 - t1 - (t1 - t0)) / n
        spans = SpanStack(clock)
        wrapped = traced(noop, "obs", spans)
        spans.enter("sim")
        for _ in range(n):
            wrapped()
        spans.exit()
        inners.append(spans.self_s["obs"] / n - call_s)
        outers.append(spans.self_s["sim"] / n - loop_s)
    return max(statistics.median(inners), 0.0), max(statistics.median(outers), 0.0)


# ------------------------------------------------------------- entry points

#: Layers whose ``calls`` count is their number of closed spans: they
#: are entered only through plain functions, often, so per-call counting
#: would cost more than the calls themselves.
CALL_COUNTED_LAYERS = ("kernels.pagetable", "kernels.noise", "hw.memory", "obs")

#: ``(module, class or None, space-separated names, counts)``. Only
#: entry points other layers call are wrapped; a layer's internals stay
#: untouched, so their time is the entry point's self time.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, Tuple[CountSpec, ...]], ...] = (
    # virt: the guest memory map, the VMM, the PCI device, guest kernels
    ("repro.virt.memmap", "VmmMemoryMap", "insert_mapping",
     (("insert_pages", "hpa_pfns", len),)),
    ("repro.virt.memmap", "VmmMemoryMap", "remove_mapping",
     (("remove_pages", "npages", int),)),
    ("repro.virt.memmap", "VmmMemoryMap", "translate",
     (("translate_pages", None, None),)),
    ("repro.virt.memmap", "VmmMemoryMap", "translate_array peek_translate_array",
     (("translate_pages", "gpa_pfns", len),)),
    ("repro.virt.palacios", "PalaciosVmm",
     "alloc_guest_pfns map_host_pfns_into_guest unmap_guest_attachment "
     "translate_guest_pfns", ()),
    ("repro.virt.pci", "XememPciDevice", "host_to_guest guest_to_host", ()),
    ("repro.virt.guest", "GuestLinuxKernel", "gpa_to_hpa", ()),
    ("repro.virt.guest", "GuestPhysicalMemory", "frame_view map_region", ()),
    # kernels.pagetable: the page-table facade over both stores
    ("repro.kernels.pagetable", "PageTable",
     "map_page unmap_page translate set_flags share_pml4_slot "
     "unshare_pml4_slot present_pfns mapped_vaddrs", ()),
    ("repro.kernels.pagetable", "PageTable",
     "unmap_range translate_range range_flags_all set_flags_range "
     "present_mask flag_mask first_missing_flag",
     (("pages", "npages", int),)),
    ("repro.kernels.pagetable", "PageTable", "map_range",
     (("pages", "pfns", len),)),
    ("repro.kernels.pagetable", "PageTable", "map_pages_sparse",
     (("pages", "pfns", len),)),
    # kernels.noise: analytic noise accounting
    ("repro.kernels.noise", "NoiseSource", "stolen_in", ()),
    # kernels.mm: kernel memory services and address spaces
    ("repro.kernels.base", "KernelBase",
     "create_process destroy_process alloc_pfns free_pfns walk_for_export "
     "map_remote_pfns unmap_attachment touch_pages pin_pages stolen_ns", ()),
    ("repro.kernels.linux", "LinuxKernel",
     "mmap_anonymous touch_pages pin_pages walk_for_export map_remote_pfns "
     "munmap attach_local_lazy", ()),
    ("repro.kernels.linux", "LinuxKernel", "handle_fault",
     (("faults", None, None),)),
    ("repro.kernels.linux", "LinuxKernel", "_bulk_fault",
     (("faults", "region", lambda region: region.npages),)),
    ("repro.kernels.linux", "LinuxKernel", "_fault_missing",
     (("faults", "missing", len),)),
    ("repro.kernels.kitten", "KittenKernel",
     "heap_region smartmap_attach smartmap_detach expand_heap "
     "unmap_attachment map_remote_pfns", ()),
    ("repro.kernels.addrspace", "AddressSpace",
     "add_region remove_region find_region find_free map_region_pfns "
     "populate_page populate_pages unmap_region unmap_populated_pages", ()),
    # hw.memory: frames, allocators, data views
    ("repro.hw.memory", "FrameAllocator",
     "alloc alloc_pages alloc_scattered free free_all free_run_list", ()),
    ("repro.hw.memory", "PhysicalMemory", "frame_view map_region zone_of_pfn",
     ()),
    ("repro.hw.memory", "MappedRegion",
     "write read page_view as_array fill checksum", ()),
    ("repro.hw.memory", None, "ranges_to_pfns pfns_to_ranges", ()),
    # hw.interrupts: IPI delivery
    ("repro.hw.interrupts", "InterruptController", "send_ipi",
     (("ipis", None, None),)),
    ("repro.hw.interrupts", "InterruptController", "send_ipi_burst",
     (("ipis", "rounds", int),)),
    ("repro.hw.interrupts", "InterruptController", "post_ipi", ()),
    # pisces: the IPI channel's destination handler (sends: see below)
    ("repro.pisces.channel", "PiscesChannel", "_chunk_handler", ()),
    # xemem: the user API, the module's entry points, shared views
    ("repro.xemem.api", "XpmemApi",
     "xpmem_make xpmem_remove segment xpmem_get xpmem_release xpmem_attach "
     "xpmem_detach xpmem_search xpmem_list xpmem_subscribe xpmem_signal "
     "xpmem_wait", ()),
    ("repro.xemem.module", "XememModule",
     "make remove lookup list_names get release attach detach "
     "subscribe_signals signal wait_signal", ()),
    ("repro.xemem.module", "XememModule", "_request",
     (("requests", None, None),)),
    ("repro.xemem.module", "XememModule", "_handle_safely",
     (("handlers", None, None),)),
    ("repro.xemem.shmem", "AttachedRegion", "write read as_array", ()),
    ("repro.xemem.shmem", "ExportedSegment", "view", ()),
    # xemem.overload: admission, budgets, breakers
    ("repro.xemem.overload", "AdmissionController", "try_admit",
     (("admits", None, None),)),
    ("repro.xemem.overload", "AdmissionController",
     "admit release count_shed_direct count_served_direct fail_all "
     "retry_hint_ns", ()),
    ("repro.xemem.overload", "RetryBudget", "try_spend", ()),
    ("repro.xemem.overload", "CircuitBreaker",
     "allow record_success record_failure retry_after_ns", ()),
    ("repro.xemem.overload", "ModuleOverload",
     "breaker_for jitter_ns refresh_level", ()),
    # faults: per-message and per-IPI verdicts, scheduled events
    ("repro.faults.inject", "FaultInjector", "message_verdict ipi_lost",
     (("verdicts", None, None),)),
    ("repro.faults.inject", "FaultInjector", "_fire", ()),
    # obs: the (default-off) instrumentation surface
    ("repro.obs.context", None, "get", ()),
    ("repro.obs.context", "ObsContext", "span counter gauge histogram", ()),
    ("repro.obs.metrics", "_NullMetric", "inc set observe", ()),
    ("repro.obs.metrics", "Counter", "inc", ()),
    ("repro.obs.metrics", "Gauge", "set", ()),
    ("repro.obs.metrics", "Histogram", "observe quantile", ()),
    # workloads: the composed in situ workload, STREAM, compute, soak
    ("repro.workloads.insitu", "InSituWorkload", "run start collect", ()),
    ("repro.workloads.insitu", None, "poll_u64_at_least write_u64 read_u64", ()),
    ("repro.workloads.compute", None, "noise_aware_compute", ()),
    ("repro.workloads.stream", "StreamBenchmark", "run", ()),
    ("repro.workloads.soak", None, "run_soak run_soak_pair", ()),
    # cluster: MPI collectives, the RDMA baseline, Cluster.run
    ("repro.cluster.mpi", "MpiWorld", "allreduce barrier exchange",
     (("collectives", None, None),)),
    ("repro.cluster.mpi", "MpiWorld", "collective_cost_ns", ()),
    ("repro.cluster.rdma", "RdmaBandwidthTest", "run", ()),
    ("repro.cluster.node", "Cluster", "run", ()),
)

#: Channel sends are charged to the channel's layer: the Pisces IPI
#: channel to ``pisces``, the Palacios VM channel to ``virt``.
CHANNEL_SENDS: Tuple[Tuple[str, str, str, Tuple[CountSpec, ...]], ...] = (
    ("repro.pisces.channel", "PiscesChannel", "pisces",
     (("msgs", None, None), ("pfns", "msg", lambda msg: msg.npfns))),
    ("repro.virt.channel", "PalaciosChannel", "virt", ()),
)


def all_counts(spans: SpanStack) -> Dict[str, float]:
    """Every count a traced run reports, zeros included."""
    keys = {"sim.events", "sim.processes"}
    for module, _cls, _names, counts in ENTRY_POINTS:
        keys.update(f"{module_layer(module)}.{metric}" for metric, _p, _m in counts)
    for _module, _cls, layer, counts in CHANNEL_SENDS:
        keys.update(f"{layer}.{metric}" for metric, _p, _m in counts)
    counts = {key: float(spans.counts[key]) for key in sorted(keys)}
    for layer in CALL_COUNTED_LAYERS:
        counts[f"{layer}.calls"] = float(spans.closed[layer])
    return counts


#: The rig builders whose time is set-up, not the cells' work.
BUILDERS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.bench.configs", None, "build_cokernel_system"),
    ("repro.bench.configs", None, "build_insitu_rig"),
    ("repro.cluster.node", "Cluster", "__init__"),
)


# ----------------------------------------------------------------- patching


_INHERITED = object()


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def add(self, owner, name: str, value) -> None:
        """Give ``owner`` its own ``name`` where it only inherited one."""
        self._undo.append((owner, name, _INHERITED))
        setattr(owner, name, value)

    def set_function(self, module, name: str, wrap: Callable) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    mod.__dict__.get(name) is original:
                self.set(mod, name, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, value)


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


class Probe:
    """What one instrumented run measured.

    ``setup_s`` is the time spent in rig builders;
    ``spans`` is the :class:`SpanStack` when tracing, else None.
    ``pause``/``resume`` are called around each builder call (the
    cProfile cross-check passes the profiler's disable/enable).
    """

    def __init__(self, spans: Optional[SpanStack],
                 pause: Optional[Callable] = None,
                 resume: Optional[Callable] = None):
        self.spans = spans
        self.clock = spans.clock if spans is not None else time.perf_counter
        self.setup_s = 0.0
        self.pause = pause
        self.resume = resume

    def builder(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            if self.pause is not None:
                self.pause()
            if spans is not None:
                spans.muted += 1
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - t0
                self.setup_s += elapsed
                if spans is not None:
                    spans.muted -= 1
                    spans.exclude(elapsed)
                if self.resume is not None:
                    self.resume()
        return wrapper


def _install_sim(patches: _Patches, spans: SpanStack) -> None:
    from repro.sim.engine import Engine

    layer_cache: Dict[str, Optional[str]] = {}

    def root_layer(gen) -> Optional[str]:
        code = getattr(gen, "gi_code", None)
        if code is None:
            return None
        path = code.co_filename
        if path not in layer_cache:
            layer_cache[path] = layer_of_file(path)
        return layer_cache[path]

    spawn = Engine.spawn

    @functools.wraps(spawn)
    def traced_spawn(self, gen, name: str = ""):
        spans.count("sim.processes")
        if not isinstance(gen, TimedGen):
            layer = root_layer(gen)
            if layer is not None and layer != "sim":
                gen = TimedGen(gen, layer, spans)
        return spawn(self, gen, name)

    patches.set(Engine, "spawn", traced_spawn)
    for name in ("run", "run_until_complete"):
        original = Engine.__dict__[name]

        def driving(original=original):
            @functools.wraps(original)
            def wrapper(self, *args, **kwargs):
                spans.enter("sim")
                try:
                    return original(self, *args, **kwargs)
                finally:
                    spans.exit()
                    spans.note_events(self)
            return wrapper

        patches.set(Engine, name, driving())


@contextlib.contextmanager
def instrument(trace: bool, pause: Optional[Callable] = None,
               resume: Optional[Callable] = None) -> Iterator[Probe]:
    """Install the builder timers (and, with ``trace``, every layer's
    spans) for the duration of the block; yields the :class:`Probe`."""
    spans = SpanStack(time.perf_counter, *calibrate()) if trace else None
    probe = Probe(spans, pause=pause, resume=resume)
    patches = _Patches()
    try:
        for module, cls, name in BUILDERS:
            owner = _owner(module, cls)
            if cls is None:
                patches.set_function(owner, name, probe.builder)
            else:
                patches.set(owner, name, probe.builder(owner.__dict__[name]))
        if spans is not None:
            _install_sim(patches, spans)
            for module, cls, names, counts in ENTRY_POINTS:
                owner, layer = _owner(module, cls), module_layer(module)
                for name in names.split():
                    if cls is None:
                        patches.set_function(
                            owner, name, lambda f: traced(f, layer, spans, counts))
                    else:
                        patches.set(owner, name,
                                    traced(owner.__dict__[name], layer, spans, counts))
            from repro.enclave.enclave import Channel

            for module, cls, layer, counts in CHANNEL_SENDS:
                owner = _owner(module, cls)
                patches.add(owner, "send", traced(Channel.send, layer, spans, counts))
        yield probe
    finally:
        patches.undo()
