"""Node partitioning: booting Linux + Kitten co-kernel enclaves.

:class:`PiscesManager` owns a node's cores and NUMA zones and hands out
disjoint partitions: first the Linux management enclave, then any number
of Kitten co-kernels (each with its own cores and memory window, §4) and
Palacios VMs (whose RAM comes from their *host* enclave's partition).

Boot-time cost is not modeled — the paper's experiments measure steady
state — but double-assignment of a core or frame is a hard error.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.enclave.enclave import Enclave
from repro.hw.costs import PAGE_4K
from repro.hw.memory import FrameAllocator
from repro.hw.topology import NodeHardware
from repro.kernels.kitten import KittenKernel
from repro.kernels.linux import LinuxKernel
from repro.pisces.channel import PiscesChannel


class PartitionError(RuntimeError):
    """A core or memory block was assigned twice (or never existed)."""


class PiscesManager:
    """Carves one node into enclaves."""

    def __init__(self, node: NodeHardware):
        self.node = node
        self.engine = node.engine
        self.linux_enclave: Optional[Enclave] = None
        self.cokernel_enclaves: List[Enclave] = []
        self.channels: List[PiscesChannel] = []
        #: kernel -> (zone_id, FrameRange) of its carved partition, so
        #: torn-down enclaves return their memory to the node.
        self._partitions = {}

    # -- partition helpers ----------------------------------------------------------

    def _claim_cores(self, core_ids: Sequence[int]):
        cores = []
        for cid in core_ids:
            core = self.node.core(cid)
            if core.owner is not None:
                raise PartitionError(f"core {cid} already owned by {core.owner!r}")
            cores.append(core)
        return cores

    def _carve_memory(self, zone_id: int, nbytes: int):
        if nbytes <= 0 or nbytes % PAGE_4K:
            raise PartitionError(f"bad partition size {nbytes}")
        rng = self.node.memory.zone(zone_id).allocator.alloc(nbytes // PAGE_4K)
        return FrameAllocator(rng.start_pfn, rng.nframes), (zone_id, rng)

    # -- enclave construction ----------------------------------------------------------

    def boot_linux(self, core_ids: Sequence[int], mem_bytes: int,
                   zone_id: int = 0, name: str = "linux") -> Enclave:
        """Boot the native Linux management enclave (exactly one)."""
        if self.linux_enclave is not None:
            raise PartitionError("Linux management enclave already booted")
        allocator, partition = self._carve_memory(zone_id, mem_bytes)
        kernel = LinuxKernel(
            self.engine,
            self.node,
            self._claim_cores(core_ids),
            allocator,
            name=name,
        )
        self._partitions[kernel] = partition
        self.linux_enclave = Enclave(kernel, name=name)
        return self.linux_enclave

    def boot_cokernel(self, core_ids: Sequence[int], mem_bytes: int,
                      zone_id: int = 0, name: str = "",
                      ipi_target_policy: str = "core0",
                      heap_pages: Optional[int] = None) -> Enclave:
        """Boot a Kitten co-kernel enclave and link it to Linux."""
        if self.linux_enclave is None:
            raise PartitionError("boot the Linux management enclave first")
        name = name or f"kitten{len(self.cokernel_enclaves)}"
        kwargs = {} if heap_pages is None else {"heap_pages": heap_pages}
        allocator, partition = self._carve_memory(zone_id, mem_bytes)
        kernel = KittenKernel(
            self.engine,
            self.node,
            self._claim_cores(core_ids),
            allocator,
            name=name,
            **kwargs,
        )
        self._partitions[kernel] = partition
        enclave = Enclave(kernel, name=name)
        channel = PiscesChannel(
            self.linux_enclave, enclave, ipi_target_policy=ipi_target_policy
        )
        self.cokernel_enclaves.append(enclave)
        self.channels.append(channel)
        return enclave

    def boot_vm(self, host_enclave: Enclave, core_ids: Sequence[int],
                ram_bytes: int, name: str = "", memmap_backend: str = "rbtree",
                memmap_coalesce: bool = False) -> Enclave:
        """Boot a Palacios VM enclave on ``host_enclave``.

        The VM's RAM comes from the host enclave's memory partition; its
        vCPUs are fresh cores claimed from the node. Returns the guest
        enclave, linked to the host by a Palacios PCI channel.
        """
        from repro.virt.channel import PalaciosChannel
        from repro.virt.guest import GuestLinuxKernel
        from repro.virt.palacios import PalaciosVmm

        name = name or f"vm-on-{host_enclave.name}"
        vcpu_cores = self._claim_cores(core_ids)
        vmm = PalaciosVmm(
            host_enclave.kernel,
            vcpu_cores=vcpu_cores,
            ram_bytes=ram_bytes,
            name=name,
            memmap_backend=memmap_backend,
            memmap_coalesce=memmap_coalesce,
        )
        guest_kernel = GuestLinuxKernel(
            self.engine, self.node, vcpu_cores, vmm, name=f"{name}-guest"
        )
        guest_enclave = Enclave(guest_kernel, name=name)
        PalaciosChannel(host_enclave, guest_enclave, vmm)
        return guest_enclave

    def teardown_cokernel(self, enclave: Enclave) -> None:
        """Reclaim a departed co-kernel's cores and memory partition.

        The enclave must already have left the XEMEM name space (see
        :meth:`repro.enclave.topology.EnclaveSystem.shutdown_enclave`)
        and returned every frame it allocated.
        """
        if enclave not in self.cokernel_enclaves:
            raise PartitionError(f"{enclave!r} is not a co-kernel of this node")
        kernel = enclave.kernel
        if kernel.allocator.used_frames:
            raise PartitionError(
                f"enclave {enclave.name!r} still holds "
                f"{kernel.allocator.used_frames} frame(s); exit its processes first"
            )
        self._unwatch(enclave)
        for core in kernel.cores:
            core.owner = None
        zone_id, rng = self._partitions.pop(kernel)
        self.node.memory.zone(zone_id).allocator.free(rng)
        self.cokernel_enclaves.remove(enclave)

    def crash_enclave(self, enclave: Enclave, system=None,
                      notify_nameserver: bool = True) -> None:
        """Fail-stop one co-kernel enclave, as the fault injector does.

        Unlike orderly departure nothing is negotiated and no simulated
        time passes — the partition just dies. The crash path:

        1. fails every parked waiter in the enclave's XEMEM module and
           marks it crashed (late traffic is dropped, not served);
        2. severs the enclave from the topology (channels close, routes
           and stale name-server paths are purged on survivors);
        3. invalidates surviving enclaves' attachments into the dead
           partition — their PTEs are unmapped; frames are never freed by
           a foreign kernel;
        4. garbage-collects the dead enclave's segids at the name server
           (directly when ``notify_nameserver``; otherwise lease expiry
           does it once heartbeats stop);
        5. destroys the dead kernel's processes (reclaiming its frames),
           frees its cores, and returns its memory partition to the node;
        6. deregisters the dead kernel/module/channels from any armed
           invariant auditor — its state is gone, not inconsistent.
        """
        if enclave not in self.cokernel_enclaves:
            raise PartitionError(f"{enclave!r} is not a co-kernel of this node")
        kernel = enclave.kernel
        module = enclave.module
        crashed_id = enclave.enclave_id

        # Segids the dead enclave owned, snapshotted before any GC.
        dead_segids = set()
        ns_module = None
        if system is not None and system.name_server_enclave is not None:
            ns_module = system.name_server_enclave.module
        if ns_module is not None and crashed_id is not None:
            dead_segids = set(ns_module.nameserver.segids_of(crashed_id))

        from repro.obs import context as _obs_context

        recorder = _obs_context.get().flightrec
        if recorder is not None:
            # The crash is the canonical incident trigger: freeze "what
            # was in flight" into the black box before teardown erases it.
            recorder.trigger(
                "enclave.crash", self.engine.now,
                enclave=enclave.name,
                enclave_id=int(crashed_id) if crashed_id is not None else -1,
                segids_owned=len(dead_segids),
            )

        if module is not None:
            module.crash()
        if system is not None:
            system.unlink_enclave(enclave)

        # Survivors: tear down attachments into the dead partition.
        pfn_window = (
            kernel.allocator.start_pfn,
            kernel.allocator.start_pfn + kernel.allocator.nframes,
        )
        if system is not None:
            for other in system.enclaves:
                if other.module is not None:
                    other.module.invalidate_dead_segments(
                        dead_segids, pfn_window, crashed_enclave_id=crashed_id
                    )

        if notify_nameserver and ns_module is not None and crashed_id is not None:
            ns_module.gc_enclave(crashed_id)

        self._unwatch(enclave)

        # Reclaim the partition: destroying each process frees the frames
        # it owns; foreign frames were only ever unmapped above.
        for proc in list(kernel.processes.values()):
            kernel.destroy_process(proc)
        for core in kernel.cores:
            core.owner = None
        zone_id, rng = self._partitions.pop(kernel)
        self.node.memory.zone(zone_id).allocator.free(rng)
        self.cokernel_enclaves.remove(enclave)
        for channel in [ch for ch in self.channels
                        if enclave in (ch.a, ch.b)]:
            self.channels.remove(channel)

    def _unwatch(self, enclave: Enclave) -> None:
        """Deregister a dead enclave from any armed invariant auditor."""
        auditor = self.engine.auditor
        if auditor is None:
            return
        auditor.unwatch_kernel(enclave.kernel)
        if enclave.module is not None:
            auditor.unwatch_module(enclave.module)
        for channel in list(auditor.channels):
            if enclave in (channel.a, channel.b):
                auditor.unwatch_channel(channel)

    @property
    def all_enclaves(self) -> List[Enclave]:
        """Linux management enclave plus every live co-kernel."""
        out = []
        if self.linux_enclave is not None:
            out.append(self.linux_enclave)
        out.extend(self.cokernel_enclaves)
        return out
