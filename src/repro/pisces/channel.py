"""The IPI-based Pisces cross-enclave channel (paper §4.5).

A co-kernel boot carves a small shared-memory message region. To send,
the source enclave IPIs the destination's handling CPU; the destination
flags readiness; the source copies the message in chunks through the
region; the destination copies it out. PFN lists larger than the region
stream through it chunk by chunk, one IPI round per chunk.

Two behaviours the evaluation hinges on:

* **Core-0 restriction** — every chunk headed *into* the Linux
  management enclave is handled on node core 0 regardless of which
  process the message is for, so concurrent enclaves queue there
  (§5.3). The handler occupancy is real: it holds core 0's resource.
* **Multi-enclave handling penalty** — once two or more co-kernels share
  the core-0 handler, per-page marshalling picks up
  ``multi_enclave_channel_penalty_per_page_ns`` (cache-cold dispatch +
  contended Linux map structures). This models the measured 1→2 enclave
  plateau in Fig. 6; ablation B zeroes it (the paper's proposed
  distributed IPI routing).
"""

from __future__ import annotations

from repro import obs
from repro.enclave.enclave import Channel, Enclave, KernelMessage
from repro.hw.interrupts import IpiVector
from repro.sim.fidelity import FIDELITY


class PiscesChannel(Channel):
    """Linux management enclave <-> one Kitten co-kernel."""

    def __init__(self, linux_enclave: Enclave, cokernel_enclave: Enclave,
                 name: str = "", ipi_target_policy: str = "core0"):
        super().__init__(linux_enclave, cokernel_enclave, name=name)
        if ipi_target_policy not in ("core0", "distributed"):
            raise ValueError(f"unknown IPI target policy {ipi_target_policy!r}")
        self.linux_enclave = linux_enclave
        self.cokernel_enclave = cokernel_enclave
        self.ipi_target_policy = ipi_target_policy
        #: Fidelity twin, bound once: fast mode may collapse uncontended
        #: chunk rounds into one IPI burst, detailed mode sends each round.
        self._burst_ipis = FIDELITY.fast
        node = linux_enclave.kernel.node
        self.node = node
        self.costs = node.costs
        # Vector into Linux: core 0 of the node (the §5.3 restriction),
        # or the co-kernel's paired service core under ablation B.
        # A stable (non-salted) hash keeps core assignment deterministic.
        spread = sum(cokernel_enclave.name.encode())
        linux_core = (
            0
            if ipi_target_policy == "core0"
            else linux_enclave.kernel.cores[
                spread % len(linux_enclave.kernel.cores)
            ].core_id
        )
        self._to_linux_vec = node.intc.allocate_vector(linux_core)
        self._to_cokernel_vec = node.intc.allocate_vector(
            cokernel_enclave.kernel.service_core.core_id
        )
        node.intc.register(self._to_linux_vec, self._chunk_handler)
        node.intc.register(self._to_cokernel_vec, self._chunk_handler)
        #: Plain-int transfer accounting (always on, deterministic) —
        #: the invariant auditor checks started == completed at shutdown.
        self.transfers_started = 0
        self.transfers_completed = 0

    @property
    def linux_handling_core_id(self) -> int:
        """The node core that handles this channel's Linux-side IPIs."""
        return self._to_linux_vec.core_id

    def _chunk_handler(self, payload):
        """Destination-side per-chunk work: flag + copy-out occupancy."""
        occupancy = payload
        yield self.a.engine.sleep(occupancy)

    def _multi_cokernel(self) -> bool:
        if self.system is None:
            return False
        return self.system.cokernel_count >= 2

    def _transfer(self, src: Enclave, dst: Enclave, msg: KernelMessage):
        engine = src.engine
        costs = self.costs
        vec: IpiVector = (
            self._to_linux_vec if dst is self.linux_enclave else self._to_cokernel_vec
        )
        npfns = msg.npfns
        # The penalty models contended *Linux-side* dispatch on core 0; it
        # applies only to PFN lists marshalled into the management enclave,
        # not to traffic flowing out to a co-kernel.
        penalty = (
            costs.multi_enclave_channel_penalty_per_page_ns
            if dst is self.linux_enclave
            and self._multi_cokernel()
            and self.ipi_target_policy == "core0"
            else 0
        )
        chunks = costs.pfn_list_chunks(npfns) if npfns else 1
        # Marshalling time is closed-form (identical under both fidelity
        # modes); exporting it as a span attribute lets the analysis
        # layer split the transfer span into channel-copy vs. IPI time.
        marshal_ns = npfns * (costs.channel_per_pfn_ns + penalty)
        self.transfers_started += 1
        o = obs.get()
        # Journey tag: requests carry req_id, responses reply_to — either
        # way the transfer belongs to that request's journey.
        rid = msg.payload.get("req_id") or msg.payload.get("reply_to")
        with o.span("pisces.transfer", engine, track=self.name,
                    kind=msg.kind, npfns=npfns, chunks=chunks,
                    marshal_ns=marshal_ns,
                    **({"req_id": rid} if rid else {})):
            # Per-PFN marshalling through the shared region (source side).
            yield engine.sleep(marshal_ns)
            # One IPI round per chunk; the handler occupies the target core.
            intc = self.node.intc
            core = self.node.core(vec.core_id)
            faults = engine.faults
            if (
                self._burst_ipis
                and chunks > 1
                and core.resource.in_use == 0
                and core.resource.queue_depth == 0
                and intc.vectors_on_core(vec.core_id) == 1
                and (faults is None or not faults.affects_ipi)
            ):
                # Uncontended target core with no other channel bound to
                # it: the per-chunk rounds are identical back-to-back, so
                # reserve the core once, closed form (§5.3 queueing only
                # arises under contention, which the guards exclude).
                yield from intc.send_ipi_burst(
                    vec, chunks, costs.ipi_handler_core0_ns
                )
                o.counter("fastpath.ipi.batched_rounds").inc(chunks)
            else:
                for _ in range(chunks):
                    yield from intc.send_ipi(vec, costs.ipi_handler_core0_ns)
        self.transfers_completed += 1
        o.counter("pisces.channel.msgs").inc()
        o.counter("pisces.channel.pfns").inc(npfns)
        o.counter("pisces.channel.bytes").inc(npfns * 8)
        o.counter("pisces.channel.ipi_rounds").inc(chunks)
        return msg
