"""Inter-processor interrupts (IPIs) and per-core handler dispatch.

Pisces cross-enclave channels signal message availability with IPIs
(paper §4.5). An enclave registers a handler for a vector on a specific
core; sending the IPI delivers after :attr:`CostModel.ipi_latency_ns` and
then runs the handler *on the target core*, occupying it — which is what
makes the paper's core-0 bottleneck (§5.3) observable in this model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import obs
from repro.sim.engine import Engine


@dataclass(frozen=True)
class IpiVector:
    """An interrupt vector number bound to a target core."""

    vector: int
    core_id: int

    def __post_init__(self):
        if not 0 <= self.vector < 256:
            raise ValueError(f"vector {self.vector} out of range [0, 256)")


class InterruptController:
    """Routes IPIs to per-(core, vector) handlers.

    Handlers are generator *factories*: ``handler(payload)`` must return a
    generator that runs to completion while the target core's resource is
    held. Handler occupancy is recorded in the core's steal log with tag
    ``"irq:<vector>"`` so noise measurements see interrupt processing.
    """

    def __init__(self, engine: Engine, node: "object"):
        self.engine = engine
        self.node = node
        self._handlers: Dict[Tuple[int, int], Callable] = {}
        self._next_vector = 32  # vectors below 32 are reserved (exceptions)
        self.delivered = 0

    def allocate_vector(self, core_id: int) -> IpiVector:
        """Reserve a fresh vector targeting ``core_id``."""
        vec = IpiVector(self._next_vector, core_id)
        self._next_vector += 1
        if self._next_vector >= 256:
            raise RuntimeError("out of interrupt vectors")
        return vec

    def register(self, vec: IpiVector, handler: Callable) -> None:
        """Bind a handler generator-factory to a (core, vector)."""
        key = (vec.core_id, vec.vector)
        if key in self._handlers:
            raise ValueError(f"vector {vec.vector} on core {vec.core_id} already bound")
        self._handlers[key] = handler

    def unregister(self, vec: IpiVector) -> None:
        """Unbind a vector (idempotent)."""
        self._handlers.pop((vec.core_id, vec.vector), None)

    def send_ipi(self, vec: IpiVector, payload: Optional[object] = None):
        """Generator: deliver an IPI and wait until its handler completes.

        The sender pays the delivery latency; the handler then contends for
        the target core and runs there.
        """
        handler = self._handlers.get((vec.core_id, vec.vector))
        if handler is None:
            raise RuntimeError(
                f"IPI to unbound vector {vec.vector} on core {vec.core_id}"
            )
        costs = self.node.costs
        faults = self.engine.faults
        if faults is not None and faults.affects_ipi:
            # A lost IPI costs the sender the delivery latency plus a
            # retransmit timeout before it tries again (bounded, so a
            # pathological plan cannot wedge the sender forever).
            lost = 0
            while lost < faults.MAX_IPI_RETRANSMITS and faults.ipi_lost():
                lost += 1
                obs.get().counter("faults.ipi.lost").inc()
                yield self.engine.sleep(
                    costs.ipi_latency_ns + faults.plan.ipi_retransmit_ns
                )
        yield self.engine.sleep(costs.ipi_latency_ns)
        core = self.node.core(vec.core_id)
        yield core.resource.acquire()
        start = self.engine.now
        try:
            result = yield from handler(payload)
        finally:
            core.resource.release()
            core.log_steal(start, self.engine.now - start, f"irq:{vec.vector}")
        self.delivered += 1
        o = obs.get()
        if o.metrics.enabled:
            o.counter("hw.ipi.delivered").inc()
            o.counter(f"hw.ipi.core{vec.core_id}.delivered").inc()
            o.histogram("hw.ipi.handler_ns").observe(self.engine.now - start)
        return result

    def vectors_on_core(self, core_id: int) -> int:
        """How many vectors currently have handlers bound on ``core_id``."""
        return sum(1 for (cid, _v) in self._handlers if cid == core_id)

    def send_ipi_burst(self, vec: IpiVector, rounds: int, occupancy_ns: int):
        """Generator: ``rounds`` identical back-to-back IPIs as one reservation.

        Equivalent to calling :meth:`send_ipi` ``rounds`` times with a
        handler that occupies the core for ``occupancy_ns``, *provided the
        target core is uncontended for the duration*: the caller must check
        that before choosing this path (see
        :meth:`repro.pisces.channel.PiscesChannel._transfer`). The core is
        held once for the whole burst, then the per-round steal-log
        entries and statistics are reconstructed arithmetically so traces,
        counters, and ``ResourceStats`` match the per-round path.
        """
        if rounds <= 0:
            raise ValueError(f"bad burst of {rounds} rounds")
        if (vec.core_id, vec.vector) not in self._handlers:
            raise RuntimeError(
                f"IPI to unbound vector {vec.vector} on core {vec.core_id}"
            )
        costs = self.node.costs
        lat = costs.ipi_latency_ns
        yield self.engine.sleep(lat)
        core = self.node.core(vec.core_id)
        yield core.resource.acquire()
        start = self.engine.now
        try:
            yield self.engine.sleep(rounds * occupancy_ns + (rounds - 1) * lat)
        finally:
            core.resource.release()
            stats = core.resource.stats
            # Per-round parity: rounds short acquisitions of occupancy_ns
            # each, not one long hold spanning the inter-round gaps. Skip
            # the busy correction if a waiter slipped in mid-burst (busy
            # time then accrues at *their* release).
            stats.acquisitions += rounds - 1
            if stats._busy_since is None:
                stats.busy_ns -= (rounds - 1) * lat
            for i in range(rounds):
                core.log_steal(
                    start + i * (occupancy_ns + lat), occupancy_ns, f"irq:{vec.vector}"
                )
        self.delivered += rounds
        o = obs.get()
        if o.metrics.enabled:
            o.counter("hw.ipi.delivered").inc(rounds)
            o.counter(f"hw.ipi.core{vec.core_id}.delivered").inc(rounds)
            hist = o.histogram("hw.ipi.handler_ns")
            for _ in range(rounds):
                hist.observe(occupancy_ns)

    def post_ipi(self, vec: IpiVector, payload: Optional[object] = None):
        """Fire-and-forget IPI: spawn delivery as its own process."""
        return self.engine.spawn(
            self.send_ipi(vec, payload), name=f"ipi:{vec.vector}@core{vec.core_id}"
        )
