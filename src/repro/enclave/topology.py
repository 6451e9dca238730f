"""The enclave system: registry, hierarchy, and discovery driver.

:class:`EnclaveSystem` collects a node's enclaves and channels into the
*enclave topology* of paper §3.2 — a hierarchy rooted (logically) at the
enclave hosting the name server. The actual discovery message protocol
(broadcast for the name-server path, enclave-ID allocation, routing-map
construction) lives in :mod:`repro.xemem.routing`; the system object just
drives it and validates the result.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.enclave.enclave import Channel, Enclave


class DiscoveryError(RuntimeError):
    """Discovery could not complete (disconnected topology, no name server)."""


class EnclaveSystem:
    """All enclaves and channels on one node."""

    def __init__(self, node):
        self.node = node
        self.engine = node.engine
        self.enclaves: List[Enclave] = []
        self.channels: List[Channel] = []
        self.name_server_enclave: Optional[Enclave] = None

    def add_enclave(self, enclave: Enclave) -> None:
        """Register an enclave (and its channels) with the system."""
        if enclave in self.enclaves:
            return
        self.enclaves.append(enclave)
        for channel in enclave.channels:
            if channel not in self.channels:
                self.channels.append(channel)
            channel.system = self

    def add_all(self, enclaves) -> None:
        """Register several enclaves."""
        for enclave in enclaves:
            self.add_enclave(enclave)

    def designate_name_server(self, enclave: Enclave) -> None:
        """The name server "can be deployed in any enclave" (§3.2)."""
        if enclave not in self.enclaves:
            raise DiscoveryError(f"{enclave!r} not part of this system")
        self.name_server_enclave = enclave

    @property
    def cokernel_count(self) -> int:
        """Number of Kitten co-kernel enclaves in the system."""
        return sum(1 for e in self.enclaves if e.kernel.kernel_type == "kitten")

    def enclave_by_id(self, enclave_id: int) -> Enclave:
        """Look an enclave up by its discovery-assigned ID."""
        for enclave in self.enclaves:
            if enclave.enclave_id == enclave_id:
                return enclave
        raise KeyError(f"no enclave with id {enclave_id}")

    def neighbors(self, enclave: Enclave) -> List[Enclave]:
        """Enclaves one channel hop away."""
        return [ch.other(enclave) for ch in enclave.channels]

    def validate_connected(self) -> None:
        """Every enclave must reach the name server through channels."""
        if self.name_server_enclave is None:
            raise DiscoveryError("no name server designated")
        # Reachability keyed by enclave name (stable across host
        # processes), not id(); enclave names are unique per system.
        seen = {self.name_server_enclave.name}
        frontier = [self.name_server_enclave]
        while frontier:
            cur = frontier.pop()
            for nxt in self.neighbors(cur):
                if nxt.name not in seen:
                    seen.add(nxt.name)
                    frontier.append(nxt)
        unreachable = [e.name for e in self.enclaves if e.name not in seen]
        if unreachable:
            raise DiscoveryError(
                f"enclaves cannot reach the name server: {unreachable}"
            )

    # -- dynamic partitioning (paper §3.2: topologies "are likely to be
    # dynamic and will change in response to the node's workload") --------

    def add_and_discover(self, enclave: Enclave) -> int:
        """Hot-add one enclave after initial discovery.

        The enclave must already have a channel to some discovered
        enclave and an XEMEM module installed; it runs the §3.2
        discovery exchange alone and returns its new enclave ID.
        """
        self.add_enclave(enclave)
        if enclave.module is None:
            raise DiscoveryError(f"enclave {enclave.name!r} has no XEMEM module")
        if enclave.enclave_id is not None:
            raise DiscoveryError(f"enclave {enclave.name!r} already discovered")
        if not any(ch.other(enclave).enclave_id is not None for ch in enclave.channels):
            raise DiscoveryError(
                f"enclave {enclave.name!r} has no channel to a discovered enclave"
            )
        return self.engine.run_process(
            enclave.module.discover(), name=f"hot-discover:{enclave.name}"
        )

    def shutdown_enclave(self, enclave: Enclave, force: bool = False) -> None:
        """Remove one leaf enclave from the system.

        Runs the XEMEM departure protocol (name server retires the
        enclave's segids), then closes its channels and purges every
        routing entry that pointed at them. Enclaves that other enclaves
        route *through* cannot depart; neither can the name server.
        """
        if enclave not in self.enclaves:
            raise DiscoveryError(f"{enclave!r} not part of this system")
        if enclave is self.name_server_enclave:
            raise DiscoveryError("the name-server enclave cannot depart")
        # leaf check: nobody's route may pass through a channel of this
        # enclave unless the route's destination IS this enclave
        for other in self.enclaves:
            if other is enclave or other.module is None:
                continue
            for dst, channel in other.module.routing.routes.items():
                if channel in enclave.channels and dst != enclave.enclave_id:
                    raise DiscoveryError(
                        f"enclave {enclave.name!r} is on the route from "
                        f"{other.name!r} to enclave {dst}; not a leaf"
                    )
        self.engine.run_process(
            enclave.module.shutdown(force=force), name=f"depart:{enclave.name}"
        )
        self.unlink_enclave(enclave)

    def unlink_enclave(self, enclave: Enclave) -> None:
        """Sever one enclave from the topology: close its channels, purge
        every surviving routing entry that pointed at them or at its ID,
        and drop it from the registry. Used by orderly departure (after
        the protocol ran) and by the crash path (no protocol at all)."""
        for channel in list(enclave.channels):
            channel.close()
            peer = channel.other(enclave)
            if channel in peer.channels:
                peer.channels.remove(channel)
            if peer.module is not None:
                routing = peer.module.routing
                routes = routing.routes
                for dst in [d for d, ch in routes.items() if ch is channel]:
                    del routes[dst]
                if routing.ns_channel is channel:
                    routing.ns_channel = None
            if channel in self.channels:
                self.channels.remove(channel)
        # purge stale routes toward the departed ID everywhere (upstream
        # enclaves route to it via channels that themselves survive)
        for other in self.enclaves:
            if other.module is not None:
                other.module.routing.routes.pop(enclave.enclave_id, None)
        if enclave in self.enclaves:
            self.enclaves.remove(enclave)

    def run_discovery(self) -> Dict[str, int]:
        """Run the §3.2 discovery protocol; returns name -> enclave id.

        Delegates to the XEMEM modules (every enclave must have one).
        """
        from repro.xemem.routing import run_discovery

        self.validate_connected()
        for enclave in self.enclaves:
            if enclave.module is None:
                raise DiscoveryError(f"enclave {enclave.name!r} has no XEMEM module")
        return run_discovery(self)

    def describe(self) -> List[dict]:
        """Structured snapshot of the topology (one dict per enclave):
        id, name, kernel type, virtualization, name-server hop, routes,
        core ids, and partition size. Examples and operators use this
        instead of poking module internals."""
        out = []
        for enclave in self.enclaves:
            module = enclave.module
            routing = module.routing if module else None
            ns_via = None
            routes = {}
            if routing is not None:
                ns_via = (
                    "local"
                    if routing.ns_channel is None
                    else routing.ns_channel.other(enclave).name
                )
                routes = {
                    eid: ch.other(enclave).name
                    for eid, ch in sorted(routing.routes.items())
                }
            kernel = enclave.kernel
            out.append(
                {
                    "id": enclave.enclave_id,
                    "name": enclave.name,
                    "kernel": kernel.kernel_type,
                    "virtualized": bool(getattr(kernel, "virtualized", False)),
                    "name_server_via": ns_via,
                    "routes": routes,
                    "cores": [c.core_id for c in kernel.cores],
                    "frames": kernel.allocator.nframes,
                    "is_name_server": enclave is self.name_server_enclave,
                }
            )
        return out

    def __repr__(self) -> str:
        return (
            f"EnclaveSystem({[e.name for e in self.enclaves]}, "
            f"ns={getattr(self.name_server_enclave, 'name', None)!r})"
        )
