"""Enclave and kernel-message channel abstractions.

A :class:`Channel` is a point-to-point kernel-level message link between
two enclaves (paper §4.5). Sends are one-way: the generator completes
when the message (including any PFN-list payload) has crossed the link
and been handed to the receiving enclave's registered receiver, which
processes it asynchronously. Request/response correlation is the XEMEM
protocol layer's job, not the channel's.

Channels that cross a VM boundary translate PFN lists in flight (host
PFNs become freshly mapped guest PFNs and vice versa) — see
:class:`repro.virt.channel.PalaciosChannel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro import obs


@dataclass
class KernelMessage:
    """One cross-enclave kernel message.

    ``payload`` carries command fields; ``pfns`` is the optional PFN-list
    component (only ``xpmem_attach`` responses have one, §4.5). PFNs are
    always expressed in the *receiving* enclave's physical namespace by
    the time the message is delivered.
    """

    kind: str
    payload: dict = field(default_factory=dict)
    pfns: Optional[np.ndarray] = None

    @property
    def npfns(self) -> int:
        """Length of the PFN-list payload (0 when absent)."""
        return 0 if self.pfns is None else len(self.pfns)


class Enclave:
    """One isolated OS/R partition."""

    def __init__(self, kernel, name: str = ""):
        self.kernel = kernel
        kernel.enclave = self
        self.name = name or kernel.name
        #: Assigned by the name server during discovery (§3.2); the name
        #: server's own enclave is 0.
        self.enclave_id: Optional[int] = None
        self.channels: List[Channel] = []
        #: The XEMEM module instance (set by repro.xemem.module).
        self.module = None
        #: Message receiver: callable(msg, channel) -> None (non-blocking).
        self._receiver: Optional[Callable] = None

    @property
    def engine(self):
        """The simulation engine this enclave runs on."""
        return self.kernel.engine

    def add_channel(self, channel: "Channel") -> None:
        """Register a channel endpoint on this enclave (idempotent)."""
        if channel not in self.channels:
            self.channels.append(channel)

    def set_receiver(self, receiver: Callable) -> None:
        """Install the kernel-message receiver (the XEMEM module's)."""
        self._receiver = receiver

    def receive(self, msg: KernelMessage, channel: "Channel") -> None:
        """Hand a delivered message to the registered receiver."""
        if self._receiver is None:
            raise RuntimeError(f"enclave {self.name!r} has no message receiver")
        self._receiver(msg, channel)

    def __repr__(self) -> str:
        return f"Enclave({self.name!r}, id={self.enclave_id})"


class ChannelClosedError(RuntimeError):
    """Send on a channel whose endpoint enclave has departed."""


class Channel:
    """Abstract point-to-point kernel message link."""

    def __init__(self, a: Enclave, b: Enclave, name: str = ""):
        if a is b:
            raise ValueError("channel endpoints must differ")
        self.a = a
        self.b = b
        self.name = name or f"{a.name}<->{b.name}"
        #: Set when the channel is registered with an EnclaveSystem (the
        #: Pisces channel's multi-co-kernel dispatch penalty reads it).
        self.system = None
        self.closed = False
        self.messages_sent = 0
        self.pfns_carried = 0
        a.add_channel(self)
        b.add_channel(self)

    def close(self) -> None:
        """Mark the channel closed; future sends raise."""
        self.closed = True

    def other(self, enclave: Enclave) -> Enclave:
        """The opposite endpoint from ``enclave``."""
        if enclave is self.a:
            return self.b
        if enclave is self.b:
            return self.a
        raise ValueError(f"{enclave!r} is not an endpoint of {self.name!r}")

    def send(self, src: Enclave, msg: KernelMessage):
        """Generator: move ``msg`` from ``src`` to the other endpoint.

        Subclasses implement :meth:`_transfer`, which pays the link's
        costs and may rewrite the PFN list into the receiver's namespace.

        When a fault plan is armed on the engine (see :mod:`repro.faults`)
        each delivery may be dropped, duplicated, delayed, or corrupted
        (corruption is modeled as a receiver-side checksum discard: the
        full transfer cost is paid, then the message is thrown away).
        The wire cost is always paid — faults act on *delivery*.
        """
        if self.closed:
            raise ChannelClosedError(f"channel {self.name!r} is closed")
        dst = self.other(src)
        faults = src.engine.faults
        verdict = "deliver"
        delay_ns = 0
        if faults is not None and faults.affects_messages:
            verdict, delay_ns = faults.message_verdict(self, msg)
        msg = yield from self._transfer(src, dst, msg)
        self.messages_sent += 1
        self.pfns_carried += msg.npfns
        o = obs.get()
        if o.metrics.enabled:
            o.counter("channel.msgs").inc()
            if msg.npfns:
                o.counter("channel.pfns").inc(msg.npfns)
        if verdict == "drop":
            o.counter("faults.msgs.dropped").inc()
            return
        if verdict == "corrupt":
            o.counter("faults.msgs.corrupted").inc()
            return
        if verdict == "delay":
            o.counter("faults.msgs.delayed").inc()
            yield src.engine.sleep(delay_ns)
        dst.receive(msg, self)
        if verdict == "dup":
            # The duplicate gets its own payload dict so the two handler
            # generators cannot alias each other's routing rewrites.
            o.counter("faults.msgs.duplicated").inc()
            dst.receive(
                KernelMessage(kind=msg.kind, payload=dict(msg.payload),
                              pfns=msg.pfns),
                self,
            )

    def _transfer(self, src: Enclave, dst: Enclave, msg: KernelMessage):
        raise NotImplementedError
        yield  # pragma: no cover
