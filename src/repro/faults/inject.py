"""The fault injector: arms a :class:`FaultPlan` on a rig's engine.

``arm(rig, plan)`` installs a :class:`FaultInjector` as ``engine.faults``.
Every hook site in the simulator (channel delivery, IPI send, the XEMEM
request path) does one attribute load + ``None`` check when no plan is
armed — the zero-cost contract — and consults the injector otherwise.

All randomness flows through the injector's private
``random.Random(plan.seed)``, consumed in virtual-clock event order, so
a (plan, seed) pair is a complete, reproducible description of the run.
An *empty* plan (no probabilities, no events, no heartbeats) never
touches the RNG, schedules nothing, and keeps ``active`` False, which
the protocol layer reads as "no deadlines" — arming it is byte-identical
to not arming anything.
"""

from __future__ import annotations

import random
from typing import Optional

from repro import obs
from repro.faults.plan import CRASH, NS_RESTART, FaultEvent, FaultPlan


class FaultInjector:
    """Runtime companion of one armed :class:`FaultPlan`."""

    #: A lost IPI is retransmitted at most this many times per send, so
    #: even ``ipiloss=1.0`` cannot wedge a sender forever.
    MAX_IPI_RETRANSMITS = 8

    def __init__(self, plan: FaultPlan, engine, system=None, pisces=None):
        self.plan = plan
        self.engine = engine
        self.system = system
        self.pisces = pisces
        self.rng = random.Random(plan.seed)
        #: True when the plan can actually do something; the protocol
        #: layer only arms request deadlines while this is set.
        self.active = not plan.empty
        #: The ambient flight recorder, captured at arm time (None when
        #: no black box is armed). Fault draws are exactly the events a
        #: post-mortem needs, so the injector is a natural feed point —
        #: and it already sits off the per-event hot path.
        self.flightrec = obs.get().flightrec
        #: Plain-int fault accounting (deterministic, always on).
        self.counts = {
            "msgs_dropped": 0,
            "msgs_duplicated": 0,
            "msgs_delayed": 0,
            "msgs_corrupted": 0,
            "ipi_lost": 0,
            "crashes": 0,
            "ns_restarts": 0,
            "events_skipped": 0,
            "heartbeats_sent": 0,
        }

    # -- probabilistic faults ---------------------------------------------

    @property
    def affects_messages(self) -> bool:
        return self.active and self.plan.affects_messages

    @property
    def affects_ipi(self) -> bool:
        return self.active and self.plan.ipi_loss_prob > 0.0

    def message_verdict(self, channel, msg):
        """One uniform draw → ('deliver'|'drop'|'dup'|'delay'|'corrupt', delay)."""
        plan = self.plan
        u = self.rng.random()
        edge = plan.drop_prob
        if u < edge:
            self.counts["msgs_dropped"] += 1
            self._breadcrumb("fault.msg.drop")
            return "drop", 0
        edge += plan.dup_prob
        if u < edge:
            self.counts["msgs_duplicated"] += 1
            self._breadcrumb("fault.msg.dup")
            return "dup", 0
        edge += plan.delay_prob
        if u < edge:
            self.counts["msgs_delayed"] += 1
            self._breadcrumb("fault.msg.delay", delay_ns=plan.delay_ns)
            return "delay", plan.delay_ns
        edge += plan.corrupt_prob
        if u < edge:
            self.counts["msgs_corrupted"] += 1
            self._breadcrumb("fault.msg.corrupt")
            return "corrupt", 0
        if self.flightrec is not None:
            self.flightrec.tick(self.engine.now)
        return "deliver", 0

    def ipi_lost(self) -> bool:
        """One draw per (re)transmission attempt."""
        if self.rng.random() < self.plan.ipi_loss_prob:
            self.counts["ipi_lost"] += 1
            self._breadcrumb("fault.ipi.lost")
            return True
        return False

    def _breadcrumb(self, kind: str, **detail) -> None:
        """Note a fired fault into the black box (and snapshot on cadence)."""
        if self.flightrec is not None:
            self.flightrec.note(kind, self.engine.now, **detail)
            self.flightrec.tick(self.engine.now)

    # -- scheduled events ---------------------------------------------------

    def _schedule_events(self) -> None:
        # Plans are usually written against t=0 but armed after discovery
        # already advanced the clock; past deadlines fire immediately.
        for event in self.plan.events:
            self.engine.call_at(
                max(event.at_ns, self.engine.now), self._fire, event
            )

    def _fire(self, event: FaultEvent) -> None:
        self._breadcrumb("fault.event", action=event.action,
                         target=event.target or "")
        if event.action == CRASH:
            enclave = self._enclave_by_name(event.target)
            if enclave is None or self.pisces is None:
                self.counts["events_skipped"] += 1
                obs.get().counter("faults.events.skipped").inc()
                return
            from repro.pisces.pisces import PartitionError

            # Lease-based GC is the *distributed* failure detector; only
            # fall back to direct name-server notification (the management
            # enclave noticing the dead partition) when no heartbeats run.
            try:
                self.pisces.crash_enclave(
                    enclave,
                    system=self.system,
                    notify_nameserver=not self.plan.heartbeats,
                )
            except PartitionError:
                # not a crashable co-kernel (e.g. the management enclave)
                self.counts["events_skipped"] += 1
                obs.get().counter("faults.events.skipped").inc()
                return
            self.counts["crashes"] += 1
            obs.get().counter("faults.crashes").inc()
            return
        if event.action == NS_RESTART:
            module = self._ns_module()
            if module is None:
                self.counts["events_skipped"] += 1
                obs.get().counter("faults.events.skipped").inc()
                return
            module.restart_nameserver(outage_ns=event.duration_ns)
            self.counts["ns_restarts"] += 1
            obs.get().counter("faults.ns_restarts").inc()

    def _enclave_by_name(self, name: str):
        if self.system is None:
            return None
        for enclave in self.system.enclaves:
            if enclave.name == name:
                return enclave
        return None

    def _ns_module(self):
        if self.system is None or self.system.name_server_enclave is None:
            return None
        return self.system.name_server_enclave.module

    # -- heartbeats ---------------------------------------------------------

    def _start_heartbeats(self) -> None:
        if not self.plan.heartbeats or self.system is None:
            return
        for enclave in self.system.enclaves:
            module = enclave.module
            if module is None or module.is_name_server:
                continue
            self.engine.spawn(
                self._heartbeat_loop(module), name=f"heartbeat:{enclave.name}"
            )

    def _heartbeat_loop(self, module):
        """Bounded beacon daemon: one liveness message per period until the
        horizon (or the enclave itself dies)."""
        from repro.enclave.enclave import ChannelClosedError
        from repro.xemem import commands as C
        from repro.xemem.ids import XememError
        from repro.xemem.routing import RoutingError

        plan = self.plan
        while self.engine.now + plan.heartbeat_period_ns <= plan.horizon_ns:
            yield self.engine.sleep(plan.heartbeat_period_ns)
            if module.crashed or not module.routing.discovered:
                return
            beacon = C.make_command(C.ENCLAVE_HEARTBEAT, module.my_id, None)
            try:
                yield from module._send(beacon)
            except (RoutingError, ChannelClosedError, XememError):
                return
            self.counts["heartbeats_sent"] += 1


def arm(rig, plan: FaultPlan) -> FaultInjector:
    """Arm ``plan`` on a rig (anything with ``engine``/``system``/``pisces``).

    Returns the installed :class:`FaultInjector`. Arming an empty plan
    installs an inactive injector: nothing is scheduled, no RNG is ever
    consumed, and the run is byte-identical to a disarmed one.
    """
    engine = getattr(rig, "engine", rig)
    if engine.faults is not None:
        raise RuntimeError("a fault plan is already armed on this engine")
    injector = FaultInjector(
        plan,
        engine,
        system=getattr(rig, "system", None),
        pisces=getattr(rig, "pisces", None),
    )
    engine.faults = injector
    if injector.flightrec is not None:
        injector.flightrec.attach(engine=engine, injector=injector)
    if injector.active:
        injector._schedule_events()
        injector._start_heartbeats()
    return injector


def disarm(rig) -> Optional[FaultInjector]:
    """Remove the armed injector (already-scheduled events still fire)."""
    engine = getattr(rig, "engine", rig)
    injector, engine.faults = engine.faults, None
    return injector
