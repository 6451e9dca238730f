"""The per-enclave XEMEM kernel module: the shell around the protocol core.

One :class:`XememModule` sits in each enclave. The protocol's tables and
their transitions live in engine-free role objects: the name server's
segid and name tables (:class:`~repro.xemem.nameserver.NameServer`, on
exactly one enclave, §4.2), the owner's exports and grants
(:class:`~repro.xemem.core.SegmentOwner`, §4.3), the attacher's apids and
mappings (:class:`~repro.xemem.core.Attacher`) and the replay cache
(:class:`~repro.xemem.core.ReplayCache`). The name server also decides
its service's outage window, leases, restart and degradation ladder.
The module is the shell around them. It receives and routes messages by
§3.2's forwarding rule, runs discovery, deduplicates retried requests,
admits them under overload control, charges modeled costs, opens spans,
bumps counters, drives the enclave kernel's walks and mappings (SMARTMAP
on Kitten, lazy VMAs on Linux, eager PFN-list maps across enclaves) and
sends the responses.

Everything time-consuming is a generator run inside the simulation;
request/response pairs are correlated by ``req_id`` through the pending
table, and responses route back through the name server exactly as the
paper describes. docs/PROTOCOL.md lists which role owns which table.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro import obs
from repro.obs.tracer import NULL_SPAN
from repro.enclave.enclave import Channel, ChannelClosedError, Enclave, KernelMessage
from repro.kernels.pagetable import PAGE_SIZE
from repro.xemem import commands as C
from repro.xemem.core import IN_SERVICE, Attacher, Grant, ReplayCache, SegmentOwner
from repro.xemem.ids import (
    ApId,
    Permit,
    PermissionError_,
    SegmentId,
    XememError,
    XememOverload,
    XememTimeout,
)
from repro.xemem.nameserver import ADMIT, STALE, NameServer
from repro.xemem import overload as OV
from repro.xemem.routing import RoutingError, RoutingTable
from repro.xemem.shmem import AttachedRegion, ExportedSegment


class XememModule:
    """The XEMEM service of one enclave."""

    def __init__(self, enclave: Enclave, is_name_server: bool = False):
        self.enclave = enclave
        self.kernel = enclave.kernel
        self.engine = enclave.engine
        self.costs = self.kernel.costs
        self.routing = RoutingTable()
        # -- protocol core: one object per role --
        self.nameserver: Optional[NameServer] = NameServer() if is_name_server else None
        self.owner = SegmentOwner()
        self.attacher = Attacher()
        self.replay = ReplayCache()
        # -- transport state --
        self._pending: Dict[str, object] = {}  # req_id or ping token -> Event
        self._forwarded: Dict[str, Channel] = {}   # discovery req_id -> origin
        self._req_counter = itertools.count()
        #: waiter side of the doorbells: segid -> [pending signal count,
        #: waiting Events]
        self._signal_state: Dict[int, list] = {}
        # -- failure-resilience state --
        #: set by PiscesManager.crash_enclave; a crashed module drops all
        #: traffic and never raises out of handlers
        self.crashed = False
        # -- overload protection (default off; one attribute check on the
        # hot path, same zero-cost contract as ``engine.faults``) --
        self.overload: Optional["OV.ModuleOverload"] = None
        self.stats = {
            "attaches_served": 0,
            "attaches_made": 0,
            "messages_forwarded": 0,
        }
        enclave.module = self
        enclave.set_receiver(self._receive)

    # ------------------------------------------------------------------ identity

    @property
    def my_id(self) -> Optional[int]:
        """This enclave's ID (None before discovery)."""
        return self.enclave.enclave_id

    @property
    def is_name_server(self) -> bool:
        """True on the single enclave hosting the name server."""
        return self.nameserver is not None

    def _next_req_id(self) -> str:
        return f"{self.enclave.name}:{next(self._req_counter)}"

    def _count_forward(self) -> None:
        self.stats["messages_forwarded"] += 1
        obs.get().counter("xemem.msgs.forwarded").inc()

    # ------------------------------------------------------------- message plumbing

    def _receive(self, msg: KernelMessage, channel: Channel) -> None:
        if self.crashed:
            obs.get().counter("faults.msgs.to_crashed").inc()
            return
        self.engine.spawn(
            self._handle_safely(msg, channel),
            name=f"xemem:{self.enclave.name}:{msg.kind}",
        )

    def _handle_safely(self, msg: KernelMessage, channel: Optional[Channel]):
        """Handler wrapper: a mid-flight enclave crash or a vanished route
        must not blow up the engine (handlers run as unwaited processes)."""
        try:
            yield from self._handle(msg, channel)
        except (RoutingError, ChannelClosedError):
            obs.get().counter("xemem.msgs.undeliverable").inc()
        except Exception:
            if not self.crashed:
                raise
            obs.get().counter("faults.handlers.aborted").inc()

    def _send(self, msg: KernelMessage, channel: Optional[Channel] = None):
        """Generator: send one hop, on ``channel`` when given (discovery
        traffic, which no route exists for yet), else by the routing rule."""
        if channel is None:
            dst = msg.payload.get("dst")
            if dst is None:
                if self.is_name_server:
                    # we ARE the name server: resolve/handle without a hop
                    yield from self._handle_at_name_server(msg)
                    return
                channel = self.routing.ns_channel
                if channel is None:
                    raise XememError(
                        f"enclave {self.enclave.name!r} has no name-server path"
                    )
            elif dst == self.my_id:
                # a response addressed to ourselves (e.g. the name server
                # serving a segment it also owns): deliver locally
                self.engine.spawn(
                    self._handle_safely(msg, channel=None),
                    name=f"xemem-local:{msg.kind}",
                )
                return
            else:
                channel = self.routing.channel_for(dst)
        yield from channel.send(self.enclave, msg)

    def _post(self, msg: KernelMessage, channel: Optional[Channel] = None,
              name: Optional[str] = None) -> None:
        """Fire-and-forget :meth:`_send` in a process of its own."""
        self.engine.spawn(self._send_safely(msg, channel),
                          name=name or f"send:{msg.kind}")

    def _send_safely(self, msg: KernelMessage, channel: Optional[Channel]):
        """Posted-send wrapper: the destination may have crashed between
        queueing and delivery; a lost response surfaces as the requester's
        timeout, not as an unwaited exception."""
        try:
            yield from self._send(msg, channel)
        except (RoutingError, ChannelClosedError, XememError):
            obs.get().counter("xemem.msgs.undeliverable").inc()

    def _fault_plan(self):
        """The armed fault plan, or None: the one read of whether faults
        are armed. An armed plan sets request deadlines, turns on replay
        dedup and, with heartbeats, the name server's leases."""
        injector = self.engine.faults
        if injector is not None and injector.active:
            return injector.plan
        return None

    def _request_policy(self):
        """(deadline_ns, max_retries, backoff). A None deadline waits on
        the response with no timer: the fault-free channel always
        delivers, and the far side always answers (with a result or, when
        overload is armed, a paced rejection worth retrying)."""
        plan = self._fault_plan()
        if plan is not None:
            return plan.request_timeout_ns, plan.max_retries, plan.backoff_factor
        if self.overload is not None:
            return None, self.overload.cfg.max_client_retries, 1
        return None, 0, 1

    def _expired(self, key: str, event) -> None:
        """A reply wait's deadline passed: unregister ``event`` if it still
        waits for ``key`` (a req_id or a discovery ping token; both come
        from :meth:`_next_req_id`) and count the timeout."""
        if self._pending.get(key) is event:
            del self._pending[key]
        obs.get().counter("xemem.req.timeouts").inc()

    @staticmethod
    def _check_response(resp: KernelMessage) -> KernelMessage:
        error = resp.payload.get("error")
        if error is not None:
            verdict = resp.payload.get("overload")
            if verdict is not None:
                raise XememOverload(
                    error,
                    retry_after_ns=resp.payload.get("retry_after_ns", 0),
                    verdict=verdict,
                )
            if "permission denied" in error:
                raise PermissionError_(error)
            raise XememError(error)
        return resp

    def _call(self, kind: str, span=NULL_SPAN, **fields):
        """The :meth:`_request` generator for one user-op command routed by
        the name server; its req_id is allocated here and tagged on ``span``.
        Not a generator itself, so it adds no frame to the request's resumes."""
        req_id = self._next_req_id()
        span.set(req_id=req_id)
        return self._request(
            C.make_command(kind, self.my_id, None, req_id=req_id, **fields)
        )

    def _request(self, msg: KernelMessage):
        """Generator: send and wait for the correlated response.

        Returns the response message; raises :class:`XememError` if the
        response carries an error field. With a deadline (a fault plan
        armed) each unanswered attempt times out and is retried under
        exponential backoff; :class:`XememTimeout` is raised when the
        attempts run out.
        Retries reuse the req_id, so receivers can deduplicate replays.

        With overload protection armed, backpressure is honored: (a) a
        per-destination circuit breaker fails fast while the far side is
        *silent* (consecutive timeouts — a rejection is a healthy, fast
        answer and never trips it), (b) a per-module retry *budget* is
        charged for timeout-driven retries only, so unpaced storms cannot
        amplify an overloaded server — retry-after retries are paced by
        the server itself and ride free, and (c) backoff jitter and
        retry-after waits are drawn from the module's seeded overload
        RNG stream (never module-level ``random`` — REP002). An unarmed
        module surfaces a server's rejection as it arrives.
        """
        req_id = msg.payload["req_id"]
        o = obs.get()
        ov = self.overload
        if ov is not None:
            dst = msg.payload.get("dst")
            dst_key = "ns" if dst is None else f"e{dst}"
            breaker = ov.breaker_for(dst_key)
            if not breaker.allow():
                raise XememOverload(
                    f"{msg.kind} {req_id}: circuit open to {dst_key}",
                    retry_after_ns=breaker.retry_after_ns(),
                    verdict="breaker-open",
                )
        deadline_ns, attempts, backoff = self._request_policy()
        last_overload: Optional[XememOverload] = None
        for attempt in range(attempts + 1):
            event = self._pending[req_id] = self.engine.event(
                name=f"req:{req_id}#{attempt}")
            try:
                yield from self._send(msg)
            except (RoutingError, ChannelClosedError) as err:
                if self._pending.get(req_id) is event:
                    del self._pending[req_id]
                raise XememError(
                    f"cannot deliver {msg.kind} from {self.enclave.name!r}: {err}"
                )
            if deadline_ns is None:
                resp = yield event
            else:
                which, resp = yield self.engine.any_of(
                    [event, self.engine.sleep(deadline_ns)])
                if which != 0:
                    self._expired(req_id, event)
                    resp = None
            if resp is None:
                if ov is not None:
                    breaker.record_failure()
                if attempt < attempts:
                    # the unpaced kind of retry: charge the budget
                    if ov is not None and not ov.budget.try_spend():
                        raise XememOverload(
                            f"{msg.kind} {req_id}: retry budget exhausted",
                            retry_after_ns=ov.cfg.retry_budget_window_ns,
                            verdict="budget-exhausted",
                        )
                    o.counter("xemem.req.retries").inc()
                    deadline_ns *= backoff
                    jitter = ov.jitter_ns() if ov is not None else 0
                    if jitter:
                        yield self.engine.sleep(jitter)
                continue
            if ov is not None:
                # any answer — result, error or rejection — proves liveness
                breaker.record_success()
            try:
                return self._check_response(resp)
            except XememOverload as err:
                if ov is None:
                    raise
                # the far side answered promptly; honor its pacing
                o.counter("xemem.req.backpressured").inc()
                last_overload = err
                if attempt < attempts:
                    wait = err.retry_after_ns + ov.jitter_ns()
                    if wait:
                        yield self.engine.sleep(wait)
        if last_overload is not None:
            raise XememOverload(
                f"{msg.kind} {req_id}: still overloaded after "
                f"{attempts + 1} attempt(s)",
                retry_after_ns=last_overload.retry_after_ns,
                verdict=last_overload.verdict,
            )
        raise XememTimeout(
            f"{msg.kind} {req_id} unanswered after {attempts + 1} attempt(s)"
        )

    # ----------------------------------------------------------------- discovery

    def discover(self):
        """Generator: the paper's three discovery steps for this enclave."""
        with obs.get().span("xemem.discover", self.engine, track=self.enclave.name):
            result = yield from self._discover()
        return result

    def _discover(self):
        # (1) broadcast: find a channel with a path to the name server.
        # Each attempt uses a fresh token, so a late ack for an abandoned
        # broadcast is dropped as stray rather than racing a newer one.
        deadline_ns, max_retries, backoff = self._request_policy()
        for _ in range(max_retries + 1):
            token = self._next_req_id()
            event = self._pending[token] = self.engine.event(name=f"ping:{token}")
            for channel in self.enclave.channels:
                self._post(
                    C.make_command(C.PING_NS_PATH, None, None, token=token),
                    channel,
                )
            if deadline_ns is None:
                ns_channel = yield event
                break
            which, ns_channel = yield self.engine.any_of(
                [event, self.engine.sleep(deadline_ns)])
            if which == 0:
                break
            self._expired(token, event)
            deadline_ns *= backoff
        else:
            raise XememTimeout(
                f"enclave {self.enclave.name!r} found no name-server path after "
                f"{max_retries + 1} broadcast(s)"
            )
        self.routing.ns_channel = ns_channel
        # (2) request an enclave ID through that channel: an ordinary
        # request (dst None goes out on ns_channel); the req_id is stable
        # across retries so forwarders and the name server deduplicate
        resp = yield from self._request(
            C.make_command(C.ALLOC_ENCLAVE_ID, None, None,
                           req_id=self._next_req_id())
        )
        self.enclave.enclave_id = resp.payload["enclave_id"]
        self.routing.discovered = True
        return self.enclave.enclave_id

    # ----------------------------------------------------------------- dispatch

    def _handle(self, msg: KernelMessage, channel: Channel):
        kind = msg.kind

        # -- hop-by-hop discovery traffic (no enclave IDs exist yet) --------
        if kind == C.PING_NS_PATH:
            if self.routing.discovered:
                yield from self._send(C.make_command(
                    C.PING_NS_PATH_ACK, None, None, token=msg.payload["token"]
                ), channel)
            return
        if kind == C.PING_NS_PATH_ACK:
            event = self._pending.pop(msg.payload["token"], None)
            if event is None:
                # duplicate or late ack for an already-answered (or
                # abandoned) broadcast: drop, don't raise
                obs.get().counter("xemem.msgs.stray_dropped").inc()
                return
            event.trigger(channel)
            return
        if kind == C.ALLOC_ENCLAVE_ID and not self.is_name_server:
            # relay toward the name server (it answers below, with dst None)
            self._forwarded[msg.payload["req_id"]] = channel
            yield from self._send(msg)
            return
        if kind == C.ENCLAVE_ID_ASSIGNED:
            req_id = msg.payload["req_id"]
            if req_id in self._pending:
                self._pending.pop(req_id).trigger(msg)
                return
            origin = self._forwarded.pop(req_id, None)
            if origin is None:
                # duplicate assignment already delivered (or the waiter
                # timed out and moved on): drop, don't raise
                obs.get().counter("xemem.msgs.stray_dropped").inc()
                return
            # learn the route to the newly assigned enclave (§3.2)
            self.routing.learn(msg.payload["enclave_id"], origin)
            yield from self._send(msg, origin)
            return

        # -- addressed traffic ------------------------------------------------
        dst = msg.payload.get("dst")
        if dst is None and self.is_name_server:
            yield from self._handle_at_name_server(msg, channel)
            return
        if dst is None or dst != self.my_id:
            self._count_forward()
            yield from self._send(msg)
            return

        # -- mine -------------------------------------------------------------
        reply_to = msg.payload.get("reply_to")
        if reply_to is not None:
            event = self._pending.pop(reply_to, None)
            if event is None:
                # a duplicated response, or one that arrived after the
                # requester's deadline fired: drop, don't raise
                obs.get().counter("xemem.msgs.stray_dropped").inc()
                return
            event.trigger(msg)
            return
        if self.overload is not None and kind not in C.ONE_WAY:
            yield from self._serve_admitted(msg, self.overload, self._serve)
            return
        yield from self._serve(msg)

    # -- overload admission (armed only) -----------------------------------

    def _serve_admitted(self, msg: KernelMessage, ov: "OV.ModuleOverload",
                        serve):
        """Run the ``serve(msg)`` generator behind the bounded admission
        queue (owner-side serving and name-server dispatch alike)."""
        try:
            verdict = yield from ov.controller.admit(msg.kind)
        except XememError:
            # the module crashed/shut down while this request was queued
            obs.get().counter("overload.aborted").inc()
            return
        if verdict != OV.SERVE:
            self._reject_overloaded(msg, verdict, ov)
            return
        try:
            yield from serve(msg)
        finally:
            ov.controller.release()

    def _reject_overloaded(self, msg: KernelMessage, verdict: str,
                           ov: "OV.ModuleOverload") -> None:
        """Answer a refused request with a backpressure response."""
        obs.get().counter("xemem.msgs.overload_rejected").inc()
        if msg.kind in C.ONE_WAY or msg.kind not in C.RESPONSE_KIND:
            return
        self._respond(
            msg, rejected=True,
            error=f"overloaded: {verdict} at enclave {self.enclave.name!r}",
            overload=verdict,
            retry_after_ns=ov.controller.retry_hint_ns(),
        )

    # -- retried-request deduplication -------------------------------------

    def _cache_for(self, kind: str) -> ReplayCache:
        """The replay cache for ``kind``: the name server's own for the
        commands it answers itself, else the module's owner-side one."""
        if self.nameserver is None or kind in C.SEGID_ADDRESSED:
            return self.replay
        return self.nameserver.replay

    def _replay_of(self, msg: KernelMessage):
        """The replay cache's verdict on ``msg`` while dedup is on: a copy
        of the cached response to re-send, ``IN_SERVICE`` for a duplicate
        of a request still being served (the original's response answers
        both), or None for a request to serve."""
        if self._fault_plan() is None:
            return None
        req_id = msg.payload.get("req_id")
        if req_id is None:
            return None
        seen = self._cache_for(msg.kind).admit(req_id)
        if seen is None:
            return None
        if seen is IN_SERVICE:
            obs.get().counter("xemem.msgs.dup_in_service").inc()
            return seen
        obs.get().counter("xemem.msgs.replayed").inc()
        return KernelMessage(kind=seen.kind, payload=dict(seen.payload),
                             pfns=seen.pfns)

    def _maybe_replay(self, msg: KernelMessage) -> bool:
        """True if ``msg`` was a duplicate (its cached response, if any,
        is re-sent). Double-serving would double-count grants_out."""
        replay = self._replay_of(msg)
        if replay is None:
            return False
        if replay is not IN_SERVICE:
            self._post(replay)
        return True

    def _respond(self, request: KernelMessage, pfns=None, rejected=False,
                 **fields) -> None:
        """Build, record (for replay), and spawn-send a response."""
        resp = C.make_response(request, self.my_id, pfns=pfns, **fields)
        self._cache_for(request.kind).record(
            request.payload.get("req_id"), resp,
            self._fault_plan() is not None, rejected)
        self._post(resp)

    # -- the name-server service: NameServer decides, the shell acts --------

    def restart_nameserver(self, outage_ns: int = 0) -> None:
        """Model a name-server restart (:meth:`NameServer.restart`): all
        NS traffic is dropped for ``outage_ns`` and the service's own
        replay cache is lost; the module's owner-side cache survives."""
        if not self.is_name_server:
            raise XememError("restart_nameserver on a non-name-server enclave")
        self.nameserver.restart(self.engine.now, outage_ns)
        obs.get().counter("xemem.ns.restarts").inc()

    def gc_enclave(self, enclave_id: int) -> list:
        """Name server: purge a dead enclave's segids; returns them."""
        purged = self.nameserver.gc_enclave(enclave_id)
        if purged:
            obs.get().counter("xemem.ns.segids_removed").inc(len(purged))
        return purged

    def _sweep_leases(self) -> None:
        """While heartbeats are armed, run the name server's lease sweep
        (:meth:`NameServer.sweep_leases`) at the ladder's current level
        and count what it did."""
        plan = self._fault_plan()
        if plan is None or not plan.heartbeats:
            return
        ov = self.overload
        level = ov.refresh_level() if ov is not None else 0
        expired = self.nameserver.sweep_leases(self.engine.now, plan.lease_ns,
                                               level)
        if expired is None:
            obs.get().counter("overload.ns.gc_deferred").inc()
            return
        for eid in expired:
            purged = self.gc_enclave(eid)
            obs.get().counter("xemem.ns.lease_gc").inc()
            obs.get().counter("xemem.ns.lease_gc_segids").inc(len(purged))

    def _handle_at_name_server(self, msg: KernelMessage,
                               channel: Optional[Channel] = None):
        """NS-addressed commands: resolve or answer (§4.2). ``channel`` is
        the hop an ``alloc_enclave_id`` arrived on."""
        kind, ns = msg.kind, self.nameserver
        if ns.down(self.engine.now):
            obs.get().counter("faults.ns.dropped_while_down").inc()
            return
        if kind == C.ENCLAVE_HEARTBEAT:
            ns.note_heartbeat(msg.payload.get("src"), self.engine.now)
            self._sweep_leases()
            return
        if kind == C.ALLOC_ENCLAVE_ID:
            replay = self._replay_of(msg)
            if replay is not None:
                # a retried allocation replays the assignment instead of
                # burning a second enclave ID
                if replay is not IN_SERVICE:
                    yield from self._send(replay, channel)
                return
            new_id = ns.alloc_enclave_id()
            obs.get().counter("xemem.ns.enclave_ids").inc()
            self.routing.learn(new_id, channel)
            req_id = msg.payload["req_id"]
            assigned = C.make_command(
                C.ENCLAVE_ID_ASSIGNED, self.my_id, None,
                req_id=req_id, enclave_id=new_id,
            )
            ns.replay.record(req_id, assigned, self._fault_plan() is not None)
            yield from self._send(assigned, channel)
            return
        # Journey tag: the req_id ties this serving span to the client
        # operation that sent the command (heartbeats excluded — they
        # belong to no request).
        with obs.get().span("xemem.ns.handle", self.engine,
                            track=self.enclave.name, kind=kind,
                            req_id=msg.payload.get("req_id")):
            ov = self.overload
            if ov is None:
                yield from self._dispatch_at_name_server(msg)
                return
            # behind admission control and the degradation ladder, whose
            # verdict NameServer.ladder decides (docs/OVERLOAD.md)
            ov.refresh_level()
            verdict, segid = ns.ladder.verdict(kind, msg.payload,
                                               self.engine.now, ov.cfg)
            if verdict == ADMIT:
                yield from self._serve_admitted(msg, ov,
                                                self._dispatch_at_name_server)
            elif verdict == STALE:
                ov.controller.count_served_direct()
                obs.get().counter("overload.ns.stale_lookups").inc()
                self._post(C.make_response(msg, self.my_id, segid=segid,
                                           stale=True))
            else:
                ov.controller.count_shed_direct()
                self._reject_overloaded(msg, OV.SHED, ov)

    def _dispatch_at_name_server(self, msg: KernelMessage):
        kind, p = msg.kind, msg.payload
        if kind in C.SEGID_ADDRESSED:
            self._sweep_leases()
            try:
                owner = self.nameserver.route(
                    p["segid"], release=kind == C.RELEASE_REQ
                )
            except XememError as err:
                self._respond(msg, error=str(err))
                return
            if owner is None:
                self._respond(msg, ok=True)
            elif owner == self.my_id:
                yield from self._serve(msg)
            else:
                p["dst"] = owner
                self._count_forward()
                try:
                    yield from self._send(msg)
                except (RoutingError, ChannelClosedError, XememError) as err:
                    # the owner died between resolution and forwarding
                    self._respond(
                        msg, error=f"owner enclave {owner} unreachable: {err}"
                    )
            return
        if self._maybe_replay(msg):
            return
        try:
            fields = self._ns_command(kind, p)
        except XememError as err:
            fields = {"error": str(err)}
        else:
            if kind == C.LOOKUP_NAME and self.overload is not None:
                # feed the stale-bounded cache the ladder answers from
                self.nameserver.ladder.remember(p["name"], fields["segid"],
                                                self.engine.now)
        self._respond(msg, **fields)

    def _ns_command(self, kind: str, p: dict) -> dict:
        """One name-server command (:meth:`NameServer.serve`), remote or
        the name-server enclave's own: count it, return its fields."""
        fields, counter, n = self.nameserver.serve(kind, p)
        if n:
            obs.get().counter(counter).inc(n)
        return fields

    # ----------------------------------------------------------------- serving

    def _serve(self, msg: KernelMessage):
        """Requests addressed to this enclave as a segment owner."""
        kind, p = msg.kind, msg.payload
        if kind == C.SEGID_NOTIFY:
            # one-way, no req_id: dedup does not apply
            self._deliver_signal(p["segid"])
            return
        if self._maybe_replay(msg):
            return
        if kind == C.ATTACH_REQ:
            yield from self._serve_attach(msg)
            return
        try:
            fields = self._owner_command(msg)
        except XememError as err:
            fields = {"error": str(err)}
        self._respond(msg, **fields)

    def _owner_command(self, msg: KernelMessage) -> dict:
        """One owner-side command on the core; its response fields."""
        owner, kind, p = self.owner, msg.kind, msg.payload
        if kind == C.GET_REQ:
            return {"npages": owner.grant(p["segid"], p["write"])}
        if kind == C.RELEASE_REQ:
            owner.release(p["segid"])
        elif kind == C.NOTIFY_SUBSCRIBE:
            owner.subscribe(p["segid"], p["src"])
        elif kind == C.SIGNAL_REQ:
            self._fan_out_signal(p["segid"], owner.signal_targets(p["segid"]))
        else:
            raise XememError(f"enclave {self.enclave.name!r} cannot serve {kind!r}")
        return {"ok": True}

    def _serve_attach(self, msg: KernelMessage):
        """Owner side of Fig. 3 steps 5–6: walk pages, return the PFN list."""
        p = msg.payload
        offset_pages, npages = p["offset_pages"], p["npages"]
        try:
            seg = self.owner.check_attach(p["segid"], offset_pages, npages)
        except XememError as err:
            self._respond(msg, error=str(err))
            return
        o = obs.get()
        with o.span("xemem.serve_attach", self.engine, track=self.enclave.name,
                    npages=npages, req_id=p.get("req_id")):
            pfns = yield from self.kernel.walk_for_export(
                seg.proc, seg.vaddr + offset_pages * PAGE_SIZE, npages
            )
        o.counter("xemem.attach.served").inc()
        self.stats["attaches_served"] += 1
        resp = C.make_response(msg, self.my_id, pfns=pfns)
        self.replay.record(p.get("req_id"), resp, self._fault_plan() is not None)
        yield from self._send(resp)

    # ============================================================== user operations

    def make(self, proc, vaddr: int, nbytes: int, permit: Permit = Permit(),
             name: Optional[str] = None):
        """Generator: export [vaddr, vaddr+nbytes) → :class:`ExportedSegment`."""
        if vaddr % PAGE_SIZE or nbytes <= 0:
            raise XememError(f"export range [{vaddr:#x}, +{nbytes}) not page aligned")
        npages = -(-nbytes // PAGE_SIZE)
        o = obs.get()
        with o.span("xemem.make", self.engine, track=self.enclave.name,
                    npages=npages, segname=name) as sp:
            yield self.engine.sleep(self.costs.export_fixed_ns)
            if self.is_name_server:
                fields = self._ns_command(C.ALLOC_SEGID, {
                    "src": self.my_id, "npages": npages, "name": name})
            else:
                resp = yield from self._call(C.ALLOC_SEGID, sp,
                                             npages=npages, name=name)
                fields = resp.payload
            segid = SegmentId(fields["segid"])
        o.counter("xemem.make.count").inc()
        seg = ExportedSegment(segid, proc, vaddr, npages, permit, name)
        self.owner.export(seg)
        return seg

    def remove(self, proc, seg: ExportedSegment):
        """Generator: ``xpmem_remove`` — retire the segid."""
        self.owner.retire(proc, seg)
        if self.is_name_server:
            self._ns_command(C.REMOVE_SEGID,
                             {"segid": int(seg.segid), "src": self.my_id})
            yield self.engine.sleep(self.costs.detach_fixed_ns)
        else:
            yield from self._call(C.REMOVE_SEGID, segid=int(seg.segid))

    def lookup(self, name: str):
        """Generator: discoverability — find a segid by registered name."""
        o = obs.get()
        with o.span("xemem.lookup", self.engine, track=self.enclave.name,
                    segname=name) as sp:
            if self.is_name_server:
                yield self.engine.sleep(self.costs.detach_fixed_ns)
                segid = self._ns_command(C.LOOKUP_NAME, {"name": name})["segid"]
            else:
                resp = yield from self._call(C.LOOKUP_NAME, sp, name=name)
                segid = resp.payload["segid"]
        return None if segid is None else SegmentId(segid)

    def list_names(self, prefix: str = ""):
        """Generator: discoverability — all registered segment names."""
        if self.is_name_server:
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return self._ns_command(C.LIST_NAMES, {"prefix": prefix})["names"]
        resp = yield from self._call(C.LIST_NAMES, prefix=prefix)
        return resp.payload["names"]

    def get(self, proc, segid: SegmentId, write: bool = True):
        """Generator: ``xpmem_get`` — request access, returns an ApId."""
        o = obs.get()
        o.counter("xemem.get.count").inc()
        local = self.owner.owns(segid)
        with o.span("xemem.get", self.engine, track=self.enclave.name,
                    local=local) as sp:
            if local:
                npages = self.owner.grant(segid, write, proc=proc)
                yield self.engine.sleep(self.costs.detach_fixed_ns)
            else:
                resp = yield from self._call(C.GET_REQ, sp,
                                             segid=int(segid), write=write)
                npages = resp.payload["npages"]
        return self.attacher.add_grant(
            self.my_id, segid, proc, npages, write, owner_is_local=local
        )

    def release(self, proc, apid: ApId):
        """Generator: ``xpmem_release`` — drop a grant.

        Refused while attachments made under the grant are still mapped
        (XPMEM semantics: detach before release)."""
        obs.get().counter("xemem.release.count").inc()
        grant = self.attacher.release(proc, apid)
        if grant.owner_is_local:
            self.owner.release(grant.segid)
            yield self.engine.sleep(self.costs.detach_fixed_ns)
        else:
            yield from self._call(C.RELEASE_REQ, segid=int(grant.segid))

    def attach(self, proc, apid: ApId, offset: int = 0, nbytes: Optional[int] = None):
        """Generator: ``xpmem_attach`` — map (a window of) the segment.

        Local segments use the enclave OS's own conventions (SMARTMAP on
        Kitten, a lazy VMA on Linux); remote segments run the full Fig. 3
        protocol and map the returned PFN list eagerly.
        """
        grant = self.attacher.grant_of(proc, apid)
        offset_pages, npages = self.attacher.window(grant, offset, nbytes)
        o = obs.get()
        t0 = self.engine.now
        with o.span("xemem.attach", self.engine, track=self.enclave.name,
                    npages=npages, local=grant.owner_is_local) as sp:
            yield self.engine.sleep(self.costs.attach_fixed_ns)
            if grant.owner_is_local:
                attached = yield from self._attach_local(proc, grant, offset_pages, npages)
            else:
                attached = yield from self._attach_remote(
                    proc, grant, offset_pages, npages, span=sp
                )
        if not self.attacher.register(grant, attached):
            # The grant was invalidated (its owner enclave crashed) while
            # we were mapping: tear the half-made attachment back down
            # instead of registering a mapping into dead memory.
            self._tear_down(attached)
            raise XememError(
                f"{grant.apid!r} invalidated while attaching (owner crashed)"
            )
        o.counter("xemem.attach.count").inc()
        o.counter("xemem.attach.pages").inc(npages)
        o.histogram("xemem.attach.ns").observe(self.engine.now - t0)
        self.stats["attaches_made"] += 1
        return attached

    def _attach_local(self, proc, grant: Grant, offset_pages: int, npages: int):
        seg = self.owner.live(grant.segid)
        if self.kernel.kernel_type == "kitten":
            # SMARTMAP: O(1) whole-address-space aliasing (§4.3)
            if self.attacher.smartmap_ref((proc.pid, seg.proc.pid)):
                self.kernel.smartmap_attach(proc, seg.proc)
            vaddr = self.kernel.smartmap_address(
                seg.proc, seg.vaddr + offset_pages * PAGE_SIZE
            )
            pfns = seg.proc.aspace.table.translate_range(
                seg.vaddr + offset_pages * PAGE_SIZE, npages
            )
            # SMARTMAP aliases the donor's own PTEs, so a read-only grant
            # is enforced at the view layer, not in the page table.
            view = self.kernel.mem.map_region(pfns, writable=grant.write)
            return AttachedRegion(
                grant.apid, grant.segid, proc, vaddr, npages,
                kind="smartmap", view=view, smartmap_donor=seg.proc,
            )
        # Linux local path: pin the exporter's pages, then lazily map them
        pfns = yield from self.kernel.walk_for_export(
            seg.proc, seg.vaddr + offset_pages * PAGE_SIZE, npages,
            core=self.kernel.node.core(proc.core_id),
        )
        region = yield from self.kernel.attach_local_lazy(
            proc, pfns, name=f"xemem:{int(grant.segid):#x}",
            writable=grant.write,
        )
        view = self.kernel.mem.map_region(pfns, writable=grant.write)
        return AttachedRegion(
            grant.apid, grant.segid, proc, region.start, npages,
            kind="linux-lazy", region=region, local_pfns=pfns, view=view,
        )

    def _attach_remote(self, proc, grant: Grant, offset_pages: int,
                       npages: int, span=NULL_SPAN):
        # The req_id is allocated here (not in attach()) so the id
        # sequence is stable; the open attach span gets it as a journey
        # tag via the passed-in handle.
        resp = yield from self._call(
            C.ATTACH_REQ, span, segid=int(grant.segid),
            offset_pages=offset_pages, npages=npages,
        )
        pfns = resp.pfns
        if pfns is None or len(pfns) != npages:
            raise XememError("malformed attach response")
        extra = (
            self.costs.guest_map_install_per_page_ns
            - self.costs.map_install_per_page_ns
            if getattr(self.kernel, "virtualized", False)
            else 0
        )
        region = yield from self.kernel.map_remote_pfns(
            proc, pfns, name=f"xemem:{int(grant.segid):#x}",
            core=self.kernel.node.core(proc.core_id),
            extra_per_page_ns=extra,
            writable=grant.write,
        )
        view = self.kernel.mem.map_region(pfns, writable=grant.write)
        return AttachedRegion(
            grant.apid, grant.segid, proc, region.start, npages,
            kind="remote", region=region, local_pfns=pfns, view=view,
        )

    def detach(self, proc, attached: AttachedRegion):
        """Generator: ``xpmem_detach`` — unmap an attachment."""
        self.attacher.detach(proc, attached)
        obs.get().counter("xemem.detach.count").inc()
        if attached.kind == "smartmap":
            donor = attached.smartmap_donor
            if self.attacher.smartmap_unref((proc.pid, donor.pid)):
                self.kernel.smartmap_detach(proc, donor)
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return
        yield from self.kernel.unmap_attachment(proc, attached.region)
        if attached.kind == "remote" and getattr(self.kernel, "virtualized", False):
            # drop the guest-physical alias Palacios created for this attach
            yield from self.kernel.vmm.unmap_guest_attachment(attached.local_pfns)

    def _tear_down(self, att: AttachedRegion) -> None:
        """Unmap an attachment into memory that is gone, at no protocol
        cost (a half-populated region unmaps only what it populated)."""
        att.detached = True
        region = att.region
        if region is not None:
            aspace = att.proc.aspace
            if region in aspace.regions:
                if region.populated == region.npages:
                    aspace.unmap_region(region)
                else:
                    aspace.unmap_populated_pages(region)

    # ================================================== event-notification extension
    #
    # The paper's §6.1 notes that its OS/Rs "only support application
    # communication through shared memory, and thus operations like event
    # notifications must be supported via ad hoc techniques like polling"
    # and promises to "investigate techniques to support additional
    # features". This is that feature: kernel-level doorbells on a segid.
    # Waiters subscribe once (a routed message to the owner); every signal
    # fans out one message per subscribed enclave. Semaphore semantics —
    # a signal raised before anyone waits is not lost.

    def _signal_cell(self, segid: int) -> list:
        return self._signal_state.setdefault(int(segid), [0, []])

    def _deliver_signal(self, segid: int) -> None:
        cell = self._signal_cell(segid)
        if cell[1]:
            cell[1].pop(0).trigger(None)
        else:
            cell[0] += 1

    def _fan_out_signal(self, segid: int, targets) -> None:
        """Owner side: wake local waiters, notify remote subscribers.

        Notifications are lossy toward departed enclaves (their routes
        are gone); that mirrors real doorbells — nobody is listening —
        and each lost one counts in ``xemem.msgs.undeliverable``.
        """
        self._deliver_signal(segid)
        for enclave_id in targets:
            msg = C.make_command(
                C.SEGID_NOTIFY, self.my_id, enclave_id, segid=int(segid)
            )
            self._post(msg, name="notify")

    def subscribe_signals(self, proc, segid: SegmentId):
        """Generator: register this enclave for ``segid``'s doorbell.

        Local waiters of the owning enclave need no subscription; remote
        waiters subscribe once and then receive every signal as a routed
        one-way message.
        """
        if self.owner.owns(segid):
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return True
        yield from self._call(C.NOTIFY_SUBSCRIBE, segid=int(segid))
        return True

    def signal(self, proc, segid: SegmentId):
        """Generator: ring the segid's doorbell (wakes all waiters once)."""
        if self.owner.owns(segid):
            self._fan_out_signal(int(segid), self.owner.signal_targets(segid))
            yield self.engine.sleep(self.costs.detach_fixed_ns)
            return
        yield from self._call(C.SIGNAL_REQ, segid=int(segid))

    def wait_signal(self, proc, segid: SegmentId):
        """Generator: block until the segid's doorbell rings.

        Consumes one pending signal if present (semaphore semantics).
        The waiter must have subscribed first unless it is in the owning
        enclave.
        """
        cell = self._signal_cell(int(segid))
        if cell[0] > 0:
            cell[0] -= 1
            return
        event = self.engine.event(name=f"signal:{int(segid):#x}")
        cell[1].append(event)
        yield event

    # ============================================================ enclave lifecycle

    def shutdown(self, force: bool = False):
        """Generator: deregister this enclave from the XEMEM name space.

        The paper's §3.2 expects node partitions to be *dynamic*; this is
        the departure half. All locally exported segments are retired at
        the name server. By default, shutdown refuses while other
        enclaves hold grants on local segments (their mappings would
        dangle) and while this enclave holds grants on theirs (the
        owners would count them forever); ``force=True`` overrides for
        failure-injection tests.
        """
        outstanding = self.owner.outstanding_grants()
        if outstanding and not force:
            raise XememError(
                f"enclave {self.enclave.name!r} has {outstanding} outstanding "
                "grant(s) on its segments; detach/release first (or force)"
            )
        held = self.attacher.remote_grants()
        if held and not force:
            raise XememError(
                f"enclave {self.enclave.name!r} holds {held} grant(s) on "
                "other enclaves' segments; detach/release first (or force)"
            )
        if self.is_name_server:
            raise XememError("the name-server enclave cannot depart")
        # retire every owned segid in one departure message
        yield from self._call(C.ENCLAVE_DEPART)
        if force:
            # Outstanding waiters (signal waits, in-flight requests) would
            # otherwise hang forever against a departed enclave.
            self._fail_waiters(XememError(f"enclave {self.enclave.name!r} departed"))
        self._drop_registration_state()
        return True

    def _fail_waiters(self, err: XememError) -> None:
        """Fail every parked waiter: signal waits, in-flight requests,
        discovery pings, and queued admissions."""
        for cell in self._signal_state.values():
            waiters, cell[1] = cell[1], []
            for event in waiters:
                if not event.triggered:
                    event.fail(err)
        events = list(self._pending.values())
        self._pending.clear()
        for event in events:
            if not event.triggered:
                event.fail(err)
        if self.overload is not None:
            self.overload.fail_all(err)

    def _drop_registration_state(self) -> None:
        """Drop *all* per-registration state, not just the segments: stale
        grants, attachment refcounts, and signal subscriptions must not
        survive into a later re-join of the same enclave."""
        self.owner.clear()
        self.attacher.clear()
        self.replay.clear()
        self._signal_state.clear()
        self._forwarded.clear()
        self.routing.discovered = False

    def crash(self) -> None:
        """Fail-stop this enclave's XEMEM service (no protocol, no costs).

        Called by :meth:`PiscesManager.crash_enclave`. Unlike
        :meth:`shutdown`, nothing is negotiated: every parked waiter fails
        immediately, all state is dropped, and the module ignores any
        traffic that still reaches it.
        """
        if self.crashed:
            return
        self.crashed = True
        recorder = obs.get().flightrec
        if recorder is not None:
            recorder.note(
                "xemem.module.crashed", self.engine.now,
                enclave=self.enclave.name,
                segments=len(self.owner.segments),
                live_attachments=sum(map(len, self.attacher.attachments.values())),
            )
        self._fail_waiters(XememError(f"enclave {self.enclave.name!r} crashed"))
        self._drop_registration_state()
        self.routing.routes.clear()
        self.routing.ns_channel = None
        obs.get().counter("faults.modules.crashed").inc()

    def invalidate_dead_segments(self, dead_segids, pfn_window,
                                 crashed_enclave_id: Optional[int] = None) -> int:
        """Survivor-side crash cleanup: tear down attachments into a dead
        enclave's memory and drop the matching grants.

        ``dead_segids`` — segids the crashed enclave owned (its exports);
        ``pfn_window`` — the dead enclave's physical partition ``(lo, hi)``,
        catching attachments whose segid records predate the crash (e.g.
        already-GC'd at the name server). Guest-side attachments carry
        guest-physical PFNs unrelated to host frames, so a VM matches by
        segid only. The PTEs are unmapped synchronously (a real
        implementation would IPI-shootdown; the crash path charges no
        protocol cost — the frames are gone either way). Foreign frames
        are never freed here; the crashed kernel's teardown reclaims
        them. Returns the number of attachments torn down.
        """
        torn = self.attacher.invalidate(
            {int(s) for s in dead_segids}, pfn_window,
            match_pfns=not getattr(self.kernel, "virtualized", False),
        )
        for att in torn:
            self._tear_down(att)
        if crashed_enclave_id is not None:
            self.owner.forget_subscriber(crashed_enclave_id)
        if torn:
            obs.get().counter("faults.attachments.invalidated").inc(len(torn))
        return len(torn)


def install_xemem(system, run_discovery_now: bool = True) -> Dict[str, XememModule]:
    """Put a module on every enclave; optionally run discovery. Returns
    {enclave name: module}."""
    if system.name_server_enclave is None:
        raise XememError("designate a name-server enclave first")
    modules = {}
    for enclave in system.enclaves:
        modules[enclave.name] = XememModule(
            enclave, is_name_server=enclave is system.name_server_enclave
        )
    if run_discovery_now:
        system.run_discovery()
    return modules
