"""XEMEM's protocol core: each role's tables and their transitions.

The name server's segid and name tables live in
:class:`~repro.xemem.nameserver.NameServer`. The objects here hold the
rest of one enclave's protocol state:

* :class:`SegmentOwner` — the exported segments, the grants handed out
  on them and their doorbell subscribers (§4.3's serving side);
* :class:`Attacher` — the apids this enclave holds, the attachments
  made under them and the SMARTMAP aliases;
* :class:`ReplayCache` — the responses kept for idempotent replay of
  retried requests.

Each method takes one decoded command or call and returns its result
or raises :class:`~repro.xemem.ids.XememError`. Nothing here yields,
sends, charges time or counts: :class:`~repro.xemem.module.XememModule`
is the shell that does all of that around these calls, so the protocol
can be checked without an engine (``tests/xemem/test_core_machine.py``).
Segments and attachments are the shell's objects; the core reads and
flips their fields but never builds one.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.costs import PAGE_4K as PAGE_SIZE
from repro.xemem.ids import ApId, PermissionError_, SegmentId, XememError

#: Bound on the replay cache (FIFO eviction). Large enough that a
#: response outlives its request's full retry budget.
REPLAY_CACHE_CAP = 512

#: :meth:`ReplayCache.admit`'s verdict on a duplicate of a request that
#: is still being served.
IN_SERVICE = "in-service"


class ReplayCache:
    """Responses to retried requests, by ``req_id``.

    A retry reuses its request's ``req_id``. Serving it twice would
    double-count, e.g., an owner's ``grants_out``, so a served request's
    response is kept and re-sent, and a duplicate of a request still in
    service is dropped (the original's response answers both). Responses
    are only kept while dedup is on, i.e. while a fault plan is armed.
    """

    def __init__(self) -> None:
        self.served: "OrderedDict[str, object]" = OrderedDict()
        self.in_service: set = set()

    def admit(self, req_id: str):
        """The cached response to replay, :data:`IN_SERVICE` for a
        duplicate in flight, or None for a fresh request (now in
        service)."""
        cached = self.served.get(req_id)
        if cached is not None:
            return cached
        if req_id in self.in_service:
            return IN_SERVICE
        self.in_service.add(req_id)
        return None

    def record(self, req_id: Optional[str], resp, keep: bool,
               rejected: bool = False) -> None:
        """Settle a request with its response; ``keep`` caches it.

        An overload rejection settles nothing: the request was never
        served, and a cached rejection would answer every retry with
        "overloaded"."""
        if req_id is None or rejected:
            return
        self.in_service.discard(req_id)
        if not keep:
            return
        self.served[req_id] = resp
        while len(self.served) > REPLAY_CACHE_CAP:
            self.served.popitem(last=False)

    def clear(self) -> None:
        self.served.clear()
        self.in_service.clear()


class SegmentOwner:
    """Owner role: this enclave's exports, keyed by segid."""

    def __init__(self) -> None:
        self.segments: Dict[int, object] = {}
        #: segid -> subscribed enclave ids, in subscription order
        self.subscribers: Dict[int, List[int]] = {}

    def export(self, seg) -> None:
        self.segments[int(seg.segid)] = seg

    def retire(self, proc, seg) -> None:
        """``xpmem_remove``: only the exporting process, only once."""
        if seg.proc is not proc:
            raise XememError("only the exporting process may remove a segment")
        if seg.removed:
            raise XememError(f"{seg.segid!r} already removed")
        seg.removed = True
        self.segments.pop(int(seg.segid), None)

    def owns(self, segid) -> bool:
        return int(segid) in self.segments

    def live(self, segid):
        """The exported segment ``segid``; raises if unknown or removed."""
        seg = self.segments.get(int(segid))
        if seg is None or seg.removed:
            raise XememError("unknown or removed segid")
        return seg

    def grant(self, segid, write: bool, proc=None) -> int:
        """``GET_REQ`` (``proc`` None) or a local ``xpmem_get`` by
        ``proc``: check the permit, count the grant, return npages."""
        seg = self.live(segid)
        if not seg.permit.allows(write, is_owner=seg.proc is proc):
            raise PermissionError_(f"permission denied for {seg.segid!r}")
        seg.grants_out += 1
        return seg.npages

    def check_attach(self, segid, offset_pages: int, npages: int):
        """``ATTACH_REQ``: the segment to walk, if the window fits it."""
        seg = self.live(segid)
        if offset_pages < 0 or npages <= 0 or offset_pages + npages > seg.npages:
            raise XememError("attach range outside segment")
        return seg

    def release(self, segid) -> None:
        """``RELEASE_REQ`` or a local release: uncount one grant. A
        release on a removed segment is a no-op (the grant is gone)."""
        seg = self.segments.get(int(segid))
        if seg is not None and seg.grants_out > 0:
            seg.grants_out -= 1

    def _known(self, segid) -> int:
        if int(segid) not in self.segments:
            raise XememError("unknown segid")
        return int(segid)

    def subscribe(self, segid, enclave_id: int) -> None:
        """``NOTIFY_SUBSCRIBE``: ``enclave_id`` hears every signal."""
        subs = self.subscribers.setdefault(self._known(segid), [])
        if enclave_id not in subs:
            subs.append(enclave_id)

    def signal_targets(self, segid) -> List[int]:
        """``SIGNAL_REQ``: the enclaves to notify."""
        return list(self.subscribers.get(self._known(segid), ()))

    def outstanding_grants(self) -> int:
        return sum(seg.grants_out for seg in self.segments.values())

    def forget_subscriber(self, enclave_id: int) -> None:
        for subs in self.subscribers.values():
            if enclave_id in subs:
                subs.remove(enclave_id)

    def clear(self) -> None:
        self.segments.clear()
        self.subscribers.clear()


@dataclass(eq=False)
class Grant:
    """Attacher-side record of an ``xpmem_get`` grant.

    Compared by identity: an attach that finds a different (or no)
    grant under its apid when it finishes knows the grant was
    invalidated while it was mapping."""

    apid: ApId
    segid: SegmentId
    proc: object
    npages: int
    write: bool
    owner_is_local: bool
    released: bool = False


class Attacher:
    """Attacher role: grants, live attachments and SMARTMAP aliases."""

    def __init__(self) -> None:
        self.grants: Dict[int, Grant] = {}
        #: apid -> live attachments made under it; the live count is
        #: the list's length
        self.attachments: Dict[int, list] = {}
        #: (attacher pid, donor pid) -> SMARTMAP aliases in use
        self.smartmap_refs: Dict[Tuple[int, int], int] = {}
        self._apids = itertools.count(1)

    def add_grant(self, enclave_id: int, segid, proc, npages: int,
                  write: bool, owner_is_local: bool) -> ApId:
        apid = ApId((enclave_id << 20) | next(self._apids))
        self.grants[int(apid)] = Grant(
            apid, segid, proc, npages, write, owner_is_local
        )
        return apid

    def grant_of(self, proc, apid) -> Grant:
        grant = self.grants.get(int(apid))
        if grant is None:
            raise XememError(f"unknown {apid!r}")
        if grant.proc is not proc:
            raise XememError(f"{apid!r} belongs to {grant.proc!r}")
        return grant

    @staticmethod
    def window(grant: Grant, offset: int, nbytes: Optional[int]):
        """(offset_pages, npages) of an attach, if it fits the grant."""
        if offset % PAGE_SIZE:
            raise XememError(f"attach offset {offset:#x} not page aligned")
        offset_pages = offset // PAGE_SIZE
        npages = (
            grant.npages - offset_pages
            if nbytes is None
            else -(-nbytes // PAGE_SIZE)
        )
        if offset_pages < 0 or npages <= 0 or offset_pages + npages > grant.npages:
            raise XememError("attach range outside segment")
        return offset_pages, npages

    def live_count(self, apid) -> int:
        return len(self.attachments.get(int(apid), ()))

    def release(self, proc, apid) -> Grant:
        """``xpmem_release``: refused while attachments are mapped."""
        grant = self.grant_of(proc, apid)
        live = self.live_count(apid)
        if live:
            raise XememError(
                f"{apid!r} still has {live} live attachment(s); "
                "xpmem_detach them first"
            )
        grant.released = True
        del self.grants[int(apid)]
        self.attachments.pop(int(apid), None)
        return grant

    def register(self, grant: Grant, attached) -> bool:
        """Record a finished attach. False if the grant was invalidated
        while mapping: the caller tears the attachment down."""
        if self.grants.get(int(grant.apid)) is not grant:
            return False
        self.attachments.setdefault(int(grant.apid), []).append(attached)
        return True

    def detach(self, proc, attached) -> None:
        """``xpmem_detach``: mark the attachment dead and unregister it."""
        if attached.detached:
            raise XememError("already detached")
        if attached.proc is not proc:
            raise XememError("only the attaching process may detach")
        attached.detached = True
        registry = self.attachments.get(int(attached.apid))
        if registry is not None:
            registry[:] = [att for att in registry if att is not attached]

    def smartmap_ref(self, key) -> bool:
        """Take a SMARTMAP alias; True if it is the first (map it)."""
        refs = self.smartmap_refs.get(key, 0)
        self.smartmap_refs[key] = refs + 1
        return refs == 0

    def smartmap_unref(self, key) -> bool:
        """Drop a SMARTMAP alias; True if it was the last (unmap it)."""
        refs = self.smartmap_refs.get(key, 0)
        if refs <= 0:
            raise XememError("SMARTMAP refcount underflow")
        self.smartmap_refs[key] = refs - 1
        return refs == 1

    def remote_grants(self) -> int:
        """Grants held on other enclaves' segments."""
        return sum(1 for g in self.grants.values() if not g.owner_is_local)

    def invalidate(self, dead_segids, pfn_window: Tuple[int, int],
                   match_pfns: bool) -> list:
        """Crash cleanup: unregister every attachment into a dead
        enclave's segments (or, with ``match_pfns``, its physical
        window) and drop the dead segments' grants. Returns the
        attachments, for the caller to unmap."""
        lo, hi = pfn_window
        torn = []
        for apid, grant in list(self.grants.items()):
            if grant.owner_is_local:
                continue
            dead = int(grant.segid) in dead_segids
            registry = self.attachments.get(apid, [])
            keep = []
            for att in registry:
                pfns = att.local_pfns
                in_window = (
                    match_pfns and pfns is not None and len(pfns) > 0
                    and lo <= int(pfns[0]) < hi
                )
                (torn if dead or in_window else keep).append(att)
            registry[:] = keep
            if dead:
                del self.grants[apid]
                self.attachments.pop(apid, None)
        return torn

    def clear(self) -> None:
        """Forget every grant; apids restart from 1 on a re-join."""
        self.grants.clear()
        self.attachments.clear()
        self.smartmap_refs.clear()
        self._apids = itertools.count(1)
