"""The centralized XEMEM name server (paper §3.1, §4.2).

One instance lives inside the XEMEM module of the designated name-server
enclave. It is the single authority for:

* **enclave IDs** — allocated during topology discovery (§3.2);
* **segids** — globally unique segment identifiers, so no two enclaves
  can ever collide regardless of local pid/address reuse;
* **the segid→owner map** — used to re-address segment commands to the
  owning enclave;
* **discoverability** — optional human-readable names attached to
  segments, queryable by any process on any enclave ("the name server
  can be queried for information regarding the existence and names of
  shared memory regions").

It also decides the service's life cycle and overload behaviour: the
restart outage window, the lease sweep, a restart that loses the
service's own replay cache, and the degradation :class:`Ladder`.

It is engine-free protocol core, like :mod:`repro.xemem.core`: the
hosting :class:`~repro.xemem.module.XememModule` routes the name-server
commands here and does the sending and counting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.xemem import commands as C
from repro.xemem.core import ReplayCache
from repro.xemem.ids import SEGID_BASE, SegmentId, XememError

#: :meth:`Ladder.verdict`'s answers: queue the command for admission,
#: refuse it, or answer a lookup from the stale-bounded cache.
ADMIT = "admit"
SHED = "shed"
STALE = "stale"


@dataclass
class SegidRecord:
    """One registered segment: owner enclave, span, optional name."""
    segid: SegmentId
    owner_enclave_id: int
    npages: int
    name: Optional[str] = None


@dataclass
class Ladder:
    """The name server's degradation ladder (docs/OVERLOAD.md).

    The level follows the admission controller's fill. Level 1 sheds
    discovery (lookup/list) before attach; a lookup may still be
    answered from a stale-bounded cache without consuming a serve slot.
    Level 2 also defers the lease sweep (:meth:`NameServer.sweep_leases`).
    Release-class traffic is never shed here. ``cfg`` is an
    ``OverloadConfig``; only its ladder thresholds and TTL are read.
    """

    level: int = 0
    level_transitions: int = 0
    #: name -> (segid, cached_at_ns), fed by remotely served lookups
    lookup_cache: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    stale_hits: int = 0
    gc_deferred: int = 0

    def refresh(self, fill: float, cfg) -> int:
        """Set the level from the controller ``fill``; returns the level
        it replaced."""
        old = self.level
        if fill >= cfg.defer_gc_fill:
            self.level = 2
        elif fill >= cfg.shed_discovery_fill:
            self.level = 1
        else:
            self.level = 0
        if self.level != old:
            self.level_transitions += 1
        return old

    def remember(self, name: str, segid: Optional[int], now_ns: int) -> None:
        """Cache a served lookup's answer for later stale answers."""
        if segid is not None:
            self.lookup_cache[name] = (segid, now_ns)

    def verdict(self, kind: str, payload: dict, now_ns: int,
                cfg) -> Tuple[str, Optional[int]]:
        """The verdict on one name-server command at the current level:
        ``(ADMIT, None)``, ``(SHED, None)`` or ``(STALE, segid)``."""
        if self.level < 1 or kind not in (C.LOOKUP_NAME, C.LIST_NAMES):
            return ADMIT, None
        if kind == C.LOOKUP_NAME:
            cached = self.lookup_cache.get(payload.get("name"))
            if cached is not None and now_ns - cached[1] <= cfg.stale_lookup_ttl_ns:
                self.stale_hits += 1
                return STALE, cached[0]
        return SHED, None


class NameServer:
    """Authoritative state; all methods are pure bookkeeping (no sim time —
    the message round trips to reach the server carry the cost)."""

    def __init__(self) -> None:
        self._next_enclave_id = 1  # the name server's own enclave is 0
        self._next_segid = SEGID_BASE
        self.segids: Dict[int, SegidRecord] = {}
        self._names: Dict[str, int] = {}
        # -- failure detection (fault-injection extension) --
        #: enclave id -> virtual time of its last heartbeat beacon
        self.last_heartbeat_ns: Dict[int, int] = {}
        #: lazy min-heap of (last_hb_ns, enclave_id): the expiry index
        #: that makes lease sweeps O(expired) instead of O(tracked).
        #: Superseded entries (a newer beacon re-stamped the enclave) stay
        #: in the heap and are discarded when popped.
        self._expiry_heap: List[Tuple[int, int]] = []
        #: owner enclave id -> set of owned segids, so :meth:`gc_enclave`
        #: never scans the whole segid table.
        self._segids_by_owner: Dict[int, set] = {}
        #: enclave ids garbage-collected after crash / lease expiry
        self.retired_enclaves: set = set()
        #: segids whose owner was garbage-collected (distinct error text
        #: lets requesters distinguish "never existed" from "owner died")
        self._retired_segids: set = set()
        # -- the service around the tables --
        #: responses to the commands the service answers itself; volatile
        #: (a restart loses it), unlike the owner-side cache of its module
        self.replay = ReplayCache()
        #: restart outage: every name-server command is dropped until then
        self.down_until = 0
        self.ladder = Ladder()

    # -- service life cycle ------------------------------------------------------

    def down(self, now_ns: int) -> bool:
        """True inside a restart's outage window; requesters' retries
        carry them past it."""
        return self.down_until > now_ns

    def restart(self, now_ns: int, outage_ns: int) -> None:
        """A service restart: down for ``outage_ns``, and the volatile
        replay cache is lost. Registrations (the segid map) persist — the
        paper's name server lives in the management enclave whose state
        survives a service restart. Leases restart from the recovery time
        so a momentarily-silent enclave is not GC'd by the outage itself."""
        self.down_until = now_ns + outage_ns
        self.replay.clear()
        for eid in self.last_heartbeat_ns:
            self.last_heartbeat_ns[eid] = self.down_until
        # rebuild the expiry index in one shot; the old entries are all
        # superseded and would only be popped to be discarded
        self._expiry_heap = [
            (self.down_until, eid) for eid in sorted(self.last_heartbeat_ns)
        ]
        heapq.heapify(self._expiry_heap)  # repro: noqa[REP006] reason=expiry index over (stamp_ns, enclave_id) int pairs, a data structure, not event scheduling; ordering is total so iteration is deterministic

    # -- enclave ids -----------------------------------------------------------

    def alloc_enclave_id(self) -> int:
        """Hand out the next enclave ID (discovery protocol)."""
        eid = self._next_enclave_id
        self._next_enclave_id += 1
        return eid

    # -- segids ------------------------------------------------------------------

    def alloc_segid(self, owner_enclave_id: int, npages: int,
                    name: Optional[str] = None) -> SegmentId:
        """Register a new globally unique segid for ``owner_enclave_id``."""
        if npages <= 0:
            raise XememError(f"segment must span at least one page, got {npages}")
        if name is not None:
            if name in self._names:
                raise XememError(f"segment name {name!r} already registered")
        segid = SegmentId(self._next_segid)
        self._next_segid += 1
        self.segids[int(segid)] = SegidRecord(segid, owner_enclave_id, npages, name)
        self._segids_by_owner.setdefault(owner_enclave_id, set()).add(int(segid))
        if name is not None:
            self._names[name] = int(segid)
        return segid

    def owner_of(self, segid: int) -> int:
        """The enclave ID owning ``segid``; raises XememError if unknown."""
        rec = self.segids.get(int(segid))
        if rec is None:
            if int(segid) in self._retired_segids:
                raise XememError(
                    f"segid {int(segid):#x} retired "
                    "(owner crashed or lease expired)"
                )
            raise XememError(f"unknown segid {int(segid):#x}")
        return rec.owner_enclave_id

    def route(self, segid: int, release: bool = False) -> Optional[int]:
        """The owner a segid-addressed command is forwarded to. A release
        of an unknown or retired segid resolves to None: the grant is
        gone either way, so the name server answers it ok (idempotent)."""
        try:
            return self.owner_of(segid)
        except XememError:
            if release:
                return None
            raise

    def remove_segid(self, segid: int, enclave_id: int) -> bool:
        """Retire a segid; only its owner enclave may do so. Returns
        False if it was already retired with its crashed owner."""
        rec = self.segids.get(int(segid))
        if rec is None:
            if int(segid) in self._retired_segids:
                return False  # already GC'd with its crashed owner: idempotent
            raise XememError(f"unknown segid {int(segid):#x}")
        if rec.owner_enclave_id != enclave_id:
            raise XememError(
                f"enclave {enclave_id} does not own segid {int(segid):#x}"
            )
        del self.segids[int(segid)]
        owned = self._segids_by_owner.get(rec.owner_enclave_id)
        if owned is not None:
            owned.discard(int(segid))
        if rec.name is not None:
            self._names.pop(rec.name, None)
        return True

    def depart(self, enclave_id: int) -> int:
        """``ENCLAVE_DEPART``: retire every segid the enclave owns;
        returns how many."""
        purged = self.segids_of(enclave_id)
        for sid in purged:
            self.remove_segid(sid, enclave_id)
        return len(purged)

    def segids_of(self, owner_enclave_id: int) -> list:
        """Sorted segids currently owned by ``owner_enclave_id``
        (O(owned) via the per-owner index)."""
        return sorted(self._segids_by_owner.get(owner_enclave_id, ()))

    def lookup_name(self, name: str) -> Optional[int]:
        """Discoverability: segid registered under ``name``, or None."""
        return self._names.get(name)

    def list_names(self, prefix: str = "") -> Dict[str, int]:
        """Discoverability: every registered name (optionally filtered by
        prefix) with its segid — "the existence and names of shared
        memory regions" (§3.1)."""
        return {
            name: segid
            for name, segid in sorted(self._names.items())
            if name.startswith(prefix)
        }

    def serve(self, kind: str, p: dict) -> Tuple[dict, Optional[str], int]:
        """One command the name server answers itself, from a remote
        payload or its own enclave's call: the response fields, and the
        counter to bump by how much."""
        if kind == C.ALLOC_SEGID:
            segid = self.alloc_segid(p["src"], p["npages"], p.get("name"))
            return {"segid": int(segid)}, "xemem.ns.segids_allocated", 1
        if kind == C.REMOVE_SEGID:
            removed = self.remove_segid(p["segid"], p["src"])
            return {"ok": True}, "xemem.ns.segids_removed", int(removed)
        if kind == C.LOOKUP_NAME:
            return {"segid": self.lookup_name(p["name"])}, "xemem.ns.lookups", 1
        if kind == C.LIST_NAMES:
            return {"names": self.list_names(p.get("prefix", ""))}, None, 0
        if kind == C.ENCLAVE_DEPART:
            # routing entries are purged by EnclaveSystem.shutdown_enclave
            # once the ack has been delivered (the ack still needs them)
            purged = self.depart(p["src"])
            return {"purged_segids": purged}, "xemem.ns.segids_removed", purged
        raise XememError(f"name server cannot handle {kind!r}")

    # -- failure detection (fault-injection extension) ---------------------------

    def note_heartbeat(self, enclave_id: Optional[int], now_ns: int) -> None:
        """Record a liveness beacon from ``enclave_id``."""
        if enclave_id is None or enclave_id in self.retired_enclaves:
            return  # unsigned, or a zombie beacon from an already-GC'd enclave
        self.last_heartbeat_ns[int(enclave_id)] = int(now_ns)
        heapq.heappush(self._expiry_heap, (int(now_ns), int(enclave_id)))  # repro: noqa[REP006] reason=expiry index over (stamp_ns, enclave_id) int pairs, a data structure, not event scheduling; ordering is total so iteration is deterministic

    def expired_enclaves(self, now_ns: int, lease_ns: int) -> list:
        """Tracked enclaves whose lease has lapsed (sorted for determinism).

        O(expired + stale) via the expiry heap, not O(tracked): only heap
        entries older than the lease window are popped. Entries a newer
        beacon superseded are discarded as encountered; truly expired
        enclaves are re-pushed so the query stays repeatable until
        :meth:`gc_enclave` retires them.
        """
        expired: set = set()
        heap = self._expiry_heap
        while heap and heap[0][0] + lease_ns < now_ns:
            stamp, eid = heapq.heappop(heap)  # repro: noqa[REP006] reason=expiry index over (stamp_ns, enclave_id) int pairs, a data structure, not event scheduling; ordering is total so iteration is deterministic
            current = self.last_heartbeat_ns.get(eid)
            if current is None or current != stamp or eid in expired:
                continue  # retired, superseded, or a duplicate entry
            expired.add(eid)
        result = sorted(expired)
        for eid in result:
            heapq.heappush(heap, (self.last_heartbeat_ns[eid], eid))  # repro: noqa[REP006] reason=expiry index over (stamp_ns, enclave_id) int pairs, a data structure, not event scheduling; ordering is total so iteration is deterministic
        return result

    def sweep_leases(self, now_ns: int, lease_ns: int,
                     level: int) -> Optional[list]:
        """The enclaves a lease sweep at ladder ``level`` GCs now: every
        one whose lease has expired.

        Deferred (None) at level 2: under pressure the sweep's
        bookkeeping yields its cycles to the serving hot path; the next
        sweep below the threshold catches up (leases only get *more*
        expired)."""
        if level >= 2:
            self.ladder.gc_deferred += 1
            return None
        return self.expired_enclaves(now_ns, lease_ns)

    def gc_enclave(self, enclave_id: int) -> list:
        """Purge everything a dead enclave owned; returns its segids.

        Purged segids move to the retired set so later requests get a
        crash-specific error and retried removals are idempotent.
        O(owned segids) via the per-owner index — GC of one dead enclave
        never scans every registration on the system.
        """
        purged = sorted(self._segids_by_owner.pop(enclave_id, ()))
        for sid in purged:
            rec = self.segids.pop(sid)
            if rec.name is not None:
                self._names.pop(rec.name, None)
            self._retired_segids.add(sid)
        self.retired_enclaves.add(enclave_id)
        self.last_heartbeat_ns.pop(int(enclave_id), None)
        return purged

    @property
    def live_segments(self) -> int:
        """Number of currently registered segments."""
        return len(self.segids)
