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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.xemem.ids import SEGID_BASE, SegmentId, XememError


@dataclass
class SegidRecord:
    """One registered segment: owner enclave, span, optional name."""
    segid: SegmentId
    owner_enclave_id: int
    npages: int
    name: Optional[str] = None


class NameServer:
    """Authoritative state; all methods are pure bookkeeping (no sim time —
    the message round trips to reach the server carry the cost)."""

    def __init__(self) -> None:
        self._next_enclave_id = 1  # the name server's own enclave is 0
        self._next_segid = SEGID_BASE
        self.segids: Dict[int, SegidRecord] = {}
        self._names: Dict[str, int] = {}
        #: enclave id -> channel, maintained by the NS enclave's module.
        self.stats = {"segids_allocated": 0, "lookups": 0, "removed": 0}
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

    # -- enclave ids -----------------------------------------------------------

    def alloc_enclave_id(self) -> int:
        """Hand out the next enclave ID (discovery protocol)."""
        eid = self._next_enclave_id
        self._next_enclave_id += 1
        obs.get().counter("xemem.ns.enclave_ids").inc()
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
        self.stats["segids_allocated"] += 1
        obs.get().counter("xemem.ns.segids_allocated").inc()
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

    def remove_segid(self, segid: int, enclave_id: int) -> None:
        """Retire a segid; only its owner enclave may do so."""
        rec = self.segids.get(int(segid))
        if rec is None:
            if int(segid) in self._retired_segids:
                return  # already GC'd with its crashed owner: idempotent
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
        self.stats["removed"] += 1
        obs.get().counter("xemem.ns.segids_removed").inc()

    def segids_of(self, owner_enclave_id: int) -> list:
        """Sorted segids currently owned by ``owner_enclave_id``
        (O(owned) via the per-owner index)."""
        return sorted(self._segids_by_owner.get(owner_enclave_id, ()))

    def lookup_name(self, name: str) -> Optional[int]:
        """Discoverability: segid registered under ``name``, or None."""
        self.stats["lookups"] += 1
        obs.get().counter("xemem.ns.lookups").inc()
        return self._names.get(name)

    def list_names(self, prefix: str = "") -> Dict[str, int]:
        """Discoverability: every registered name (optionally filtered by
        prefix) with its segid — "the existence and names of shared
        memory regions" (§3.1)."""
        self.stats["lookups"] += 1
        return {
            name: segid
            for name, segid in sorted(self._names.items())
            if name.startswith(prefix)
        }

    # -- failure detection (fault-injection extension) ---------------------------

    def note_heartbeat(self, enclave_id: int, now_ns: int) -> None:
        """Record a liveness beacon from ``enclave_id``."""
        if enclave_id in self.retired_enclaves:
            return  # a zombie beacon from an already-GC'd enclave
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
            self.stats["removed"] += 1
        self.retired_enclaves.add(enclave_id)
        self.last_heartbeat_ns.pop(int(enclave_id), None)
        if purged:
            obs.get().counter("xemem.ns.segids_removed").inc(len(purged))
        return purged

    def restart_grace(self, now_ns: int) -> None:
        """After a name-server restart: re-stamp every lease from the
        recovery time, so the outage itself never expires a live enclave."""
        for eid in self.last_heartbeat_ns:
            self.last_heartbeat_ns[eid] = int(now_ns)
        # rebuild the expiry index in one shot; the old entries are all
        # superseded and would only be popped to be discarded
        self._expiry_heap = [
            (int(now_ns), eid) for eid in sorted(self.last_heartbeat_ns)
        ]
        heapq.heapify(self._expiry_heap)  # repro: noqa[REP006] reason=expiry index over (stamp_ns, enclave_id) int pairs, a data structure, not event scheduling; ordering is total so iteration is deterministic

    @property
    def live_segments(self) -> int:
        """Number of currently registered segments."""
        return len(self.segids)
