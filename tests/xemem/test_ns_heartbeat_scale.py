"""Regression: the name server's lease sweep must be O(expired), not
O(tracked).

The expiry index (a lazy min-heap over (stamp, enclave_id)) exists so a
name server tracking tens of thousands of enclaves pays only for the
leases that actually lapsed. These tests pin the semantics the index
must keep — repeatable queries, supersession by newer beacons, zombie
rejection — and the scaling shape itself, by counting heap pops via a
probe subclass at 10k tracked enclaves."""

from repro.xemem.nameserver import NameServer

LEASE_NS = 1_000


def tracked_ns(n, stamp_ns=0):
    ns = NameServer()
    for eid in range(1, n + 1):
        ns.note_heartbeat(eid, stamp_ns)
    return ns


def test_expired_is_sorted_and_repeatable():
    ns = tracked_ns(50)
    ns.note_heartbeat(7, 5_000)   # fresh beacon supersedes the stamp-0 one
    ns.note_heartbeat(13, 5_000)
    expired = ns.expired_enclaves(now_ns=5_000, lease_ns=LEASE_NS)
    assert expired == sorted(set(range(1, 51)) - {7, 13})
    # the query must be repeatable until gc_enclave retires the losers
    assert ns.expired_enclaves(now_ns=5_000, lease_ns=LEASE_NS) == expired
    for eid in expired:
        ns.gc_enclave(eid)
    assert ns.expired_enclaves(now_ns=5_000, lease_ns=LEASE_NS) == []


def test_zombie_beacons_do_not_resurrect():
    ns = tracked_ns(3)
    ns.gc_enclave(2)
    ns.note_heartbeat(2, 9_000)  # a beacon from an already-GC'd enclave
    assert 2 not in ns.last_heartbeat_ns
    assert ns.expired_enclaves(now_ns=20_000, lease_ns=LEASE_NS) == [1, 3]


class PopCountingNameServer(NameServer):
    """Probe: counts entries the sweep actually pops off the index."""

    def __init__(self):
        super().__init__()
        self.pops = 0

    def expired_enclaves(self, now_ns, lease_ns):
        heap = self._expiry_heap
        before = len(heap)
        result = super().expired_enclaves(now_ns, lease_ns)
        # re-pushed survivors are exactly the expired set
        self.pops += before - len(heap) + len(result)
        return result


def test_sweep_cost_is_o_expired_at_10k_enclaves():
    n = 10_000
    ns = PopCountingNameServer()
    for eid in range(1, n + 1):
        ns.note_heartbeat(eid, 0)
    # everyone re-beacons except 5 victims: 5 fresh stamps supersede
    victims = [17, 404, 4_096, 7_777, 9_999]
    for eid in range(1, n + 1):
        if eid not in victims:
            ns.note_heartbeat(eid, 10_000)

    expired = ns.expired_enclaves(now_ns=10_000, lease_ns=LEASE_NS)
    assert expired == victims
    # the sweep popped the stale stamp-0 generation (once, lazily) plus
    # the victims — never the 10k live stamp-10000 entries
    assert ns.pops <= n + len(victims)
    live_entries = sum(1 for stamp, _ in ns._expiry_heap if stamp == 10_000)
    assert live_entries == n - len(victims)

    # a second sweep is O(expired) outright: the stale generation is gone
    ns.pops = 0
    assert ns.expired_enclaves(now_ns=10_000, lease_ns=LEASE_NS) == victims
    assert ns.pops == len(victims)

    # GC of one victim touches only what it owned
    for eid in victims:
        ns.gc_enclave(eid)
    ns.pops = 0
    assert ns.expired_enclaves(now_ns=10_000, lease_ns=LEASE_NS) == []
    assert ns.pops <= 2 * len(victims)  # at most the victims' dead entries


def test_restart_grace_rebuilds_the_index():
    ns = tracked_ns(100)
    ns.restart(now_ns=50_000, outage_ns=0)
    # nothing expires against the recovery stamp
    assert ns.expired_enclaves(now_ns=50_500, lease_ns=LEASE_NS) == []
    # the rebuilt index is exactly one entry per tracked enclave
    assert len(ns._expiry_heap) == 100
    assert ns.expired_enclaves(now_ns=60_000, lease_ns=LEASE_NS) == list(
        range(1, 101)
    )


def test_gc_uses_owner_index():
    ns = NameServer()
    for eid in (1, 2):
        for k in range(3):
            ns.alloc_segid(eid, npages=1, name=f"seg/{eid}/{k}")
    assert len(ns.segids_of(1)) == 3
    purged = ns.gc_enclave(1)
    assert len(purged) == 3
    assert ns.segids_of(1) == []
    assert len(ns.segids_of(2)) == 3
    assert ns.live_segments == 3
