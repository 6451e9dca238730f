"""Engine-free state machine: the XEMEM protocol core against a model.

Hypothesis drives the core role objects directly — the name server, and
per enclave a segment owner, an attacher and a replay cache — through
make/remove, get (read-only and writable permits), attach (the window
checks on both sides), detach, release, subscribe/signal, departure,
crash-time invalidation and retried or overload-rejected requests. The
name-server service runs beside them on a virtual clock: heartbeats and
lease sweeps, restarts with their outage window, and the degradation
ladder in front of remotely served lookups. No engine, rig or channel
is built: :class:`Driver` does what ``XememModule`` does around each
core call, minus the messages.

:class:`Model` is an independent pure-Python account of the same
semantics (it imports nothing from ``repro.xemem``). After every step
the outcome — a result or an error class — must match, and so must the
grant, live-attachment and SMARTMAP tables.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.xemem import commands as C
from repro.xemem.core import IN_SERVICE, Attacher, ReplayCache, SegmentOwner
from repro.xemem.ids import Permit, PermissionError_, XememError, XememOverload
from repro.xemem.nameserver import ADMIT, SHED, STALE, NameServer
from repro.xemem.shmem import ExportedSegment

ENCLAVES = (0, 1, 2)
#: Local attaches on this enclave alias through SMARTMAP (a Kitten).
KITTEN = 1
PAGE = 4096
#: Each enclave's physical frames: [eid * FRAMES, (eid + 1) * FRAMES).
FRAMES = 1000

#: Enclaves that only beacon and register segids at the name server:
#: the lease sweep may GC them without touching the enclaves above.
BEACONERS = (5, 6)
LEASE = 1_000
#: The ladder's thresholds (an ``OverloadConfig``'s, by duck type).
LADDER = SimpleNamespace(shed_discovery_fill=0.5, defer_gc_fill=0.75,
                         stale_lookup_ttl_ns=300)

eids = st.sampled_from(ENCLAVES)
beaconers = st.sampled_from(BEACONERS)
#: Clock steps: one reaches the stale TTL exactly, two the lease.
ticks = st.sampled_from([0, 300, 700, 1_500])
fills = st.sampled_from([0.0, 0.25, 0.5, 0.6, 0.75, 1.0])
modes = st.sampled_from([0o666, 0o644, 0o600])
names = st.sampled_from([None, None, "a", "b"])

#: Error class by name, to re-raise a replayed response's error.
ERRORS = {cls.__name__: cls for cls in (XememError, PermissionError_, XememOverload)}


def outcome(call):
    """("ok", result) or ("err", error class name)."""
    try:
        return ("ok", call())
    except XememError as err:
        return ("err", type(err).__name__)


class Proc:
    """A process handle: identity plus the pid SMARTMAP keys on."""

    def __init__(self, pid):
        self.pid = pid


class Driver:
    """The core objects, called in the order the module's shell calls
    them, with messages replaced by direct calls."""

    def __init__(self):
        self.ns = NameServer()
        self.owner = {e: SegmentOwner() for e in ENCLAVES}
        self.attacher = {e: Attacher() for e in ENCLAVES}
        self.replay = {e: ReplayCache() for e in ENCLAVES}
        self.exporter = {e: Proc(10 * e) for e in ENCLAVES}
        self.user = {e: Proc(10 * e + 1) for e in ENCLAVES}
        self.clock = 0

    # -- the name-server service, as the module's NS path drives it --

    def heartbeat(self, e):
        """An ``ENCLAVE_HEARTBEAT``; False if the outage dropped it."""
        if self.ns.down(self.clock):
            return False
        self.ns.note_heartbeat(e, self.clock)
        return True

    def sweep(self, fill):
        """A lease sweep at the level ``fill`` sets: the GC'd enclaves,
        or None when the ladder defers the sweep."""
        self.ns.ladder.refresh(fill, LADDER)
        expired = self.ns.sweep_leases(self.clock, LEASE, self.ns.ladder.level)
        if expired is not None:
            for e in expired:
                self.ns.gc_enclave(e)
        return expired

    def register(self, e, name):
        fields, _counter, _n = self.ns.serve(
            C.ALLOC_SEGID, {"src": e, "npages": 1, "name": name})
        return fields["segid"]

    def ns_request(self, kind, payload, req_id, fill):
        """A name-server command through the outage window, the ladder and
        the service's replay cache: ("dropped"|"shed"|"stale"|"ok", result)."""
        if self.ns.down(self.clock):
            return ("dropped", None)
        ladder = self.ns.ladder
        ladder.refresh(fill, LADDER)
        verdict, segid = ladder.verdict(kind, payload, self.clock, LADDER)
        if verdict == STALE:
            return ("stale", segid)
        if verdict == SHED:
            return ("shed", None)
        assert verdict == ADMIT
        seen = self.ns.replay.admit(req_id)
        if seen is not None:
            return seen
        fields, _counter, _n = self.ns.serve(kind, payload)
        if kind == C.LOOKUP_NAME:
            ladder.remember(payload["name"], fields["segid"], self.clock)
        result = ("ok", fields.get("segid", fields.get("names")))
        self.ns.replay.record(req_id, result, keep=True)
        return result

    def make(self, e, npages, mode, name):
        segid = self.ns.alloc_segid(e, npages, name)
        seg = ExportedSegment(segid, self.exporter[e], 0, npages, Permit(mode), name)
        self.owner[e].export(seg)
        return int(segid)

    def remove(self, e, seg, by_exporter):
        proc = self.exporter[e] if by_exporter else self.user[e]
        self.owner[e].retire(proc, seg)
        self.ns.remove_segid(int(seg.segid), e)

    def serve_get(self, req_id, segid, write):
        """GET_REQ at the owner behind its replay cache (dedup on)."""
        owner = self.ns.route(segid)
        cache = self.replay[owner]
        seen = cache.admit(req_id)
        if seen is IN_SERVICE:
            return seen
        if seen is not None:
            return seen["result"]
        result = outcome(lambda: self.owner[owner].grant(segid, write))
        cache.record(req_id, {"result": result}, keep=True)
        return result

    def reject_get(self, req_id, segid):
        """An overload rejection of a GET_REQ before it is admitted."""
        owner = self.ns.route(segid)
        self.replay[owner].record(req_id, {"result": ("err", "XememOverload")},
                                  keep=True, rejected=True)

    def get(self, e, segid, write, req_id):
        if self.owner[e].owns(segid):
            npages = self.owner[e].grant(segid, write, proc=self.user[e])
            local = True
        else:
            status, value = self.serve_get(req_id, segid, write)
            if status == "err":
                raise ERRORS[value](value)
            npages, local = value, False
        return int(self.attacher[e].add_grant(
            e, segid, self.user[e], npages, write, owner_is_local=local))

    def attach(self, e, apid, offset, nbytes):
        grant = self.attacher[e].grant_of(self.user[e], apid)
        offset_pages, npages = Attacher.window(grant, offset, nbytes)
        segid = int(grant.segid)
        if grant.owner_is_local:
            seg = self.owner[e].live(segid)
            if e == KITTEN:
                self.attacher[e].smartmap_ref((self.user[e].pid, seg.proc.pid))
                att = SimpleNamespace(apid=grant.apid, proc=self.user[e],
                                      kind="smartmap", donor=seg.proc,
                                      local_pfns=None, detached=False)
            else:
                att = SimpleNamespace(apid=grant.apid, proc=self.user[e],
                                      kind="linux-lazy", local_pfns=None,
                                      detached=False)
        else:
            owner = self.ns.route(segid)
            self.owner[owner].check_attach(segid, offset_pages, npages)
            pfns = np.arange(npages, dtype=np.int64) + owner * FRAMES + offset_pages
            att = SimpleNamespace(apid=grant.apid, proc=self.user[e], kind="remote",
                                  local_pfns=pfns, detached=False)
        assert self.attacher[e].register(grant, att)
        return att

    def detach(self, e, att):
        self.attacher[e].detach(self.user[e], att)
        if att.kind == "smartmap":
            self.attacher[e].smartmap_unref((self.user[e].pid, att.donor.pid))

    def release(self, e, apid):
        grant = self.attacher[e].release(self.user[e], apid)
        if grant.owner_is_local:
            self.owner[e].release(grant.segid)
            return
        owner = self.ns.route(int(grant.segid), release=True)
        if owner is not None:
            self.owner[owner].release(grant.segid)

    def subscribe(self, e, segid):
        if self.owner[e].owns(segid):
            return
        self.owner[self.ns.route(segid)].subscribe(segid, e)

    def signal(self, e, segid):
        owner = e if self.owner[e].owns(segid) else self.ns.route(segid)
        return self.owner[owner].signal_targets(segid)

    def depart(self, e):
        if self.owner[e].outstanding_grants() or self.attacher[e].remote_grants():
            raise XememError("detach/release first (or force)")
        purged = self.ns.depart(e)
        self.owner[e].clear()
        self.attacher[e].clear()
        self.replay[e].clear()
        return purged

    def crash(self, e):
        """PiscesManager.crash_enclave's sequence, with a notified NS."""
        dead = set(self.ns.segids_of(e))
        self.owner[e].clear()
        self.attacher[e].clear()
        self.replay[e].clear()
        torn = 0
        for other in ENCLAVES:
            if other == e:
                continue
            for att in self.attacher[other].invalidate(
                    dead, (e * FRAMES, (e + 1) * FRAMES), match_pfns=True):
                att.detached = True
                torn += 1
            self.owner[other].forget_subscriber(e)
        self.ns.gc_enclave(e)
        return torn


class Model:
    """XEMEM's user-visible semantics, written from PAPER.md §3–4 and
    docs/PROTOCOL.md, sharing no code with the core."""

    SEGID_BASE = 0x1000

    def __init__(self):
        self.next_segid = self.SEGID_BASE
        self.segs = {}        # segid -> dict
        self.names = {}       # name -> segid
        self.grants = {e: {} for e in ENCLAVES}   # apid -> dict
        self.next_apid = {e: 1 for e in ENCLAVES}
        self.atts = {}        # att id -> dict
        self.smartmap = {}    # (eid, donor eid) -> refs
        self.subs = {}        # segid -> [eid]
        self.served = {e: {} for e in ENCLAVES}   # req_id -> result
        self.crashed = set()
        # -- the name-server service --
        self.clock = 0
        self.down_until = 0
        self.last_hb = {}        # beaconer -> stamp of its last lease renewal
        self.gone = set()        # beaconers the lease sweep collected
        self.beacon_segs = {}    # segid -> beaconer, while registered
        self.ns_served = {}      # req_id -> result, lost on restart
        self.level = 0
        self.transitions = 0
        self.cache = {}          # name -> (segid, stamp), remote lookups only
        self.stale_hits = 0
        self.deferred = 0

    @staticmethod
    def err(kind="XememError"):
        return ("err", kind)

    def routable(self, segid):
        seg = self.segs.get(segid)
        return seg is not None and not seg["removed"]

    def make(self, e, npages, mode, name):
        if name is not None and name in self.names:
            return self.err()
        segid = self.next_segid
        self.next_segid += 1
        self.segs[segid] = dict(owner=e, npages=npages, mode=mode, name=name,
                                removed=False, grants_out=0)
        if name is not None:
            self.names[name] = segid
        return ("ok", segid)

    def remove(self, e, segid, by_exporter):
        seg = self.segs[segid]
        if not by_exporter or seg["removed"]:
            return self.err()
        seg["removed"] = True
        self.names.pop(seg["name"], None)
        return ("ok", None)

    def permit(self, seg, write):
        mode = seg["mode"]
        return bool(mode & 0o004) and (not write or bool(mode & 0o002))

    def grant_at_owner(self, segid, write):
        seg = self.segs[segid]
        if seg["removed"]:
            return self.err()
        if not self.permit(seg, write):
            return self.err("PermissionError_")
        seg["grants_out"] += 1
        return ("ok", seg["npages"])

    def serve_get(self, req_id, segid, write):
        owner = self.segs[segid]["owner"]
        if req_id in self.served[owner]:
            return self.served[owner][req_id]
        result = self.grant_at_owner(segid, write)
        self.served[owner][req_id] = result
        return result

    def get(self, e, segid, write, req_id):
        seg = self.segs[segid]
        if not self.routable(segid):
            return self.err()
        local = seg["owner"] == e
        result = (self.grant_at_owner(segid, write) if local
                  else self.serve_get(req_id, segid, write))
        if result[0] == "err":
            return result
        apid = (e << 20) | self.next_apid[e]
        self.next_apid[e] += 1
        self.grants[e][apid] = dict(segid=segid, npages=result[1], write=write,
                                    local=local, live=0)
        return ("ok", apid)

    def attach(self, e, apid, offset, nbytes, key):
        grant = self.grants[e].get(apid)
        if grant is None or offset % PAGE:
            return self.err()
        first = offset // PAGE
        npages = grant["npages"] - first if nbytes is None else -(-nbytes // PAGE)
        if npages <= 0 or first + npages > grant["npages"]:
            return self.err()
        segid = grant["segid"]
        if not self.routable(segid):
            return self.err()
        owner = self.segs[segid]["owner"]
        smartmap = grant["local"] and e == KITTEN
        if smartmap:
            pair = (e, owner)
            self.smartmap[pair] = self.smartmap.get(pair, 0) + 1
        grant["live"] += 1
        self.atts[key] = dict(eid=e, apid=apid, owner=owner, segid=segid,
                              smartmap=smartmap, detached=False)
        return ("ok", None)

    def detach(self, key):
        att = self.atts[key]
        if att["detached"]:
            return self.err()
        att["detached"] = True
        grant = self.grants[att["eid"]].get(att["apid"])
        if grant is not None:
            grant["live"] -= 1
        if att["smartmap"]:
            self.smartmap[(att["eid"], att["owner"])] -= 1
        return ("ok", None)

    def release(self, e, apid):
        grant = self.grants[e].get(apid)
        if grant is None or grant["live"]:
            return self.err()
        del self.grants[e][apid]
        seg = self.segs[grant["segid"]]
        # releasing a grant on a segment that is gone is fine: the
        # grant is gone either way
        if not seg["removed"] and seg["grants_out"] > 0:
            seg["grants_out"] -= 1
        return ("ok", None)

    def subscribe(self, e, segid):
        if not self.routable(segid):
            return self.err()
        owner = self.segs[segid]["owner"]
        if owner != e:
            subs = self.subs.setdefault(segid, [])
            if e not in subs:
                subs.append(e)
        return ("ok", None)

    def signal(self, e, segid):
        if not self.routable(segid):
            return self.err()
        return ("ok", list(self.subs.get(segid, [])))

    def held_remote(self, e):
        return sum(1 for g in self.grants[e].values() if not g["local"])

    def depart(self, e):
        owned = [s for s, seg in self.segs.items()
                 if seg["owner"] == e and not seg["removed"]]
        if sum(self.segs[s]["grants_out"] for s in owned) or self.held_remote(e):
            return self.err()
        for s in owned:
            self.remove(e, s, by_exporter=True)
        self.forget(e)
        return ("ok", len(owned))

    def forget(self, e):
        """Everything an enclave knew as owner and attacher goes."""
        for s, seg in self.segs.items():
            if seg["owner"] == e:
                self.subs.pop(s, None)
        self.grants[e] = {}
        self.next_apid[e] = 1
        self.served[e] = {}
        for key, att in self.atts.items():
            if att["eid"] == e:
                att["detached"] = True
        self.smartmap = {k: v for k, v in self.smartmap.items() if k[0] != e}

    def crash(self, e):
        self.crashed.add(e)
        dead = {s for s, seg in self.segs.items()
                if seg["owner"] == e and not seg["removed"]}
        for s in dead:
            self.remove(e, s, by_exporter=True)
        self.forget(e)
        torn = 0
        for key, att in self.atts.items():
            # survivors lose every mapping of the dead enclave's frames;
            # grants on its live segments go too
            if att["owner"] == e and att["eid"] != e and not att["detached"]:
                att["detached"] = True
                torn += 1
                grant = self.grants[att["eid"]].get(att["apid"])
                if grant is not None:
                    grant["live"] -= 1
        for other in ENCLAVES:
            for apid in [a for a, g in self.grants[other].items()
                         if not g["local"] and g["segid"] in dead]:
                del self.grants[other][apid]
        for subs in self.subs.values():
            if e in subs:
                subs.remove(e)
        return ("ok", torn)


    # -- the name-server service ---------------------------------------------

    def down(self):
        return self.clock < self.down_until

    def heartbeat(self, b):
        if self.down():
            return False
        if b not in self.gone:  # a zombie beacon after GC renews nothing
            self.last_hb[b] = self.clock
        return True

    def climb(self, fill):
        new = 2 if fill >= 0.75 else 1 if fill >= 0.5 else 0
        self.transitions += new != self.level
        self.level = new

    def sweep(self, fill):
        self.climb(fill)
        if self.level == 2:
            self.deferred += 1
            return None
        expired = sorted(b for b, t in self.last_hb.items() if t + LEASE < self.clock)
        for b in expired:
            del self.last_hb[b]
            self.gone.add(b)
            for s in [s for s, owner in self.beacon_segs.items() if owner == b]:
                del self.beacon_segs[s]
                self.names = {n: x for n, x in self.names.items() if x != s}
        return expired

    def register(self, b, name):
        if name is not None and name in self.names:
            return self.err()
        segid = self.next_segid
        self.next_segid += 1
        self.beacon_segs[segid] = b
        if name is not None:
            self.names[name] = segid
        return ("ok", segid)

    def restart(self, outage):
        """Registrations survive; the service's replay entries do not;
        every lease restarts from the end of the outage."""
        self.down_until = self.clock + outage
        self.ns_served = {}
        for b in self.last_hb:
            self.last_hb[b] = self.down_until

    def ns_request(self, kind, name, req_id, fill):
        if self.down():
            return ("dropped", None)
        self.climb(fill)
        if self.level >= 1 and kind in ("lookup", "list"):
            hit = self.cache.get(name) if kind == "lookup" else None
            if hit is not None and self.clock - hit[1] <= 300:
                self.stale_hits += 1
                return ("stale", hit[0])
            return ("shed", None)
        if req_id in self.ns_served:
            return self.ns_served[req_id]
        if kind == "lookup":
            segid = self.names.get(name)
            if segid is not None:
                self.cache[name] = (segid, self.clock)
            result = ("ok", segid)
        else:
            result = ("ok", dict(sorted(self.names.items())))
        self.ns_served[req_id] = result
        return result


class CoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.core = Driver()
        self.model = Model()
        self.segs = {}      # segid -> ExportedSegment (the driver's)
        self.apids = []     # (eid, apid) ever granted
        self.atts = []      # (eid, attachment, model key)
        self.reqs = []      # (eid, req_id, segid, write) of remote gets
        self.req_seq = 0
        self.cache = ReplayCache()
        self.ns_reqs = []   # (kind, name, req_id) of name-server requests

    def alive(self, e):
        return e not in self.model.crashed

    def check(self, got, want):
        assert got == want, (got, want)

    def next_req(self, e):
        self.req_seq += 1
        return f"e{e}:{self.req_seq}"

    @staticmethod
    def pick(data, items):
        """One of ``items``, or None while there are none (an early
        no-op step is cheaper than a precondition's rejected draws)."""
        return data.draw(st.sampled_from(items)) if items else None

    # ------------------------------------------------------------------ rules

    @rule(e=eids, npages=st.integers(1, 4), mode=modes, name=names)
    def make(self, e, npages, mode, name):
        if not self.alive(e):
            return
        got = outcome(lambda: self.core.make(e, npages, mode, name))
        self.check(got, self.model.make(e, npages, mode, name))
        if got[0] == "ok":
            self.segs[got[1]] = self.core.owner[e].segments[got[1]]

    @rule(data=st.data(), by_exporter=st.booleans())
    def remove(self, data, by_exporter):
        segid = self.pick(data, sorted(self.segs))
        if segid is None:
            return
        e = self.model.segs[segid]["owner"]
        if not self.alive(e):
            return
        got = outcome(lambda: self.core.remove(e, self.segs[segid], by_exporter))
        self.check(got, self.model.remove(e, segid, by_exporter))

    @rule(data=st.data(), e=eids, write=st.booleans(), rejected_first=st.booleans())
    def get(self, data, e, write, rejected_first):
        """With ``rejected_first``, a remote get is first refused by
        overload control; the retry, under the same req_id, must be
        served afresh (a rejection never enters the replay cache)."""
        segid = self.pick(data, sorted(self.segs))
        if segid is None or not self.alive(e):
            return
        req_id = self.next_req(e)
        remote = self.model.segs[segid]["owner"] != e and self.model.routable(segid)
        if rejected_first and remote:
            self.core.reject_get(req_id, segid)
        got = outcome(lambda: self.core.get(e, segid, write, req_id))
        self.check(got, self.model.get(e, segid, write, req_id))
        if got[0] == "ok":
            self.apids.append((e, got[1]))
        if remote:
            self.reqs.append((e, req_id, segid, write))

    @rule(data=st.data())
    def retried_get(self, data):
        """A GET_REQ retried under the same req_id is answered from the
        owner's replay cache: same result, no second grant."""
        req = self.pick(data, self.reqs)
        if req is None:
            return
        e, req_id, segid, write = req
        if not self.model.routable(segid) or not self.alive(e):
            return
        got = self.core.serve_get(req_id, segid, write)
        self.check(got, self.model.serve_get(req_id, segid, write))

    @rule(keep=st.booleans())
    def duplicate_in_service(self, keep):
        """A duplicate of a request still in service is dropped; once
        served, its response is replayed only if it was kept."""
        req_id = self.next_req(0)
        assert self.cache.admit(req_id) is None
        assert self.cache.admit(req_id) is IN_SERVICE
        self.cache.record(req_id, "resp", keep=keep)
        assert self.cache.admit(req_id) == ("resp" if keep else None)

    @rule(data=st.data(), offset=st.sampled_from([0, 0, PAGE, PAGE // 2, 3 * PAGE]),
          nbytes=st.sampled_from([None, None, PAGE, 2 * PAGE, 5 * PAGE, 0]))
    def attach(self, data, offset, nbytes):
        held = self.pick(data, self.apids)
        if held is None:
            return
        e, apid = held
        if not self.alive(e):
            return
        key = len(self.atts)
        got = outcome(lambda: self.core.attach(e, apid, offset, nbytes))
        want = self.model.attach(e, apid, offset, nbytes, key)
        self.check((got[0], None if got[0] == "ok" else got[1]), want)
        if got[0] == "ok":
            self.atts.append((e, got[1], key))

    @rule(data=st.data())
    def detach(self, data):
        made = self.pick(data, self.atts)
        if made is None:
            return
        e, att, key = made
        if not self.alive(e):
            return
        got = outcome(lambda: self.core.detach(e, att))
        self.check(got, self.model.detach(key))

    @rule(data=st.data())
    def release(self, data):
        held = self.pick(data, self.apids)
        if held is None:
            return
        e, apid = held
        if not self.alive(e):
            return
        got = outcome(lambda: self.core.release(e, apid))
        self.check(got, self.model.release(e, apid))

    @rule(data=st.data(), e=eids)
    def subscribe_and_signal(self, data, e):
        segid = self.pick(data, sorted(self.segs))
        if segid is None or not self.alive(e):
            return
        got = outcome(lambda: self.core.subscribe(e, segid))
        self.check(got, self.model.subscribe(e, segid))
        got = outcome(lambda: self.core.signal(e, segid))
        self.check(got, self.model.signal(e, segid))

    @rule(e=st.sampled_from(ENCLAVES[1:]))
    def depart(self, e):
        if not self.alive(e):
            return
        got = outcome(lambda: self.core.depart(e))
        self.check(got, self.model.depart(e))
        if got[0] == "ok":
            self.forget_handles(e)

    def forget_handles(self, e):
        """A departed or crashed enclave's processes are gone, and so
        are their apids and attachments."""
        self.apids = [(x, a) for x, a in self.apids if x != e]
        self.atts = [t for t in self.atts if t[0] != e]

    @rule(e=st.sampled_from(ENCLAVES[1:]))
    def crash(self, e):
        if self.model.crashed:
            return  # one crash per run keeps two enclaves serving
        got = outcome(lambda: self.core.crash(e))
        self.check(got, self.model.crash(e))
        self.forget_handles(e)

    # -------------------------------------------- the name-server service

    def tick(self, dt):
        self.core.clock += dt
        self.model.clock += dt

    @rule(b=beaconers, dt=ticks)
    def heartbeat(self, b, dt):
        self.tick(dt)
        self.check(self.core.heartbeat(b), self.model.heartbeat(b))

    @rule(dt=ticks, fill=fills)
    def lease_sweep(self, dt, fill):
        self.tick(dt)
        self.check(self.core.sweep(fill), self.model.sweep(fill))

    @rule(b=beaconers, name=st.sampled_from([None, "c"]))
    def beaconer_registers(self, b, name):
        if b in self.model.gone:
            return  # a collected enclave is dead: it registers nothing
        got = outcome(lambda: self.core.register(b, name))
        self.check(got, self.model.register(b, name))

    @rule(outage=st.sampled_from([0, 300, 1_500]))
    def restart(self, outage):
        self.core.ns.restart(self.core.clock, outage)
        self.model.restart(outage)
        assert not self.core.ns.replay.served and not self.core.ns.replay.in_service

    @rule(data=st.data(), kind=st.sampled_from(["lookup", "lookup", "list"]),
          retry=st.booleans(), dt=ticks, fill=fills,
          again=st.sampled_from([None, (0, 0.5), (300, 1.0), (700, 0.6)]))
    def ns_request(self, data, kind, retry, dt, fill, again):
        """A remote lookup (mostly of a registered name) or listing; with
        ``retry``, an earlier one again under its req_id, answered from the
        service's replay cache unless a restart lost it. ``again`` is the
        client's next attempt, (delay, fill), under pressure: the ladder
        may shed it or answer it from the stale-bounded cache."""
        earlier = self.pick(data, self.ns_reqs) if retry else None
        if earlier is None:
            self.req_seq += 1
            name = self.pick(data, sorted(self.model.names) + ["unregistered"])
            earlier = (kind, name, f"ns:{self.req_seq}")
            self.ns_reqs.append(earlier)
        kind, name, req_id = earlier
        wire, payload = ((C.LOOKUP_NAME, {"name": name}) if kind == "lookup"
                         else (C.LIST_NAMES, {"prefix": ""}))
        for step, level_fill in [(dt, fill)] + ([again] if again else []):
            self.tick(step)
            got = self.core.ns_request(wire, payload, req_id, level_fill)
            self.check(got, self.model.ns_request(kind, name, req_id, level_fill))

    # ------------------------------------------------------------- invariants

    @invariant()
    def tables_match(self):
        for e in ENCLAVES:
            attacher = self.core.attacher[e]
            want = self.model.grants[e]
            assert sorted(attacher.grants) == sorted(want)
            for apid, grant in want.items():
                assert attacher.live_count(apid) == grant["live"]
                assert attacher.grants[apid].npages == grant["npages"]
            refs = {(e, donor // 10): n for (_pid, donor), n
                    in attacher.smartmap_refs.items() if n}
            assert refs == {k: v for k, v in self.model.smartmap.items()
                            if k[0] == e and v}
        for segid, seg in self.model.segs.items():
            owner = self.core.owner[seg["owner"]]
            if self.model.routable(segid):
                assert owner.segments[segid].grants_out == seg["grants_out"]
            else:
                assert not owner.owns(segid)
        live = sum(1 for s in self.model.segs if self.model.routable(s))
        assert self.core.ns.live_segments == live + len(self.model.beacon_segs)

    @invariant()
    def service_matches(self):
        ns, model = self.core.ns, self.model
        assert ns.last_heartbeat_ns == model.last_hb
        assert ns.down(self.core.clock) == model.down()
        assert model.gone <= ns.retired_enclaves
        ladder = ns.ladder
        assert (ladder.level, ladder.level_transitions, ladder.stale_hits,
                ladder.gc_deferred) == (model.level, model.transitions,
                                        model.stale_hits, model.deferred)
        assert ladder.lookup_cache == model.cache
        for e in ENCLAVES:
            # a restart loses the service's entries, never an owner's
            assert set(self.core.replay[e].served) == set(model.served[e])


TestCoreMachine = CoreMachine.TestCase
TestCoreMachine.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
