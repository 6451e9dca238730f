"""Stateful property test: random XPMEM API call sequences vs a model.

Hypothesis drives arbitrary interleavings of make/get/attach/detach/
release/remove across a two-enclave system (Kitten exporter side, Linux
attacher side) and checks after every step that:

* grant accounting matches an independent model,
* every live attachment still translates to the exporter's frames and
  observes its writes (zero-copy),
* removed segments reject new gets,
* the name server's live-segment count matches the model,
* page-table populations never go negative / leak across teardown.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.hw.costs import PAGE_4K
from repro.xemem import XememError, XpmemApi

from tests.xemem.conftest import build_system

#: Enough heap slots that `make` is always available (steps are capped
#: well below this), so the machine never reaches a dead state.
MAX_SLOTS = 60
SEG_PAGES = 4


class XememMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.rig = build_system(num_cokernels=1)
        self.eng = self.rig["engine"]
        self.kitten = self.rig["cokernels"][0].kernel
        self.linux = self.rig["linux"].kernel
        self.ns = self.rig["linux"].module.nameserver
        self.exporter = self.kitten.create_process("exp")
        self.attacher = self.linux.create_process("att", core_id=2)
        self.api_x = XpmemApi(self.exporter)
        self.api_a = XpmemApi(self.attacher)
        self.heap = self.kitten.heap_region(self.exporter)
        # model state
        self.segments = {}     # segid -> {"offset_pages", "removed"}
        self.grants = {}       # apid -> segid
        self.attachments = {}  # key -> (att, segid)
        self._next_slot = 0
        self._key = 0
        self.ns_base = self.ns.live_segments

    def _run(self, gen):
        return self.eng.run_process(gen)

    # ---------------------------------------------------------------- rules

    @precondition(lambda self: self._next_slot < MAX_SLOTS)
    @rule()
    def make(self):
        offset = self._next_slot * SEG_PAGES
        self._next_slot += 1
        segid = self._run(
            self.api_x.xpmem_make(
                self.heap.start + offset * PAGE_4K, SEG_PAGES * PAGE_4K
            )
        )
        self.segments[segid] = {"offset_pages": offset, "removed": False}

    @precondition(lambda self: any(not s["removed"] for s in self.segments.values()))
    @rule(data=st.data())
    def get(self, data):
        live = [s for s, rec in self.segments.items() if not rec["removed"]]
        segid = data.draw(st.sampled_from(live))
        apid = self._run(self.api_a.xpmem_get(segid))
        self.grants[apid] = segid

    @precondition(lambda self: bool(self.grants))
    @rule(data=st.data())
    def attach(self, data):
        apid = data.draw(st.sampled_from(sorted(self.grants, key=int)))
        segid = self.grants[apid]
        if self.segments[segid]["removed"]:
            with pytest.raises(XememError):
                self._run(self.api_a.xpmem_attach(apid))
            return
        att = self._run(self.api_a.xpmem_attach(apid))
        self._key += 1
        self.attachments[self._key] = (att, segid)
        # zero-copy check right away: write via exporter, read via attacher
        stamp = (self._key * 7919) % 251
        self.api_x.segment(segid).view().write(0, bytes([stamp]))
        assert att.read(0, 1) == bytes([stamp])

    @precondition(lambda self: bool(self.attachments))
    @rule(data=st.data())
    def detach(self, data):
        key = data.draw(st.sampled_from(sorted(self.attachments)))
        att, _segid = self.attachments.pop(key)
        self._run(self.api_a.xpmem_detach(att))
        assert self.attacher.aspace.find_region(att.vaddr) is None

    @precondition(lambda self: any(
        apid for apid in self.grants
        if not any(s == self.grants[apid] for _a, s in self.attachments.values())
    ))
    @rule(data=st.data())
    def release_unused(self, data):
        attached_segids = {s for _a, s in self.attachments.values()}
        candidates = sorted(
            (a for a, s in self.grants.items() if s not in attached_segids), key=int
        )
        apid = data.draw(st.sampled_from(candidates))
        self._run(self.api_a.xpmem_release(apid))
        del self.grants[apid]

    @precondition(lambda self: any(not s["removed"] for s in self.segments.values()))
    @rule(data=st.data())
    def remove(self, data):
        live = [s for s, rec in self.segments.items() if not rec["removed"]]
        segid = data.draw(st.sampled_from(live))
        self._run(self.api_x.xpmem_remove(segid))
        self.segments[segid]["removed"] = True
        # further gets must fail
        with pytest.raises(XememError):
            self._run(self.api_a.xpmem_get(segid))

    # ------------------------------------------------------------- invariants

    @invariant()
    def name_server_matches_model(self):
        if not hasattr(self, "ns"):
            return
        live = sum(1 for rec in self.segments.values() if not rec["removed"])
        assert self.ns.live_segments - self.ns_base == live

    @invariant()
    def attachments_translate_and_alias(self):
        if not hasattr(self, "ns"):
            return
        for att, segid in self.attachments.values():
            pfns = self.attacher.aspace.table.translate_range(att.vaddr, att.npages)
            offset = self.segments[segid]["offset_pages"]
            expected = self.exporter.aspace.table.translate_range(
                self.heap.start + offset * PAGE_4K, SEG_PAGES
            )
            assert (pfns == expected).all()

    @invariant()
    def grant_accounting_balances(self):
        if not hasattr(self, "ns"):
            return
        module = self.rig["cokernels"][0].module
        for segid, rec in self.segments.items():
            if rec["removed"]:
                continue
            held = sum(1 for s in self.grants.values() if s == segid)
            assert module.owner.segments[int(segid)].grants_out == held


TestXememProtocol = XememMachine.TestCase
TestXememProtocol.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
