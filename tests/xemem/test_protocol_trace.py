"""Verify the exact Fig. 3 message sequences from the channel spans.

Every Pisces channel transfer is a ``pisces.transfer`` span carrying the
command ``kind``, its PFN count ``npfns``, and the channel as ``track``.
"""

from repro import obs
from repro.hw.costs import PAGE_4K
from repro.xemem import XpmemApi

from tests.xemem.conftest import build_system


def _hops(ctx):
    """The channel transfers of a traced run, in start order."""
    spans = [s for s in ctx.tracer.spans if s.name == "pisces.transfer"]
    return sorted(spans, key=lambda s: (s.start_ns, s.span_id))


def test_attach_flow_message_sequence(basic):
    """One remote attach produces exactly the Fig. 3 steps on the wire:
    segid allocation at export, then get and attach request/response
    pairs, with the PFN list riding only on the attach response."""
    rig = basic
    eng = rig["engine"]
    kitten = rig["cokernels"][0].kernel
    linux = rig["linux"].kernel
    kp = kitten.create_process("exp")
    lp = linux.create_process("att", core_id=2)
    heap = kitten.heap_region(kp)

    def run():
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, 16 * PAGE_4K)
        apid = yield from api_l.xpmem_get(segid)
        att = yield from api_l.xpmem_attach(apid)
        return att

    with obs.observing(trace=True, metrics=False) as ctx:
        eng.run_process(run())
    hops = _hops(ctx)
    assert [s.attrs["kind"] for s in hops] == [
        "alloc_segid",      # export: Kitten asks the name server (Fig. 3: 2-3)
        "segid_assigned",
        "get_req",          # NS resolves the owner, forwards (Fig. 3: route)
        "get_resp",
        "attach_req",       # Fig. 3: 4-5
        "attach_resp",      # Fig. 3: 6-7, carrying the PFN list
    ]
    # only the attach response carries PFNs
    assert [s.attrs["npfns"] for s in hops] == [0, 0, 0, 0, 0, 16]


def test_sibling_attach_routes_two_hops_each_way():
    """Kitten-to-Kitten traffic transits the name-server enclave: each
    protocol message appears on two channel hops."""
    rig = build_system(num_cokernels=2)
    eng = rig["engine"]
    k0, k1 = (e.kernel for e in rig["cokernels"])
    exp = k0.create_process("exp")
    att_p = k1.create_process("att")
    heap = k0.heap_region(exp)

    def setup():
        api_x = XpmemApi(exp)
        segid = yield from api_x.xpmem_make(heap.start, 4 * PAGE_4K)
        return segid

    segid = eng.run_process(setup())

    def attach():
        api_a = XpmemApi(att_p)
        apid = yield from api_a.xpmem_get(segid)
        yield from api_a.xpmem_attach(apid)

    with obs.observing(trace=True, metrics=False) as ctx:
        eng.run_process(attach())
    hops = [(s.attrs["kind"], s.track) for s in _hops(ctx)]
    # each of the four protocol messages crosses exactly two channels
    assert len(hops) == 8
    attach_resp_hops = [track for kind, track in hops if kind == "attach_resp"]
    assert attach_resp_hops == ["linux<->kitten0", "linux<->kitten1"]


def test_trace_disabled_records_nothing(basic):
    rig = basic
    eng = rig["engine"]
    kitten = rig["cokernels"][0].kernel
    kp = kitten.create_process("exp")
    heap = kitten.heap_region(kp)

    def run():
        api = XpmemApi(kp)
        yield from api.xpmem_make(heap.start, PAGE_4K)

    with obs.observing(trace=False, metrics=True) as ctx:
        eng.run_process(run())
        assert obs.get().metrics.counter("channel.msgs").value == 2
    assert ctx.tracer.spans == []
