"""Observability must never change what the simulation computes.

The same scenario runs with observability fully off and fully on (trace
+ metrics + engine hooks + auditor); the virtual end time and every
simulation-side statistic must be identical, in both the fast and the
detailed fidelity mode. This is the standing guarantee that lets the
paper's figures be generated with tracing enabled.
"""

import pytest

from repro import obs
from repro.bench.configs import build_cokernel_system
from repro.hw.costs import PAGE_4K
from repro.sim import fidelity
from repro.xemem import XpmemApi


def _scenario(with_audit):
    """Two attach/touch/detach cycles across the channel; returns the
    numbers observability must not move."""
    rig = build_cokernel_system(with_audit=with_audit)
    eng = rig.engine
    kitten = rig.cokernels[0].kernel
    linux = rig.linux.kernel
    kp = kitten.create_process("sim")
    lp = linux.create_process("ana", core_id=2)
    heap = kitten.heap_region(kp)
    npages = 256

    def run():
        api_k, api_l = XpmemApi(kp), XpmemApi(lp)
        segid = yield from api_k.xpmem_make(heap.start, npages * PAGE_4K)
        apid = yield from api_l.xpmem_get(segid)
        for _ in range(2):
            att = yield from api_l.xpmem_attach(apid)
            yield from linux.touch_pages(lp, att.vaddr, npages, write=True)
            yield from api_l.xpmem_detach(att)
        yield from api_l.xpmem_release(apid)

    eng.run_process(run())
    return {
        "end_ns": eng.now,
        "linux_stats": dict(rig.linux.module.stats),
        "kitten_stats": dict(rig.cokernels[0].module.stats),
        "transfers": sum(
            ch.transfers_completed for ch in rig.system.channels
            if hasattr(ch, "transfers_completed")
        ),
    }


def _run_dark():
    return _scenario(with_audit=False)


def _run_observed():
    with obs.observing(trace=True, metrics=True, engine=True):
        return _scenario(with_audit=True)


@pytest.mark.parametrize("paths", ["fast", "slow"])
def test_observability_is_invisible_to_the_simulation(paths):
    ctx = fidelity.fast() if paths == "fast" else fidelity.detailed()
    with ctx:
        dark = _run_dark()
        observed = _run_observed()
    assert observed == dark


def test_fast_and_slow_agree_while_audited():
    """The auditor doubles as a fidelity differential check: identical
    end state in fast and detailed mode, audits enabled."""
    with obs.observing(trace=True):
        with fidelity.detailed():
            slow = _scenario(with_audit=True)
        with fidelity.fast():
            fast = _scenario(with_audit=True)
    assert fast == slow
