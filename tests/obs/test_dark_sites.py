"""The per-message instrumentation sites cost nothing when dark.

A Pisces transfer, the IPIs it sends and the ``Channel.send`` around it
run once per channel message. With the default (disabled) context they
fetch the context and check its tracer and registry flags, and never
reach either: the context's ``span``, ``counter`` and ``histogram``
and the tracer's and registry's own are patched to raise here. (A dark
``ObsContext.span`` returns the null span without calling the tracer,
so only the context-level patch proves the site skipped the call.) Under ``observing()`` the same
scenario records the counters, histogram and ``pisces.transfer`` span
attributes pinned below.
"""

import numpy as np
import pytest

from repro import obs
from repro.enclave import KernelMessage
from repro.hw import NodeHardware, R420_SPEC
from repro.hw.costs import GB
from repro.obs.context import ObsContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.pisces import PiscesManager
from repro.sim import Engine, fidelity


def build():
    eng = Engine()
    node = NodeHardware(eng, R420_SPEC)
    pisces = PiscesManager(node)
    linux = pisces.boot_linux(core_ids=range(0, 8), mem_bytes=8 * GB)
    kitten = pisces.boot_cokernel(core_ids=[12], mem_bytes=1 * GB, zone_id=1)
    linux.set_receiver(lambda msg, ch: None)
    kitten.set_receiver(lambda msg, ch: None)
    return eng, pisces.channels[0], linux, kitten


def scenario():
    """A 13-chunk IPI burst and a one-round control message on a fast
    rig, then a 4-chunk per-round transfer on a detailed rig (the
    trace's second engine, so its span carries ``rig: 1``); returns
    both clocks."""
    pfns = np.arange(100_000, dtype=np.int64)
    with fidelity.fast():
        eng, ch, linux, kitten = build()
    with fidelity.detailed():
        eng2, ch2, _linux2, kitten2 = build()

    def fast_sends():
        yield from ch.send(kitten, KernelMessage(
            "attach_resp", {"reply_to": 7}, pfns=pfns))
        yield from ch.send(linux, KernelMessage("ping", {"req_id": 9}))

    def per_round_send():
        yield from ch2.send(kitten2, KernelMessage(
            "attach_resp", pfns=pfns[:30_000]))

    eng.run_process(fast_sends())
    eng2.run_process(per_round_send())
    return eng.now, eng2.now


#: Virtual end times of the two rigs (the same dark or observed).
ENDS = (5_049_000, 1_514_000)


def boom(*_args, **_kwargs):
    raise AssertionError("a dark site reached the tracer or the registry")


def test_dark_sites_never_reach_tracer_or_registry(monkeypatch):
    assert not obs.get().enabled
    monkeypatch.setattr(MetricsRegistry, "counter", boom)
    monkeypatch.setattr(MetricsRegistry, "histogram", boom)
    monkeypatch.setattr(Tracer, "span", boom)
    for method in ("span", "counter", "histogram"):
        monkeypatch.setattr(ObsContext, method, boom)
    assert scenario() == ENDS


@pytest.mark.parametrize("trace,metrics", [(True, True), (True, False),
                                           (False, True)])
def test_observed_sites_record_pinned_values(trace, metrics):
    with obs.observing(trace=trace, metrics=metrics) as ctx:
        assert scenario() == ENDS
    snap = ctx.snapshot()
    spans = [(s.name, s.start_ns, s.end_ns, s.attrs)
             for s in ctx.tracer.spans]
    if metrics:
        hist = snap.pop("hw.ipi.handler_ns")
        assert (hist["count"], hist["min"], hist["max"]) == (18, 2000, 2000)
        assert snap == {
            "channel.msgs": 3,
            "channel.pfns": 130_000,
            "fastpath.ipi.batched_rounds": 13,
            "hw.ipi.core0.delivered": 17,
            "hw.ipi.core12.delivered": 1,
            "hw.ipi.delivered": 18,
            "pisces.channel.bytes": 1_040_000,
            "pisces.channel.ipi_rounds": 18,
            "pisces.channel.msgs": 3,
            "pisces.channel.pfns": 130_000,
        }
    else:
        assert snap == {}
    if trace:
        assert spans == [
            ("pisces.transfer", 0, 5_045_500,
             {"kind": "attach_resp", "npfns": 100_000, "chunks": 13,
              "marshal_ns": 5_000_000, "req_id": 7}),
            ("pisces.transfer", 5_045_500, 5_049_000,
             {"kind": "ping", "npfns": 0, "chunks": 1, "marshal_ns": 0,
              "req_id": 9}),
            ("pisces.transfer", 0, 1_514_000,
             {"kind": "attach_resp", "npfns": 30_000, "chunks": 4,
              "marshal_ns": 1_500_000, "rig": 1}),
        ]
    else:
        assert spans == []
