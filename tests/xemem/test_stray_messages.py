"""Duplicate/late protocol messages must be dropped, never raised.

Retries (and duplicating channels) mean a module can receive an ack or
a response whose waiter is long gone: the token was popped when the
first copy arrived, or the requester's deadline fired and it moved on.
Every such stray used to KeyError or re-trigger a completed event.
"""

from repro import obs
from repro.xemem import commands as C

from tests.xemem.conftest import build_system


def _run_handle(rig, module, msg):
    rig["engine"].run_process(module._handle(msg, None))


def test_stray_response_dropped():
    rig = build_system(num_cokernels=1)
    module = rig["cokernels"][0].module
    with obs.observing(trace=False, metrics=True, engine=False):
        stray = C.make_command(
            C.SEGID_ASSIGNED, 0, module.my_id, reply_to="gone:99", segid=4096
        )
        _run_handle(rig, module, stray)
        # twice in a row: the second copy must be just as harmless
        _run_handle(rig, module, stray)
        assert obs.get().metrics.counter("xemem.msgs.stray_dropped").value == 2
    assert module._pending == {}


def test_duplicate_ping_ack_dropped():
    rig = build_system(num_cokernels=1)
    module = rig["cokernels"][0].module
    assert module._pending == {}  # discovery done, all tokens popped
    with obs.observing(trace=False, metrics=True, engine=False):
        late_ack = C.make_command(
            C.PING_NS_PATH_ACK, None, None, token="stale-token"
        )
        _run_handle(rig, module, late_ack)
        assert obs.get().metrics.counter("xemem.msgs.stray_dropped").value == 1


def test_duplicate_enclave_id_assignment_dropped():
    """A relay whose ``_forwarded`` entry was already consumed drops the
    second copy of the assignment instead of KeyError-ing."""
    rig = build_system(num_cokernels=2)
    relay = rig["cokernels"][0].module
    with obs.observing(trace=False, metrics=True, engine=False):
        dup = C.make_command(
            C.ENCLAVE_ID_ASSIGNED, 0, None, req_id="gone:1", enclave_id=9
        )
        _run_handle(rig, relay, dup)
        assert obs.get().metrics.counter("xemem.msgs.stray_dropped").value == 1
