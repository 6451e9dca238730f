"""Unit tests for IPI delivery and handler dispatch."""

import pytest

from repro.hw import NodeHardware, OPTIPLEX_SPEC
from repro.hw.costs import CostModel
from repro.sim import Engine


def make_node():
    eng = Engine()
    return eng, NodeHardware(eng, OPTIPLEX_SPEC, costs=CostModel())


def test_vector_allocation_unique():
    _eng, node = make_node()
    v1 = node.intc.allocate_vector(0)
    v2 = node.intc.allocate_vector(0)
    assert v1.vector != v2.vector
    assert v1.vector >= 32  # reserved exception range respected


def test_bad_vector_range():
    from repro.hw.interrupts import IpiVector

    with pytest.raises(ValueError):
        IpiVector(256, 0)


def test_ipi_runs_handler_on_target_core():
    eng, node = make_node()
    vec = node.intc.allocate_vector(2)
    log = []

    def handler(payload):
        log.append((eng.now, payload))
        yield eng.sleep(100)
        return "handled"

    node.intc.register(vec, handler)

    def sender():
        result = yield from node.intc.send_ipi(vec, payload="ping")
        return (result, eng.now)

    result, t = eng.run_process(sender())
    assert result == "handled"
    assert log == [(node.costs.ipi_latency_ns, "ping")]
    assert t == node.costs.ipi_latency_ns + 100
    # handler occupancy shows up in the target core's steal log
    assert node.core(2).steal_log == [(node.costs.ipi_latency_ns, 100, f"irq:{vec.vector}")]
    assert node.intc.delivered == 1


def test_ipi_to_unbound_vector_fails():
    eng, node = make_node()
    vec = node.intc.allocate_vector(0)

    def sender():
        yield from node.intc.send_ipi(vec)

    with pytest.raises(RuntimeError, match="unbound"):
        eng.run_process(sender())


def test_double_register_rejected():
    _eng, node = make_node()
    vec = node.intc.allocate_vector(0)

    def handler(_):
        yield from ()

    node.intc.register(vec, handler)
    with pytest.raises(ValueError):
        node.intc.register(vec, handler)


def test_handlers_on_same_core_serialize():
    """Two IPIs to the same core queue on the core resource (paper §5.3)."""
    eng, node = make_node()
    v1 = node.intc.allocate_vector(0)
    v2 = node.intc.allocate_vector(0)
    log = []

    def handler(tag):
        def run(_payload):
            log.append((tag, "start", eng.now))
            yield eng.sleep(1000)
            log.append((tag, "end", eng.now))

        return run

    node.intc.register(v1, handler("a"))
    node.intc.register(v2, handler("b"))
    node.intc.post_ipi(v1)
    node.intc.post_ipi(v2)
    eng.run()
    lat = node.costs.ipi_latency_ns
    assert log == [
        ("a", "start", lat),
        ("a", "end", lat + 1000),
        ("b", "start", lat + 1000),
        ("b", "end", lat + 2000),
    ]


def test_handlers_on_different_cores_run_concurrently():
    eng, node = make_node()
    v1 = node.intc.allocate_vector(0)
    v2 = node.intc.allocate_vector(1)
    ends = []

    def handler(_payload):
        yield eng.sleep(1000)
        ends.append(eng.now)

    node.intc.register(v1, handler)
    node.intc.register(v2, handler)
    node.intc.post_ipi(v1)
    node.intc.post_ipi(v2)
    eng.run()
    lat = node.costs.ipi_latency_ns
    assert ends == [lat + 1000, lat + 1000]


def test_unregister_then_send_fails():
    eng, node = make_node()
    vec = node.intc.allocate_vector(0)

    def handler(_):
        yield from ()

    node.intc.register(vec, handler)
    node.intc.unregister(vec)

    def sender():
        yield from node.intc.send_ipi(vec)

    with pytest.raises(RuntimeError):
        eng.run_process(sender())


def test_vectors_on_core_tracks_register_and_unregister():
    _eng, node = make_node()
    intc = node.intc
    a, b = intc.allocate_vector(1), intc.allocate_vector(1)
    other = intc.allocate_vector(3)

    def handler(_):
        yield from ()

    assert intc.vectors_on_core(1) == 0
    intc.register(a, handler)
    intc.register(b, handler)
    intc.register(other, handler)
    assert (intc.vectors_on_core(1), intc.vectors_on_core(3)) == (2, 1)
    with pytest.raises(ValueError):
        intc.register(a, handler)  # a rejected rebind counts nothing
    assert intc.vectors_on_core(1) == 2
    intc.unregister(a)
    assert intc.vectors_on_core(1) == 1
    intc.unregister(a)  # idempotent: never drives the count negative
    intc.unregister(intc.allocate_vector(1))  # never bound at all
    assert (intc.vectors_on_core(1), intc.vectors_on_core(3)) == (1, 1)
    intc.unregister(b)
    intc.unregister(b)
    assert intc.vectors_on_core(1) == 0
    intc.register(a, handler)  # rebinding after unbind counts again
    assert intc.vectors_on_core(1) == 1
