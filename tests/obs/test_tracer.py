"""Unit tests for the span tracer: nesting, ring cap, exports."""

import io
import json
import pathlib

import pytest

from repro.obs import RingBuffer, Tracer
from repro.obs.tracer import NULL_SPAN
from repro.sim import Engine

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_trace.json"


def build_reference_trace(tracer: Tracer) -> None:
    """A small fixed scenario: two tracks, nesting, attrs, an instant."""
    eng = Engine()

    def outer():
        with tracer.span("xemem.attach", eng, track="kitten0", npages=4):
            yield eng.sleep(100)
            with tracer.span("pisces.transfer", eng,
                             track="linux<->kitten0", kind="attach"):
                yield eng.sleep(250)
            yield eng.sleep(50)
        tracer.instant("xemem.detach", eng.now, track="kitten0")

    eng.run_process(outer())


# -- recording ----------------------------------------------------------------

def test_span_records_virtual_duration():
    eng = Engine()
    tr = Tracer()

    def proc():
        with tr.span("work", eng):
            yield eng.sleep(500)

    eng.run_process(proc())
    (span,) = tr.spans
    assert span.name == "work"
    assert span.start_ns == 0
    assert span.end_ns == 500
    assert span.duration_ns == 500


def test_nested_spans_get_parent_ids():
    tr = Tracer()
    build_reference_trace(tr)
    inner = tr.of_name("pisces.transfer")[0]
    outer = tr.of_name("xemem.attach")[0]
    instant = tr.of_name("xemem.detach")[0]
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert instant.parent_id is None  # outer span closed before the instant
    # completion order: inner closes before outer
    assert tr.spans[0] is inner
    assert tr.spans[1] is outer


def test_span_set_updates_attrs():
    eng = Engine()
    tr = Tracer()
    with tr.span("s", eng, a=1) as sp:
        sp.set(b=2, a=3)
    assert tr.spans[0].attrs == {"a": 3, "b": 2}


def test_tracks_in_first_appearance_order():
    tr = Tracer()
    build_reference_trace(tr)
    # the nested span completes (and is recorded) first, so its track leads
    assert tr.tracks() == ["linux<->kitten0", "kitten0"]


def test_disabled_tracer_returns_shared_null_span():
    eng = Engine()
    tr = Tracer(enabled=False)
    assert tr.span("x", eng) is NULL_SPAN
    with tr.span("x", eng) as sp:
        sp.set(ignored=True)
    tr.instant("y", 0)
    assert len(tr) == 0


def test_clear_forgets_spans():
    tr = Tracer()
    build_reference_trace(tr)
    tr.clear()
    assert len(tr) == 0
    assert tr.tracks() == []


# -- ring cap -----------------------------------------------------------------

def test_ring_buffer_caps_and_counts_drops():
    rb = RingBuffer(max_events=3)
    for i in range(10):
        rb.append(i)
    assert len(rb) == 3
    assert list(rb) == [7, 8, 9]
    assert rb.dropped == 7
    rb.clear()
    assert len(rb) == 0
    assert rb.dropped == 0


def test_ring_buffer_unbounded_by_default():
    rb = RingBuffer()
    for i in range(1000):
        rb.append(i)
    assert len(rb) == 1000
    assert rb.dropped == 0


def test_ring_buffer_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        RingBuffer(max_events=0)


def test_tracer_max_events_drops_oldest():
    tr = Tracer(max_events=2)
    for i in range(5):
        tr.instant(f"e{i}", i)
    assert [s.name for s in tr.spans] == ["e3", "e4"]
    assert tr.dropped == 3


# -- exports ------------------------------------------------------------------

def test_chrome_export_matches_golden_file():
    tr = Tracer()
    build_reference_trace(tr)
    buf = io.StringIO()
    tr.to_chrome(buf)
    assert buf.getvalue() == GOLDEN.read_text().rstrip("\n")


def test_chrome_export_structure():
    tr = Tracer()
    build_reference_trace(tr)
    buf = io.StringIO()
    tr.to_chrome(buf)
    doc = json.loads(buf.getvalue())
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert doc["otherData"]["dropped_spans"] == 0
    # one process_name + one thread_name per track
    assert [m["name"] for m in metas] == [
        "process_name", "thread_name", "thread_name",
    ]
    attach = next(e for e in xs if e["name"] == "xemem.attach")
    assert attach["cat"] == "xemem"
    assert attach["ts"] == 0
    assert attach["dur"] == pytest.approx(0.4)  # 400 ns in microseconds
    # span identity rides in args so analysis can rebuild the tree
    assert attach["args"] == {"npages": 4, "span_id": attach["args"]["span_id"]}
    transfer = next(e for e in xs if e["name"] == "pisces.transfer")
    assert transfer["args"]["parent_id"] == attach["args"]["span_id"]


def test_jsonl_export_round_trips():
    tr = Tracer()
    build_reference_trace(tr)
    buf = io.StringIO()
    tr.to_jsonl(buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == len(tr)
    by_name = {rec["name"]: rec for rec in lines}
    assert by_name["pisces.transfer"]["parent"] == by_name["xemem.attach"]["id"]
    assert by_name["xemem.attach"]["end_ns"] == 400
    assert by_name["xemem.detach"]["start_ns"] == by_name["xemem.detach"]["end_ns"]


def test_spans_of_a_later_engine_carry_their_rig():
    """One engine per rig: a one-rig trace gains no attribute, and spans
    of the second rig (instants included) carry ``rig``."""
    tr = Tracer()
    first, second = Engine(), Engine()
    with tr.span("a", first):
        pass
    with tr.span("b", second):
        pass
    tr.instant("c", 0)
    with tr.span("d", second):
        pass
    assert [s.attrs for s in tr.spans] == [{}, {"rig": 1}, {"rig": 1},
                                           {"rig": 1}]


def test_non_json_attrs_fall_back_to_repr():
    eng = Engine()
    tr = Tracer()
    with tr.span("s", eng, obj=object(), n=1):
        pass
    buf = io.StringIO()
    tr.to_jsonl(buf)
    rec = json.loads(buf.getvalue())
    assert rec["attrs"]["n"] == 1
    assert rec["attrs"]["obj"].startswith("<object object")


def test_interleaved_processes_do_not_cross_parent():
    """Regression: parent attribution is per-process. Two concurrent
    processes whose spans interleave in time must each see only their
    own open spans as parents -- a single global stack used to make the
    later span a child of whichever span happened to be open, and an
    out-of-order close could leak ids onto the stack forever."""
    eng = Engine()
    tr = Tracer()

    def worker(name, delay):
        yield eng.sleep(delay)
        with tr.span(f"{name}.op", eng):
            yield eng.sleep(100)
            with tr.span(f"{name}.inner", eng):
                yield eng.sleep(100)

    def scenario():
        a = eng.spawn(worker("a", 0))
        b = eng.spawn(worker("b", 50))  # opens while a.op is still open
        yield eng.all_of([a, b])

    eng.run_process(scenario())
    by_name = {s.name: s for s in tr.spans}
    assert by_name["a.op"].parent_id is None
    assert by_name["b.op"].parent_id is None  # not adopted by a.op
    assert by_name["a.inner"].parent_id == by_name["a.op"].span_id
    assert by_name["b.inner"].parent_id == by_name["b.op"].span_id


def test_out_of_order_close_does_not_leak_stack_entries():
    eng = Engine()
    tr = Tracer()

    def proc():
        # close the outer handle before the inner one: the tracer must
        # still unwind both, leaving nothing behind to parent on
        outer = tr.span("outer", eng)
        inner = tr.span("inner", eng)
        outer.__enter__()
        inner.__enter__()
        yield eng.sleep(10)
        outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        with tr.span("later", eng):
            yield eng.sleep(10)

    eng.run_process(proc())
    later = tr.of_name("later")[0]
    assert later.parent_id is None
    assert tr._stacks == {}  # every stack fully unwound
