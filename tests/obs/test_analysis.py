"""Tests for span-tree reconstruction and cost attribution."""

import io

import pytest

from repro.obs import Tracer, analysis
from repro.obs.analysis import SpanNode
from repro.sim import Engine

from tests.obs.test_tracer import build_reference_trace


def node(name, start, end, span_id=None, parent_id=None, **attrs):
    return SpanNode(span_id=span_id, parent_id=parent_id, name=name,
                    track="t", start_ns=start, end_ns=end, attrs=attrs)


# -- subsystem mapping ---------------------------------------------------------

@pytest.mark.parametrize("name,bucket", [
    ("kernel.pagetable.walk", "pagetable"),
    ("kernel.map_remote", "map_install"),
    ("linux.map_remote", "map_install"),
    ("kernel.fault", "map_install"),
    ("pisces.transfer", "channel"),
    ("nic.rdma_write", "nic"),
    ("xemem.attach", "xemem"),
    ("noise.detour", "noise"),
    ("something.else", "other"),
])
def test_subsystem_of(name, bucket):
    assert analysis.subsystem_of(name) == bucket


# -- loading and linking -------------------------------------------------------

def test_from_tracer_links_the_tree():
    tr = Tracer()
    build_reference_trace(tr)
    trace = analysis.from_tracer(tr)
    assert len(trace) == 3
    attach = next(r for r in trace.roots if r.name == "xemem.attach")
    assert [c.name for c in attach.children] == ["pisces.transfer"]
    assert attach.duration_ns == 400
    assert attach.children[0].duration_ns == 250


def test_chrome_export_round_trips_the_tree():
    tr = Tracer()
    build_reference_trace(tr)
    buf = io.StringIO()
    tr.to_chrome(buf)
    trace = analysis.load_trace(io.StringIO(buf.getvalue()))
    attach = next(r for r in trace.roots if r.name == "xemem.attach")
    assert [c.name for c in attach.children] == ["pisces.transfer"]
    assert attach.track == "kitten0"
    assert attach.children[0].track == "linux<->kitten0"
    assert attach.attrs == {"npages": 4}  # span ids consumed, not kept
    assert trace.dropped == 0


def test_jsonl_export_round_trips_the_tree_and_drop_count():
    tr = Tracer(max_events=2)
    eng = Engine()

    def proc():
        for i in range(5):
            with tr.span(f"op{i}", eng):
                yield eng.sleep(10)

    eng.run_process(proc())
    buf = io.StringIO()
    tr.to_jsonl(buf)
    trace = analysis.load_trace(io.StringIO(buf.getvalue()))
    assert len(trace) == 2
    assert trace.dropped == 3


def test_one_line_jsonl_is_not_mistaken_for_a_chrome_trace():
    tr = Tracer()
    with tr.span("op", Engine(), n=1):
        pass
    buf = io.StringIO()
    tr.to_jsonl(buf)
    (span,) = analysis.load_trace(io.StringIO(buf.getvalue())).spans
    assert (span.name, span.attrs) == ("op", {"n": 1})


def test_bundle_tail_keeps_open_flag_and_meta():
    tail = (
        '{"attrs":{},"end_ns":null,"id":4,"name":"xemem.attach",'
        '"open":true,"parent":null,"start_ns":70,"track":"linux"}\n'
        '{"meta":{"dropped":2,"recorded":9,"tail":1}}\n'
    )
    trace = analysis.load_trace(io.StringIO(tail))
    (span,) = trace.spans
    assert span.open and span.duration_ns == 0
    assert trace.dropped == 2 and trace.meta["recorded"] == 9


def test_orphan_parent_ids_become_roots():
    spans = [node("a", 0, 100, span_id=1, parent_id=999)]
    trace = analysis.TraceData(spans=spans, roots=analysis._link(spans))
    assert trace.roots == spans


# -- exclusive time ------------------------------------------------------------

def test_exclusive_time_subtracts_merged_child_union():
    parent = node("p", 0, 1000)
    # overlapping children merge: [100,400) u [300,600) = 500ns covered
    parent.children = [node("c1", 100, 400), node("c2", 300, 600)]
    assert analysis.exclusive_ns(parent) == 500


def test_exclusive_time_clips_children_to_parent():
    parent = node("p", 100, 200)
    parent.children = [node("c", 0, 1000)]  # sloppy child overshoots
    assert analysis.exclusive_ns(parent) == 0


def test_transfer_exclusive_time_splits_channel_vs_ipi():
    t = node("pisces.transfer", 0, 1000, marshal_ns=600)
    assert analysis._split_buckets(t) == {"channel": 600, "ipi": 400}
    # no marshal attr -> everything stays in the channel bucket
    t2 = node("pisces.transfer", 0, 1000)
    assert analysis._split_buckets(t2) == {"channel": 0, "ipi": 1000}


# -- attribution ---------------------------------------------------------------

def _two_op_trace():
    attach = node("xemem.attach", 0, 1000, span_id=1)
    transfer = node("pisces.transfer", 100, 700, span_id=2, parent_id=1,
                    marshal_ns=400)
    walk = node("kernel.pagetable.walk", 700, 900, span_id=3, parent_id=1)
    make = node("xemem.make", 2000, 2300, span_id=4)
    spans = [attach, transfer, walk, make]
    return analysis.TraceData(spans=spans, roots=analysis._link(spans))


def test_attribute_buckets_and_coverage():
    attribution = analysis.attribute(_two_op_trace())
    # attach: 1000 total = 400 channel + 200 ipi + 200 pagetable + 200 xemem
    # make: 300 xemem
    assert attribution.total_ns == 1300
    assert attribution.by_subsystem == {
        "xemem": 500, "channel": 400, "pagetable": 200, "ipi": 200,
    }
    assert attribution.attributed_ns == 1300
    assert attribution.coverage == pytest.approx(1.0)
    ops = {op.name: op for op in attribution.operations}
    assert ops["xemem.attach"].count == 1
    assert ops["xemem.attach"].by_subsystem["channel"] == 400
    assert ops["xemem.make"].by_subsystem == {"xemem": 300}


def test_attribute_skips_instants_and_ranks_by_total():
    spans = [
        node("marker", 50, 50, span_id=1),       # zero-duration instant
        node("big", 0, 1000, span_id=2),
        node("small", 0, 10, span_id=3),
    ]
    trace = analysis.TraceData(spans=spans, roots=analysis._link(spans))
    attribution = analysis.attribute(trace)
    assert [op.name for op in attribution.operations] == ["big", "small"]
    assert attribution.total_ns == 1010


def test_critical_path_follows_longest_child():
    root = node("a", 0, 1000)
    short = node("b", 0, 100)
    long = node("c", 100, 900)
    leaf = node("d", 200, 700)
    long.children = [leaf]
    root.children = [short, long]
    assert analysis.critical_path(root) == [
        ("a", 1000), ("c", 800), ("d", 500),
    ]


def test_aggregated_ops_keep_the_longest_exemplar_critical_path():
    spans = [
        node("op", 0, 100, span_id=1),
        node("op", 200, 800, span_id=2),
        node("inner", 300, 500, span_id=3, parent_id=2),
    ]
    trace = analysis.TraceData(spans=spans, roots=analysis._link(spans))
    (op,) = analysis.attribute(trace).operations
    assert op.count == 2
    assert op.critical_path == [("op", 600), ("inner", 200)]


# -- rendering -----------------------------------------------------------------

def test_render_report_shows_tables_and_critical_path():
    text = analysis.render_report(analysis.attribute(_two_op_trace()),
                                  source="test")
    assert "per-subsystem cost attribution" in text
    assert "coverage 100.0%" in text
    assert "TOTAL (attributed)" in text
    assert "channel" in text and "ipi" in text
    assert "critical path: xemem.attach" in text
    assert "WARNING" not in text


def test_render_report_warns_on_dropped_spans():
    attribution = analysis.attribute(_two_op_trace())
    attribution.dropped = 17
    text = analysis.render_report(attribution)
    assert "WARNING: 17 spans were DROPPED" in text
    assert "TRUNCATED" in text
