"""Tests for request-journey reconstruction (repro.obs.analysis.journeys)."""

from repro.obs import analysis
from repro.obs.analysis import SpanNode


def node(name, start, end, span_id=None, parent_id=None, **attrs):
    return SpanNode(span_id=span_id, parent_id=parent_id, name=name,
                    track="t", start_ns=start, end_ns=end, attrs=attrs)


def trace_of(*spans):
    spans = list(spans)
    return analysis.TraceData(spans=spans, roots=analysis._link(spans))


def test_untagged_descendants_inherit_the_nearest_tagged_ancestor():
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="linux:1"),
        node("pisces.transfer", 100, 500, span_id=2, parent_id=1),
        node("kernel.pagetable.walk", 500, 800, span_id=3, parent_id=2),
    ]
    (j,) = analysis.journeys(trace_of(*spans))
    assert j.req_id == "linux:1"
    assert j.op == "xemem.attach"
    assert j.span_count == 3
    assert j.start_ns == 0 and j.end_ns == 1000


def test_spans_with_no_tag_anywhere_belong_to_no_journey():
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="linux:1"),
        node("noise.detour", 2000, 3000, span_id=2),  # untagged root
    ]
    js = analysis.journeys(trace_of(*spans))
    assert [j.req_id for j in js] == ["linux:1"]
    assert sum(j.span_count for j in js) == 1


def test_a_child_retag_starts_a_new_journey_below_the_parent():
    # a server-side span serving a different request inside a client op
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="linux:1"),
        node("xemem.owner.serve", 200, 600, span_id=2, parent_id=1,
             req_id="linux:2"),
    ]
    js = analysis.journeys(trace_of(*spans))
    by_id = {j.req_id: j for j in js}
    assert set(by_id) == {"linux:1", "linux:2"}
    assert by_id["linux:1"].span_count == 1
    assert by_id["linux:2"].op == "xemem.owner.serve"


def test_journeys_cross_process_spans_share_one_id():
    # same req_id tagged on two *root* spans in different tracks/processes
    # (the cross-enclave case: no parent link ties them together)
    a = node("xemem.attach", 0, 1000, span_id=1, req_id="linux:7")
    b = node("xemem.owner.serve", 300, 700, span_id=2, req_id="linux:7")
    b.track = "kitten0"
    (j,) = analysis.journeys(trace_of(a, b))
    assert j.span_count == 2
    assert j.op == "xemem.attach"  # earliest tagged span names the op
    # both parentless members are phase roots, in time order
    assert [name for name, _ in j.critical_path] == [
        "xemem.attach", "xemem.owner.serve",
    ]


def test_by_subsystem_sums_exclusive_time_without_double_counting():
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="r"),
        node("pisces.transfer", 100, 500, span_id=2, parent_id=1,
             marshal_ns=300),
    ]
    (j,) = analysis.journeys(trace_of(*spans))
    # attach keeps only its exclusive 600ns; the transfer's 400ns splits
    # marshal/ipi -- totals add up to wall time, nothing counted twice
    assert j.by_subsystem == {"xemem": 600, "channel": 300, "ipi": 100}
    assert sum(j.by_subsystem.values()) == 1000


def test_cross_process_member_nested_in_time_counts_once():
    # The owner's serving span is recorded by another process (no parent
    # link), while the client's attach is still open: each instant goes to
    # the innermost member, with the serving span adopted by the attach.
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="linux:1"),
        node("pisces.transfer", 100, 200, span_id=2, parent_id=1,
             marshal_ns=0),
        node("xemem.serve_attach", 200, 600, span_id=3, req_id="linux:1"),
        node("kernel.pagetable.walk", 200, 500, span_id=4, parent_id=3),
        node("linux.map_remote", 600, 950, span_id=5, parent_id=1),
    ]
    (j,) = analysis.journeys(trace_of(*spans))
    assert j.by_subsystem == {
        "xemem": 250, "ipi": 100, "pagetable": 300, "map_install": 350,
    }
    assert sum(j.by_subsystem.values()) == j.duration_ns


def test_members_with_identical_intervals_split_their_union_once():
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="r"),
        node("pisces.transfer", 200, 400, span_id=2, req_id="r"),
        node("pisces.transfer", 200, 400, span_id=3, req_id="r"),
        node("xemem.serve_attach", 1500, 2000, span_id=4, req_id="r"),
    ]
    (j,) = analysis.journeys(trace_of(*spans))
    # the gap between 1000 and 1500 belongs to no member
    assert sum(j.by_subsystem.values()) == 1500 == j.duration_ns - 500


def test_critical_path_lists_only_phase_roots():
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="r"),
        node("pisces.transfer", 100, 500, span_id=2, parent_id=1),
    ]
    (j,) = analysis.journeys(trace_of(*spans))
    # the transfer's parent is inside the journey, so it is not a phase root
    assert j.critical_path == [("xemem.attach", 1000)]


def test_journeys_sorted_by_start_then_req_id():
    spans = [
        node("xemem.get", 500, 900, span_id=1, req_id="b"),
        node("xemem.attach", 0, 400, span_id=2, req_id="c"),
        node("xemem.make", 0, 300, span_id=3, req_id="a"),
    ]
    js = analysis.journeys(trace_of(*spans))
    assert [j.req_id for j in js] == ["a", "c", "b"]


def test_journey_doc_and_render():
    spans = [
        node("xemem.attach", 0, 1000, span_id=1, req_id="linux:1"),
        node("pisces.transfer", 100, 500, span_id=2, parent_id=1,
             marshal_ns=400),
    ]
    (j,) = analysis.journeys(trace_of(*spans))
    doc = j.to_doc()
    assert doc["req_id"] == "linux:1"
    assert doc["duration_ns"] == 1000
    # by_subsystem renders biggest-first for the dashboard
    assert list(doc["by_subsystem"]) == ["xemem", "channel"]
    text = analysis.render_journeys([j])
    assert "linux:1" in text and "xemem.attach" in text


def test_same_req_id_in_two_rigs_is_two_journeys():
    # request ids restart in every rig; the tracer tags spans of a
    # trace's second and later rigs with ``rig``
    spans = [
        node("xemem.make", 0, 1000, span_id=1, req_id="kitten0:2"),
        node("xemem.make", 0, 1500, span_id=2, req_id="kitten0:2", rig=1),
        node("pisces.transfer", 100, 500, span_id=3, parent_id=2),
    ]
    js = analysis.journeys(trace_of(*spans))
    assert [(j.req_id, j.span_count, j.duration_ns) for j in js] == [
        ("kitten0:2", 1, 1000), ("kitten0:2@rig1", 2, 1500),
    ]


def test_explain_capture_journeys_stay_within_one_rig(tmp_path, capsys):
    """``explain`` builds a native rig, then a VM rig, in one traced run;
    its journeys must be exactly those of the two rigs traced apart."""
    from repro import obs
    from repro.__main__ import main
    from repro.bench.explain import explain_native_attach, explain_vm_attach

    path = str(tmp_path / "e.json")
    assert main(["explain", "--trace", path]) == 0
    capsys.readouterr()
    apart = []
    for run in (explain_native_attach, explain_vm_attach):
        with obs.observing(trace=True, metrics=False) as ctx:
            run()
        apart += analysis.journeys(analysis.from_tracer(ctx.tracer))

    def shape(js):
        return sorted((j.op, j.span_count, j.duration_ns) for j in js)

    assert shape(analysis.journeys(analysis.load_trace(path))) == shape(apart)
