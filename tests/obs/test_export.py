"""Tests for the deterministic exporters (repro.obs.export)."""

import json
import re

from repro.obs.analysis import SpanNode, TraceData, _link
from repro.obs.export import dashboard_html, folded_stacks, prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import write_text


def node(name, start, end, span_id=None, parent_id=None, **attrs):
    return SpanNode(span_id=span_id, parent_id=parent_id, name=name,
                    track="t", start_ns=start, end_ns=end, attrs=attrs)


def trace_of(*spans):
    spans = list(spans)
    return TraceData(spans=spans, roots=_link(spans))


# -- Prometheus text exposition ------------------------------------------------

def _full_registry():
    reg = MetricsRegistry()
    reg.counter("xemem.make.count").inc(3)
    reg.gauge("queue.depth").set(2.5)
    h = reg.histogram("xemem.attach.ns", bounds=(1000, 10_000))
    h.observe(500)
    h.observe(5000)
    h.observe(50_000)
    return reg


def test_prometheus_counter_gauge_histogram_series():
    text = prometheus_text(_full_registry())
    lines = text.splitlines()
    assert "# TYPE xemem_make_count counter" in lines
    assert "xemem_make_count 3" in lines
    assert "queue_depth 2.5" in lines
    # histogram buckets are cumulative, with the +Inf catch-all on top
    assert 'xemem_attach_ns_bucket{le="1000"} 1' in lines
    assert 'xemem_attach_ns_bucket{le="10000"} 2' in lines
    assert 'xemem_attach_ns_bucket{le="+Inf"} 3' in lines
    assert "xemem_attach_ns_count 3" in lines
    assert "xemem_attach_ns_sum 55500" in lines
    assert text.endswith("\n")


def test_prometheus_dot_paths_become_underscores():
    text = prometheus_text(_full_registry())
    # no raw dot-path survives name mangling (label values aside)
    for line in text.splitlines():
        metric_name = line.split("{")[0].split()[-1 if "#" in line else 0]
        assert "." not in metric_name


def test_prometheus_exclude_prefixes_filters_whole_families():
    reg = _full_registry()
    reg.counter("engine.events.count").inc(100)
    text = prometheus_text(reg, exclude_prefixes=("engine.", "queue."))
    assert "engine_events_count" not in text
    assert "queue_depth" not in text
    assert "xemem_make_count 3" in text


def test_prometheus_empty_registry_renders_empty():
    assert prometheus_text(MetricsRegistry()) == ""


# -- folded stacks -------------------------------------------------------------

def test_folded_stacks_values_are_exclusive_and_paths_merge():
    # two attach roots with identical child paths: the folded lines merge
    # and the values sum; child time never double-counts into the parent
    spans = [
        node("xemem.attach", 0, 1000, span_id=1),
        node("pisces.transfer", 100, 500, span_id=2, parent_id=1),
        node("xemem.attach", 2000, 2600, span_id=3),
        node("pisces.transfer", 2100, 2400, span_id=4, parent_id=3),
    ]
    text = folded_stacks(trace_of(*spans))
    assert text.splitlines() == [
        # attach exclusive: (1000-400) + (600-300) = 900
        "xemem.attach 900",
        # transfer exclusive merged: 400 + 300 = 700
        "xemem.attach;pisces.transfer 700",
    ]


def test_folded_stacks_skip_instants_and_zero_exclusive_frames():
    spans = [
        node("marker", 50, 50, span_id=1),                  # instant root
        node("wrapper", 0, 400, span_id=2),                  # fully covered
        node("inner", 0, 400, span_id=3, parent_id=2),
    ]
    text = folded_stacks(trace_of(*spans))
    # the instant contributes nothing; the wrapper has 0 exclusive ns so
    # only its child emits a line (under the wrapper's path)
    assert text.splitlines() == ["wrapper;inner 400"]


def test_folded_stacks_deterministic_sorted_output():
    spans = [
        node("b.op", 0, 100, span_id=1),
        node("a.op", 200, 300, span_id=2),
    ]
    text = folded_stacks(trace_of(*spans))
    assert text == "a.op 100\nb.op 100\n"
    assert folded_stacks(trace_of(*spans)) == text


def test_folded_stacks_empty_trace():
    assert folded_stacks(trace_of()) == ""


# -- HTML dashboard ------------------------------------------------------------

def _doc():
    return {
        "meta": {"seed": 0, "sessions": 2},
        "timeseries": {"window_ns": 100, "dropped_windows": 0, "windows": []},
        "chart_metric": "xemem.attach.ns",
        "slo": {"specs": [], "ok": True, "windows_evaluated": {},
                "violations": []},
        "journeys": [],
    }


def test_dashboard_embeds_the_doc_as_parseable_json():
    html = dashboard_html(_doc(), title="t")
    m = re.search(
        r'<script id="data" type="application/json">(.*?)</script>',
        html, re.S,
    )
    assert m is not None
    payload = json.loads(m.group(1).replace("<\\/", "</"))
    assert payload == _doc()
    assert html.count("<title>t</title>") == 1


def test_dashboard_escapes_script_closers_inside_the_payload():
    doc = _doc()
    doc["meta"]["note"] = "</script><script>alert(1)</script>"
    html = dashboard_html(doc)
    m = re.search(
        r'<script id="data" type="application/json">(.*?)</script>',
        html, re.S,
    )
    # the raw closer never appears inside the data block...
    assert "</script>" not in m.group(1)
    # ...yet unescaping recovers the exact original value
    assert json.loads(m.group(1).replace("<\\/", "</")) == doc


def test_dashboard_is_self_contained_and_deterministic():
    html = dashboard_html(_doc())
    assert dashboard_html(_doc()) == html
    assert "http://" not in html and "https://" not in html  # no CDNs
    assert "<svg" not in html  # chart is built client-side from the JSON


# -- write_text ----------------------------------------------------------------

def test_write_text_accepts_path_and_file_object(tmp_path):
    p = tmp_path / "out.txt"
    write_text(str(p), "hello\n")
    assert p.read_text() == "hello\n"
    import io
    buf = io.StringIO()
    write_text(buf, "again")
    assert buf.getvalue() == "again"
