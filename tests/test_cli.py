"""Smoke tests for the ``python -m repro`` command line."""

import pytest

from repro.__main__ import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig5", "fig6", "fig7", "fig8", "fig9", "table2",
                 "ablations", "explain"):
        assert name in out


def test_fig5_command(capsys):
    from repro.bench import figures
    from repro.bench.experiments import EXPERIMENTS

    assert main(["fig5", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "attach GiB/s" in out
    assert "regenerated" in out
    # the CLI prints exactly the text the bench writes to results/
    rendered = EXPERIMENTS["fig5"].render(figures.fig5_throughput(reps=2))
    assert out.startswith(rendered + "\n[fig5 regenerated")


def test_fig7_command(capsys):
    assert main(["fig7", "--seconds", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "SMI" in out


def test_explain_command(capsys):
    assert main(["explain"]) == 0
    out = capsys.readouterr().out
    assert "Kitten -> Linux (native)" in out
    assert "VMM memory-map inserts" in out
    assert "TOTAL" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_trace_and_metrics_flags(tmp_path, capsys):
    import json

    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert main(["explain", "--trace", str(trace),
                 "--metrics", "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "== metrics" in out

    doc = json.loads(trace.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert spans, "trace should contain completed spans"
    cats = {e["cat"] for e in spans}
    assert "xemem" in cats and "pisces" in cats

    snap = json.loads(metrics.read_text())
    assert len(snap) >= 10
    assert snap["xemem.attach.count"] >= 1


def test_jsonl_trace_format(tmp_path):
    import json

    trace = tmp_path / "t.jsonl"
    assert main(["explain", "--trace", str(trace),
                 "--trace-format", "jsonl"]) == 0
    lines = [json.loads(line)
             for line in trace.read_text().splitlines() if line]
    assert lines and all("name" in rec and "start_ns" in rec for rec in lines)


def test_inspect_command(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["explain", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "spans" in out
    assert "xemem.attach" in out
    assert "per track" in out


def test_inspect_shows_per_name_duration_stats(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["explain", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace)]) == 0
    out = capsys.readouterr().out
    for col in ("count", "total ms", "mean us", "max us"):
        assert col in out
    assert "WARNING" not in out  # nothing dropped


def test_inspect_attribute_flag_adds_breakdown(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["explain", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace), "--attribute"]) == 0
    out = capsys.readouterr().out
    assert "per-subsystem cost attribution" in out
    assert "critical path:" in out


def _truncated_trace(tmp_path):
    """A Chrome trace recorded with a tiny ring cap (spans dropped)."""
    from repro import obs
    from repro.bench import figures

    trace = tmp_path / "t.json"
    with obs.observing(trace=True, metrics=False, max_trace_events=5) as ctx:
        figures.fig5_throughput(reps=1)
    assert ctx.tracer.dropped > 0
    with open(trace, "w") as fp:
        ctx.tracer.to_chrome(fp)
    return trace, ctx.tracer.dropped


def test_inspect_warns_loudly_about_dropped_spans(tmp_path, capsys):
    trace, dropped = _truncated_trace(tmp_path)
    assert main(["inspect", str(trace)]) == 0  # inspect stays advisory
    out = capsys.readouterr().out
    assert f"WARNING: {dropped} spans were DROPPED" in out
    assert "TRUNCATED" in out


def test_report_exits_3_when_spans_were_dropped(tmp_path, capsys):
    """Truncated attribution is a CI failure, not a footnote: report
    still prints the warning but exits 3."""
    trace, dropped = _truncated_trace(tmp_path)
    assert main(["report", str(trace)]) == 3
    out = capsys.readouterr().out
    assert f"WARNING: {dropped} spans were DROPPED" in out
    assert "TRUNCATED" in out


def test_report_json_surfaces_drop_counts(tmp_path, capsys):
    import json

    trace, dropped = _truncated_trace(tmp_path)
    assert main(["report", str(trace), "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["dropped"] == dropped
    assert doc["truncated"] is True
    assert doc["coverage"] <= 1.0
    assert doc["by_subsystem"]


def test_report_json_clean_trace_exits_0(tmp_path, capsys):
    import json

    trace = tmp_path / "t.json"
    assert main(["explain", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dropped"] == 0
    assert doc["truncated"] is False
    assert doc["spans"] > 0
    assert {"name", "count", "total_ns"} <= set(doc["operations"][0])


def test_report_command_attributes_a_fig5_trace(tmp_path, capsys):
    """Acceptance: a Table-2-style breakdown whose buckets cover >= 95%
    of the recorded span time of a Fig. 5 run."""
    import re

    trace = tmp_path / "t.json"
    assert main(["fig5", "--reps", "1", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "per-subsystem cost attribution" in out
    for bucket in ("channel", "ipi", "xemem"):
        assert bucket in out
    assert "TOTAL (attributed)" in out
    (coverage,) = re.findall(r"coverage ([0-9.]+)%", out.splitlines()[0])
    assert float(coverage) >= 95.0


def test_report_round_trips_jsonl_traces(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    assert main(["explain", "--trace", str(trace),
                 "--trace-format", "jsonl"]) == 0
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
    assert "per-subsystem cost attribution" in capsys.readouterr().out


def test_report_rejects_garbage_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not a trace")
    with pytest.raises(SystemExit, match="not a Chrome-trace or JSONL"):
        main(["report", str(bad)])
    with pytest.raises(SystemExit, match="cannot read"):
        main(["report", str(tmp_path / "absent.json")])


def test_inspect_requires_target():
    with pytest.raises(SystemExit):
        main(["inspect"])


def test_report_requires_target():
    with pytest.raises(SystemExit):
        main(["report"])


# -- serve-report --------------------------------------------------------------

SERVE_ARGS = ["serve-report", "--seed", "3", "--sessions", "3", "--ops", "2",
              "--pages", "4", "--window-ns", "50000"]


def test_serve_report_prints_summary_and_verdicts(capsys):
    assert main(list(SERVE_ARGS)) == 0
    out = capsys.readouterr().out
    assert "serve seed=3" in out
    assert "ops: 6 total" in out
    assert "windows:" in out
    assert "SLOs:" in out
    assert "journeys" in out


def test_serve_report_writes_all_exports_byte_identically(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(SERVE_ARGS + ["--out-dir", str(out_a)]) == 0
    assert main(SERVE_ARGS + ["--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    names = ["dashboard.html", "flamegraph.folded", "metrics.prom",
             "timeseries.json", "slo.json", "journeys.json"]
    for name in names:
        a, b = (out_a / name).read_bytes(), (out_b / name).read_bytes()
        assert a, f"{name} is empty"
        assert a == b, f"{name} differs between identical runs"
    # the engine/fastpath internals never leak into the exports
    prom = (out_a / "metrics.prom").read_text()
    assert "engine_" not in prom and "fastpath_" not in prom


def test_serve_report_fail_on_violation_exit_code(capsys):
    # an impossible objective must trip the violation exit code (4)
    args = SERVE_ARGS + ["--slo", "xemem.attach.ns.p99 < 1ns",
                         "--fail-on-violation"]
    assert main(args) == 4
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    # without the flag the same violations only report, exit 0
    assert main(SERVE_ARGS + ["--slo", "xemem.attach.ns.p99 < 1ns"]) == 0


def test_serve_report_rejects_bad_slo_spec():
    with pytest.raises(SystemExit):
        main(["serve-report", "--slo", "not a spec"])
