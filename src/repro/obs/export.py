"""Deterministic exporters: Prometheus text, folded stacks, HTML dashboard.

Three render-only surfaces over already-recorded observability state —
none of them touch simulation state, all of them emit byte-identical
output for identical runs (sorted iteration everywhere, no wallclock):

* :func:`prometheus_text` — Prometheus text exposition (version 0.0.4)
  of a :class:`~repro.obs.metrics.MetricsRegistry`: counters, gauges,
  and histograms with cumulative ``_bucket{le=...}`` series plus
  ``_count``/``_sum``. Dot-paths become underscore names
  (``xemem.attach.ns`` → ``xemem_attach_ns``).
* :func:`folded_stacks` — the folded single-line-per-stack format
  consumed by ``flamegraph.pl`` and speedscope: one
  ``root;child;leaf <value>`` line per distinct span path, the value
  being **exclusive virtual nanoseconds** summed over every occurrence
  of the path (so the flame graph's widths add up to total attributed
  time with no double counting).
* :func:`dashboard_html` — a single self-contained HTML file (inline
  JSON + vanilla JS + inline SVG, no network, no external assets)
  rendering the time-series quantile chart, the SLO verdict table, and
  the top request journeys.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple

from repro.obs.analysis import TraceData, tree_exclusive
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _prom_value(value: float) -> str:
    """Canonical number rendering: integral floats print as integers."""
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(metrics: MetricsRegistry,
                    exclude_prefixes: Tuple[str, ...] = ()) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in metrics.names():
        if any(name.startswith(p) for p in exclude_prefixes):
            continue
        metric = metrics._metrics[name]
        pname = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            cum = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                cum += count
                lines.append(
                    f'{pname}_bucket{{le="{_prom_value(float(bound))}"}} {cum}'
                )
            cum += metric.bucket_counts[-1]
            lines.append(f'{pname}_bucket{{le="+Inf"}} {cum}')
            lines.append(f"{pname}_count {metric.stats.count}")
            total = metric.stats.mean * metric.stats.count
            lines.append(f"{pname}_sum {_prom_value(total)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- folded stacks -------------------------------------------------------------


def folded_stacks(trace: TraceData) -> str:
    """Aggregate a span forest into ``flamegraph.pl`` folded lines.

    Each line is ``name;name;... <exclusive_ns>``; identical paths from
    different operations merge, and lines are emitted in sorted path
    order so the output is deterministic.
    """
    acc: Dict[Tuple[str, ...], int] = {}
    for root in trace.roots:
        path: Tuple[str, ...] = ()
        for node, depth, excl in tree_exclusive(root):
            path = path[:depth] + (node.name,)
            if excl:
                acc[path] = acc.get(path, 0) + excl
    lines = [
        ";".join(path) + f" {ns}"
        for path, ns in sorted(acc.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- HTML dashboard ------------------------------------------------------------

_DASHBOARD_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         margin: 24px; background: #11141a; color: #d8dee9; }
  h1 { font-size: 18px; } h2 { font-size: 14px; margin-top: 28px; }
  .meta { color: #7a869a; font-size: 12px; }
  table { border-collapse: collapse; font-size: 12px; margin-top: 8px; }
  th, td { border: 1px solid #2c3340; padding: 4px 10px; text-align: right; }
  th { background: #1a1f29; } td.l, th.l { text-align: left; }
  .ok { color: #7fd18c; } .bad { color: #ef6b73; font-weight: bold; }
  svg { background: #161a22; border: 1px solid #2c3340; margin-top: 8px; }
  .legend span { margin-right: 18px; font-size: 12px; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<div class="meta" id="meta"></div>
<h2>time-series (per-window latency quantiles, virtual time)</h2>
<div id="chart"></div>
<h2>SLO verdicts</h2>
<div id="slo"></div>
<h2>top journeys</h2>
<div id="journeys"></div>
<script id="data" type="application/json">__DATA__</script>
<script>
"use strict";
const DOC = JSON.parse(document.getElementById("data").textContent);
const fmtUs = ns => (ns / 1000).toFixed(1) + "us";

function el(tag, attrs, text) {
  const e = document.createElement(tag);
  for (const k in (attrs || {})) e.setAttribute(k, attrs[k]);
  if (text !== undefined) e.textContent = text;
  return e;
}

function table(headers, rows, leftCols) {
  const t = el("table");
  const hr = el("tr");
  headers.forEach((h, i) =>
    hr.appendChild(el("th", i < leftCols ? {class: "l"} : {}, h)));
  t.appendChild(hr);
  rows.forEach(row => {
    const tr = el("tr");
    row.forEach((c, i) => {
      const td = el("td", i < leftCols ? {class: "l"} : {});
      if (c && typeof c === "object") {
        td.textContent = c.text;
        td.className += " " + c.cls;
      } else td.textContent = c;
      tr.appendChild(td);
    });
    t.appendChild(tr);
  });
  return t;
}

// -- meta line ---------------------------------------------------------------
const metaBits = Object.keys(DOC.meta).sort().map(
  k => k + "=" + DOC.meta[k]);
document.getElementById("meta").textContent = metaBits.join("  ");

// -- quantile chart (inline SVG, no dependencies) ----------------------------
(function chart() {
  const series = DOC.timeseries.windows;
  const metric = DOC.chart_metric;
  const pts = [];
  series.forEach(w => {
    const h = w.histograms[metric];
    if (h) pts.push({t: w.end_ns, p50: h.p50, p95: h.p95, p99: h.p99});
  });
  const host = document.getElementById("chart");
  if (!pts.length) {
    host.appendChild(el("div", {class: "meta"},
      "no windows recorded samples for " + metric));
    return;
  }
  const W = 900, H = 260, PAD = 48;
  const t0 = DOC.timeseries.windows[0].start_ns;
  const t1 = pts[pts.length - 1].t;
  const ymax = Math.max(...pts.map(p => p.p99)) * 1.15 || 1;
  const X = t => PAD + (W - 2 * PAD) * (t - t0) / Math.max(t1 - t0, 1);
  const Y = v => H - PAD + (PAD * 2 - H) * v / ymax;
  const svg = el("svg", {width: W, height: H,
                         viewBox: "0 0 " + W + " " + H});
  for (let g = 0; g <= 4; g++) {
    const v = ymax * g / 4;
    svg.appendChild(el("line", {x1: PAD, x2: W - PAD, y1: Y(v), y2: Y(v),
                                stroke: "#2c3340"}));
    const lbl = el("text", {x: 4, y: Y(v) + 4, fill: "#7a869a",
                            "font-size": "10"});
    lbl.textContent = fmtUs(v);
    svg.appendChild(lbl);
  }
  const colors = {p50: "#7fd18c", p95: "#e5c07b", p99: "#ef6b73"};
  ["p50", "p95", "p99"].forEach(q => {
    const d = pts.map(p => X(p.t).toFixed(1) + "," + Y(p[q]).toFixed(1))
                 .join(" ");
    svg.appendChild(el("polyline", {points: d, fill: "none",
                                    stroke: colors[q], "stroke-width": 1.5}));
  });
  host.appendChild(svg);
  const legend = el("div", {class: "legend"});
  ["p50", "p95", "p99"].forEach(q => {
    const s = el("span", {style: "color:" + colors[q]},
                 q + " " + metric);
    legend.appendChild(s);
  });
  host.appendChild(legend);
})();

// -- SLO table ---------------------------------------------------------------
(function slo() {
  const rows = DOC.slo.specs.map(spec => {
    const bad = DOC.slo.violations.filter(v => v.slo === spec);
    const judged = DOC.slo.windows_evaluated[spec] || 0;
    const verdict = bad.length
      ? {text: "VIOLATED x" + bad.length, cls: "bad"}
      : {text: "OK", cls: "ok"};
    const worst = bad.length
      ? bad.map(v => v.observed).sort((a, b) => b - a)[0].toFixed(1)
      : "-";
    const offenders = bad.length && bad[0].journey_ids.length
      ? bad[0].journey_ids.slice(0, 3).join(", ") : "-";
    return [spec, verdict, judged, worst, offenders];
  });
  document.getElementById("slo").appendChild(
    table(["objective", "verdict", "windows", "worst observed",
           "offending journeys"], rows, 1));
})();

// -- journeys table ----------------------------------------------------------
(function journeys() {
  const rows = DOC.journeys.map(j => [
    j.req_id, j.op, j.start_ns, fmtUs(j.duration_ns), j.span_count,
    Object.keys(j.by_subsystem).sort(
      (a, b) => j.by_subsystem[b] - j.by_subsystem[a]
    ).slice(0, 3).map(k => k + "=" + fmtUs(j.by_subsystem[k])).join(" "),
  ]);
  document.getElementById("journeys").appendChild(
    table(["req_id", "op", "start ns", "duration", "spans",
           "top subsystems (exclusive)"], rows, 2));
})();
</script>
</body>
</html>
"""


def dashboard_html(doc: dict, title: str = "repro serve-report") -> str:
    """Render the self-contained dashboard around an inline JSON doc.

    ``doc`` must carry ``meta`` (run parameters), ``timeseries`` (a
    :meth:`~repro.obs.timeseries.TimeSeriesRecorder.to_doc` rendering),
    ``chart_metric`` (the histogram the chart plots), ``slo`` (an
    :meth:`~repro.obs.slo.SloReport.to_doc` rendering), and ``journeys``
    (a list of journey docs). The JSON is embedded with sorted keys so
    the file is byte-deterministic.
    """
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    # A '</script>' inside a JSON string would end the inline data block.
    payload = payload.replace("</", "<\\/")
    return (
        _DASHBOARD_TEMPLATE
        .replace("__TITLE__", title)
        .replace("__DATA__", payload)
    )
