"""``python -m repro serve-report``: the serving-telemetry pipeline, end to end.

Runs the closed-loop session driver
(:func:`repro.workloads.sessions.run_sessions`) under the full
observability stack — span tracing with request-journey tags,
tumbling-window time-series, declarative SLO evaluation — and renders
every exporter:

* ``dashboard.html`` — self-contained single-file dashboard
  (:func:`repro.obs.export.dashboard_html`);
* ``flamegraph.folded`` — folded stacks for ``flamegraph.pl``/speedscope;
* ``metrics.prom`` — Prometheus text exposition;
* ``timeseries.json`` / ``slo.json`` / ``journeys.json`` — the raw
  window stream, verdicts, and per-request journeys;
* ``incident-slo/`` — a :mod:`repro.obs.flightrec` bundle, written only
  when an objective was violated (the earliest breach is the trigger).

Everything runs on the virtual clock: two invocations with the same
arguments produce byte-identical files, and switching the simulation
to its detailed twins (``REPRO_FIDELITY=detailed``) changes nothing —
the export excludes the two metric families (``engine.*``,
``fastpath.*``) that legitimately differ between fidelity modes; the
differential contract covers the rest.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional

from repro import obs
from repro.obs import analysis
from repro.obs.export import dashboard_html, folded_stacks, prometheus_text
from repro.obs.slo import SloSpec, evaluate
from repro.obs.tracer import write_text
from repro.workloads.sessions import SessionConfig, run_sessions

#: Metric prefixes excluded from every export: the two families that
#: legitimately differ between the fast and slow simulation paths.
EXPORT_EXCLUDE = ("engine.", "fastpath.")

#: Objectives evaluated when no ``--slo`` is given.
DEFAULT_SLOS = (
    "xemem.attach.ns.p99 < 25us over 200us",
    "xemem.req.timeouts.count < 1 over 1ms",
)

#: The histogram the dashboard's quantile chart plots.
CHART_METRIC = "xemem.attach.ns"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro serve-report",
        description=(
            "Run the closed-loop serving scenario under full telemetry "
            "and export time-series, SLO verdicts, journeys, a "
            "flamegraph, Prometheus text, and an HTML dashboard."
        ),
    )
    p.add_argument("--seed", type=int, default=0,
                   help="session think-time RNG seed (default 0)")
    p.add_argument("--sessions", type=int, default=6,
                   help="concurrent client sessions (default 6)")
    p.add_argument("--ops", type=int, default=8,
                   help="closed-loop rounds per session (default 8)")
    p.add_argument("--cokernels", type=int, default=2,
                   help="exporting co-kernels (default 2)")
    p.add_argument("--pages", type=int, default=16,
                   help="pages per exported segment (default 16)")
    p.add_argument("--mean-think-ns", type=int, default=20_000,
                   help="mean think time between rounds (default 20000)")
    p.add_argument("--window-ns", type=int, default=50_000,
                   help="tumbling-window width in virtual ns (default 50000)")
    p.add_argument("--slo", action="append", metavar="SPEC",
                   help="objective to evaluate (repeatable; see "
                        "docs/OBSERVABILITY.md for the grammar). "
                        f"Defaults: {', '.join(DEFAULT_SLOS)}")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write dashboard.html, flamegraph.folded, "
                        "metrics.prom, timeseries.json, slo.json, and "
                        "journeys.json under DIR")
    p.add_argument("--journeys", type=int, default=10,
                   help="journeys shown in the summary and dashboard "
                        "(default 10)")
    p.add_argument("--fail-on-violation", action="store_true",
                   help="exit 4 when any SLO is violated")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        specs = [SloSpec.parse(s) for s in (args.slo or DEFAULT_SLOS)]
    except ValueError as exc:
        raise SystemExit(str(exc))

    cfg = SessionConfig(
        seed=args.seed,
        sessions=args.sessions,
        ops=args.ops,
        cokernels=args.cokernels,
        pages=args.pages,
        mean_think_ns=args.mean_think_ns,
    )
    # The scope installs the hooks before the rig (and its engine) is
    # built inside run_sessions, so every event flows through them.
    with obs.observing(trace=True, metrics=True, timeseries=True,
                       window_ns=args.window_ns, flightrec=True) as ctx:
        report = run_sessions(cfg)
        ctx.timeseries.finish(report.end_ns)

    trace = analysis.from_tracer(ctx.tracer)
    all_journeys = analysis.journeys(trace)
    slo_report = evaluate(specs, ctx.timeseries,
                          journeys=all_journeys, trace=trace)
    top_journeys = analysis.longest_journeys(all_journeys, args.journeys)

    lines = report.lines()
    windows_line = (f"  windows: {len(ctx.timeseries)} x "
                    f"{args.window_ns} ns")
    if ctx.timeseries.dropped:
        windows_line += f" ({ctx.timeseries.dropped} dropped by ring cap)"
    lines.append(windows_line)
    lines.append(f"  spans: {len(trace.spans)}"
                 + (f" ({trace.dropped} dropped)" if trace.dropped else "")
                 + f", journeys: {len(all_journeys)}")
    print("\n".join(lines))
    print("\nSLOs:")
    print("\n".join(slo_report.lines()))
    print()
    print(analysis.render_journeys(all_journeys, top=args.journeys))

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        meta = {
            "seed": cfg.seed,
            "sessions": cfg.sessions,
            "ops": cfg.ops,
            "cokernels": cfg.cokernels,
            "pages": cfg.pages,
            "window_ns": args.window_ns,
            "end_ns": report.end_ns,
            "ops_ok": report.ops_ok,
            "ops_error": report.ops_error,
            "journeys_total": len(all_journeys),
        }
        ts_doc = ctx.timeseries.to_doc(EXPORT_EXCLUDE)
        doc = {
            "meta": meta,
            "timeseries": ts_doc,
            "chart_metric": CHART_METRIC,
            "slo": slo_report.to_doc(),
            "journeys": [j.to_doc() for j in top_journeys],
        }
        outputs = (
            ("dashboard.html", dashboard_html(doc)),
            ("flamegraph.folded", folded_stacks(trace)),
            ("metrics.prom",
             prometheus_text(ctx.metrics, exclude_prefixes=EXPORT_EXCLUDE)),
            ("timeseries.json",
             json.dumps(ts_doc, sort_keys=True, indent=2) + "\n"),
            ("slo.json",
             json.dumps(slo_report.to_doc(), sort_keys=True, indent=2)
             + "\n"),
            ("journeys.json",
             json.dumps([j.to_doc() for j in all_journeys],
                        sort_keys=True, indent=2) + "\n"),
        )
        for name, text in outputs:
            path = os.path.join(args.out_dir, name)
            write_text(path, text)
            print(f"[{name}: {len(text)} bytes -> {path}]")
        if not slo_report.ok:
            # Feed the verdicts into the black box: each breached window
            # is a note, the earliest breach is the incident trigger.
            recorder = ctx.flightrec
            for v in slo_report.violations:
                recorder.note("slo.violation", v.time_ns, slo=v.slo,
                              detail=v.detail)
            first = slo_report.violations[0]
            recorder.trigger("slo.violation", first.time_ns, slo=first.slo,
                             detail=first.detail)
            bundle_path = recorder.dump(
                os.path.join(args.out_dir, "incident-slo"),
                {"command": "serve-report", "seed": cfg.seed,
                 "slos": [s.raw for s in specs]},
            )
            print(f"[incident bundle: {bundle_path}]")

    if args.fail_on_violation and not slo_report.ok:
        return 4
    return 0
