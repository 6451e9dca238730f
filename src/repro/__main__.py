"""Command-line entry point: regenerate the paper's figures and tables.

Usage::

    python -m repro list
    python -m repro fig5|fig6|table2|ablation_memmap|ablation_ipi|
                    ablation_sensitivity [--reps N]
    python -m repro fig7 [--seconds N]
    python -m repro fig8|fig9|ablation_notify [--runs N]
    python -m repro ablations [--reps N] [--runs N]
    python -m repro explain
    python -m repro all
    python -m repro chaos [--seed N] [--plan SPEC] [--cokernels N] [--ops N]
                          [--bundle-dir DIR] [--overload SPEC]
    python -m repro soak [--seed N] [--rates R1,R2,...] [--plan SPEC]
                         [--overload SPEC] [--out PATH] [--bundle-dir DIR]
    python -m repro inspect trace.json
    python -m repro report trace.json [--json]
    python -m repro diagnose <bundle-dir> [--window-ns N] [--json]
    python -m repro perf-diff baseline current [--top N] [--json]
                              [--min-coverage F]
    python -m repro serve-report [--seed N] [--sessions N] [--slo SPEC]
                                 [--out-dir DIR] [--fail-on-violation]
    python -m repro lint [paths...] [--format text|json] [--select ...]
                         [--ignore ...] [--output FILE] [--list-rules]

``report`` exits 3 when the trace was truncated by the span ring cap
(attribution coverage below 100% due to drops). ``serve-report`` runs
the closed-loop serving scenario under the full telemetry pipeline
(time-series, SLOs, journeys, exporters) — see repro.obs.serve_cli.
``chaos`` exits 2 (and prints the incident-bundle path) when the run
ends with unreclaimed crash state; ``soak`` exits 4 on an SLO breach of
the protected run (docs/OVERLOAD.md); ``diagnose`` renders a bundle as
a causal timeline and ``perf-diff`` attributes the virtual-time delta
between two captures — see docs/OBSERVABILITY.md.

Each experiment command builds the experiment from scratch, runs it on
the virtual clock, and prints the same text the bench writes to
``benchmarks/results/`` (see repro.bench.experiments). A count flag the
command does not read is ignored; an omitted one defaults to the count
the committed results text was made with.

Every figure command also accepts the observability flags::

    --trace out.json     record spans, write a Perfetto-loadable trace
    --trace-format jsonl write JSONL instead of Chrome trace format
    --metrics            print a metrics snapshot after the figures
    --metrics-out m.json write the metrics snapshot to a file
    --flightrec          arm the flight-recorder black box (dumps an
                         incident bundle on unhandled exceptions)
    --flightrec-dump DIR arm the black box and always dump a bundle to DIR

All recording is against the virtual clock: traces and metrics are
byte-identical between identical runs. Host time per simulator layer is
measured outside the package, by ``benchmarks/e2e/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro import obs
from repro.bench.experiments import EXPERIMENTS
from repro.bench.report import render_table
from repro.hw.costs import MB
from repro.obs.tracer import write_text
from repro.pipes import tolerate_closed_stdout


def _explain(args) -> str:
    """Stage-by-stage cost breakdown of one native and one VM attach."""
    from repro.bench.explain import explain_native_attach, explain_vm_attach

    parts = []
    for breakdown in (explain_native_attach(), explain_vm_attach()):
        parts.append(
            render_table(
                ["stage", "time", "share"],
                breakdown.rows(),
                title=f"{breakdown.path}: {breakdown.gib_s:.2f} GiB/s for "
                      f"{breakdown.size_bytes // MB} MB",
            )
        )
    return "\n\n".join(parts)


def _duration_stats(spans, key):
    """``(key, (count, total ns, max ns))`` per span key, largest total
    first."""
    stats: dict = {}
    for s in spans:
        n, total, mx = stats.get(key(s), (0, 0, 0))
        stats[key(s)] = (n + 1, total + s.duration_ns, max(mx, s.duration_ns))
    return sorted(stats.items(), key=lambda kv: -kv[1][1])


def _inspect(args) -> str:
    """Summarize a trace export: spans per name and per track."""
    if not args.target:
        raise SystemExit("usage: python -m repro inspect <trace.json>")
    from repro.obs import analysis

    trace = analysis.load_or_exit(analysis.load_trace, args.target)
    spans = trace.spans
    if not spans:
        return f"{args.target}: no spans recorded"

    by_name = _duration_stats(spans, lambda s: s.name)
    part1 = render_table(
        ["span", "count", "total ms", "mean us", "max us"],
        [(name, n, f"{total / 1e6:.3f}", f"{total / n / 1e3:.1f}",
          f"{mx / 1e3:.1f}") for name, (n, total, mx) in by_name],
        title=f"{args.target}: {len(spans)} spans, {len(by_name)} names",
    )
    part2 = render_table(
        ["track", "spans", "total ms"],
        [(track, n, f"{total / 1e6:.3f}") for track, (n, total, _mx)
         in _duration_stats(spans, lambda s: s.track)],
        title="per track (virtual time):",
    )
    return "\n\n".join(
        analysis.drop_warnings(trace.dropped, args.target) + [part1, part2]
    )


def _report(args):
    """Table-2-style per-subsystem cost breakdown of a trace file.

    Returns ``(text, exit_code)``: exit 3 when spans were dropped by the
    ring cap, so CI treats a truncated attribution as a failure instead
    of silently under-counting.
    """
    if not args.target:
        raise SystemExit("usage: python -m repro report <trace.json> [--json]")
    from repro.obs import analysis

    trace = analysis.load_or_exit(analysis.load_trace, args.target)
    code = 3 if trace.dropped else 0
    attribution = analysis.attribute(trace)
    if getattr(args, "json", False):
        return json.dumps(attribution.to_doc(args.target), sort_keys=True,
                          indent=2), code
    if not trace.spans:
        return f"{args.target}: no spans recorded", code
    return analysis.render_report(attribution, source=args.target), code


def _chaos(args):
    """Seeded fault-injection run: lossy channels + enclave crash.

    Returns ``(text, exit_code)``: exit 2 when the run ended with
    unreclaimed crash state (segids still registered to a dead owner, or
    a run that never quiesced) — the incident bundle path is in the
    report text.
    """
    from repro.faults.chaos import run_chaos

    report = run_chaos(seed=args.seed, plan_spec=args.plan,
                       cokernels=args.cokernels, ops=args.ops,
                       flightrec_dir=args.bundle_dir,
                       overload_spec=args.overload)
    return "\n".join(report.lines()), 0 if report.reclaimed else 2


def _experiment(entry):
    """The CLI command for one registry entry: its count flag falls back
    to the entry's default, and it prints exactly ``render(result)``."""

    def command(args) -> str:
        count = getattr(args, entry.flag)
        return entry.render(entry.run(entry.count if count is None else count))

    command.__doc__ = entry.title
    return command


COMMANDS = {name: _experiment(entry) for name, entry in EXPERIMENTS.items()}
COMMANDS["explain"] = _explain

#: Commands that run several others, in this order.
GROUPS = {
    "ablations": [name for name in EXPERIMENTS if name.startswith("ablation_")],
    "all": list(COMMANDS),
}


@tolerate_closed_stdout()
def main(argv=None) -> int:
    """Parse arguments and run the requested command(s)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        # The linter owns its argument surface (docs/LINT.md); hand the
        # rest of the command line straight to it.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["serve-report"]:
        # Same delegation pattern: the serving-telemetry pipeline owns
        # its argument surface (docs/OBSERVABILITY.md).
        from repro.obs.serve_cli import main as serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["soak"]:
        # Overload soak: ramped open-loop load through saturation,
        # protected vs baseline (docs/OVERLOAD.md). Exits 4 on an SLO
        # breach, printing the incident-bundle path.
        from repro.workloads.soak import main as soak_main

        return soak_main(argv[1:])
    if argv[:1] == ["diagnose"]:
        # Incident-bundle renderer (docs/OBSERVABILITY.md).
        from repro.obs.flightrec import main as diagnose_main

        return diagnose_main(argv[1:])
    if argv[:1] == ["perf-diff"]:
        # Differential regression attribution between two captures.
        from repro.obs.diff import main as diff_main

        return diff_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the XEMEM paper's evaluation figures.",
    )
    parser.add_argument("command",
                        choices=sorted(COMMANDS) + sorted(GROUPS)
                        + ["chaos", "inspect", "list", "report"])
    parser.add_argument("target", nargs="?",
                        help="trace file for the 'inspect'/'report' commands")
    parser.add_argument("--json", action="store_true",
                        help="report: machine-readable JSON instead of tables")
    parser.add_argument("--reps", type=int,
                        help="attachments per measurement (paper: 500; "
                             "default: the experiment's count)")
    parser.add_argument("--runs", type=int,
                        help="seeded runs per fig8/fig9/ablation_notify cell "
                             "(paper: 10/5; default: the experiment's count)")
    parser.add_argument("--seconds", type=int,
                        help="fig7 measurement window "
                             "(default: the experiment's count)")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos: fault-plan RNG seed")
    parser.add_argument("--plan", metavar="SPEC",
                        help="chaos: fault plan spec (see docs/FAULTS.md)")
    parser.add_argument("--cokernels", type=int, default=3,
                        help="chaos: number of Kitten co-kernels")
    parser.add_argument("--ops", type=int, default=25,
                        help="chaos: attach/detach rounds per client")
    parser.add_argument("--overload", metavar="SPEC",
                        help="chaos: arm admission-control/backpressure "
                             "overload protection (see docs/OVERLOAD.md)")
    parser.add_argument("--bundle-dir", metavar="DIR", default="incident-chaos",
                        help="chaos: where an incident bundle is written when "
                             "the run crashed an enclave or left unreclaimed "
                             "state (default: %(default)s)")
    parser.add_argument("--trace", metavar="PATH",
                        help="record spans and write a Chrome/Perfetto trace")
    parser.add_argument("--trace-format", choices=("chrome", "jsonl"),
                        default="chrome",
                        help="trace export format (default: chrome)")
    parser.add_argument("--metrics", action="store_true",
                        help="print a metrics snapshot after the figures")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the metrics snapshot to PATH as JSON")
    parser.add_argument("--flightrec", action="store_true",
                        help="arm the flight-recorder black box; an incident "
                             "bundle is dumped on unhandled exceptions")
    parser.add_argument("--flightrec-dump", metavar="DIR",
                        help="arm the black box and always dump an incident "
                             "bundle to DIR when the run ends")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(COMMANDS):
            print(name, "-", COMMANDS[name].__doc__)
        for name in sorted(GROUPS):
            print(name, "- runs", ", ".join(GROUPS[name]))
        return 0
    if args.command == "inspect":
        print(_inspect(args))
        return 0
    if args.command == "report":
        text, code = _report(args)
        print(text)
        return code
    if args.command == "chaos":
        text, code = _chaos(args)
        print(text)
        return code

    want_metrics = args.metrics or bool(args.metrics_out)
    want_flightrec = args.flightrec or bool(args.flightrec_dump)
    # The engine hook serves --trace/--metrics; the black box
    # deliberately flies without one (its zero-overhead contract).
    want_engine = bool(args.trace) or want_metrics
    want_obs = want_engine or want_flightrec
    names = GROUPS.get(args.command, [args.command])

    # Fail fast on unwritable export paths, not after the whole run.
    for path in (args.trace, args.metrics_out):
        if path:
            try:
                open(path, "w").close()
            except OSError as exc:
                raise SystemExit(f"cannot write {path}: {exc.strerror}")

    with obs.observing(
        trace=bool(args.trace) or want_flightrec,
        metrics=want_metrics or want_flightrec,
        engine=want_engine,
        # Black-box-only runs fly with a bounded span tail; an explicit
        # --trace keeps its capless buffer.
        max_trace_events=None if args.trace else (512 if want_flightrec
                                                  else None),
        flightrec=want_flightrec,
    ) if want_obs else contextlib.nullcontext(obs.get()) as ctx:
        try:
            for name in names:
                t0 = time.time()  # repro: noqa[REP001] reason=CLI progress display only; never enters simulation state or exports
                print(COMMANDS[name](args))
                print(f"[{name} regenerated in {time.time() - t0:.1f}s wall]\n")  # repro: noqa[REP001] reason=CLI progress display only; never enters simulation state or exports
        except Exception as exc:
            if want_flightrec:
                path = ctx.flightrec.dump(
                    args.flightrec_dump or "incident-crash",
                    {"command": args.command}, "unhandled.exception",
                    error=type(exc).__name__,
                )
                print(f"[incident bundle: {path}]", file=sys.stderr)
            raise

        if args.trace:
            if args.trace_format == "jsonl":
                ctx.tracer.to_jsonl(args.trace)
            else:
                ctx.tracer.to_chrome(args.trace)
            print(f"[trace: {len(ctx.tracer)} spans -> {args.trace}"
                  + (f", {ctx.tracer.dropped} dropped]" if ctx.tracer.dropped
                     else "]"))
        if want_metrics:
            snap = ctx.snapshot()
            text = json.dumps(snap, sort_keys=True, indent=2)
            if args.metrics_out:
                write_text(args.metrics_out, text + "\n")
                print(f"[metrics: {len(snap)} series -> {args.metrics_out}]")
            if args.metrics:
                print(f"== metrics ({len(snap)} series) ==")
                print(text)
        if args.flightrec_dump:
            path = ctx.flightrec.dump(args.flightrec_dump,
                                      {"command": args.command})
            print(f"[incident bundle: {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
