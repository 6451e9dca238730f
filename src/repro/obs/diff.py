"""Differential regression attribution between two trace captures.

A failed gate says *that* a run regressed; this module says *where*. It loads two captures — Chrome/JSONL trace exports or incident
bundles (:mod:`repro.obs.flightrec`) — and attributes the end-to-end
virtual-time delta per subsystem bucket and per span name, using the
same exclusive-time machinery as :mod:`repro.obs.analysis`, so a
regression report reads like a Table-2 row diff: "the +1.2 ms came from
``pagetable`` (+0.9 ms) and ``channel`` (+0.3 ms), concentrated in
``kernel.pagetable.walk``".

Because both sides are virtual-time captures, the diff is exact, not
statistical: identical twins (fast vs detailed fidelity) diff to
all-zero rows — any non-zero delta between modes is a
contract violation, which is what makes this the right tool under the
repo's differential-testing methodology.

CLI::

    python -m repro perf-diff baseline.trace.json current.trace.json

CI runs it on the speed benchmark's committed and fresh
``BENCH_speed.trace.json`` captures when a speed gate fails.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import analysis
from repro.obs.flightrec import is_bundle, load_bundle


@dataclass
class CaptureProfile:
    """One capture, reduced to the numbers the diff needs."""

    source: str
    total_ns: int                                   #: sum of root durations
    by_subsystem: Dict[str, int]                    #: exclusive ns per bucket
    by_name: Dict[str, Tuple[int, int]]             #: name -> (count, excl ns)
    #: final metric values (bundle captures only)
    counters: Dict[str, Any] = field(default_factory=dict)
    dropped: int = 0


def profile_trace(trace: analysis.TraceData, source: str = "trace",
                  counters: Optional[Dict[str, Any]] = None) -> CaptureProfile:
    """Reduce a loaded trace to a :class:`CaptureProfile`."""
    attribution = analysis.attribute(trace)
    by_name: Dict[str, List[int]] = {}
    for span in trace.spans:
        by_name.setdefault(span.name, [0, 0])[0] += 1
    for root in trace.roots:
        for span, _depth, excl in analysis.tree_exclusive(root):
            by_name[span.name][1] += excl
    return CaptureProfile(
        source=source,
        total_ns=attribution.total_ns,
        by_subsystem=dict(attribution.by_subsystem),
        by_name={name: (n, ns) for name, (n, ns) in sorted(by_name.items())},
        counters=counters or {},
        dropped=trace.dropped,
    )


def load_capture(path: str) -> CaptureProfile:
    """Load a trace export or an incident bundle into a profile.

    Bundle captures profile the *trace tail* (what the flight recorder
    retained), plus the bundle's final metric values; full trace
    exports carry no counters.
    """
    if is_bundle(path):
        bundle = load_bundle(path)
        return profile_trace(bundle["trace"], source=path,
                             counters=bundle["metrics"].get("final", {}))
    return profile_trace(analysis.load_trace(path), source=path)


@dataclass
class DiffRow:
    """One subsystem (or span name) in the diff."""

    key: str
    baseline_ns: int
    current_ns: int

    @property
    def delta_ns(self) -> int:
        return self.current_ns - self.baseline_ns


@dataclass
class PerfDiff:
    """The attribution of one capture pair's virtual-time delta."""

    baseline: CaptureProfile
    current: CaptureProfile
    by_subsystem: List[DiffRow]
    by_name: List[DiffRow]
    name_counts: Dict[str, Tuple[int, int]]   #: name -> (base n, cur n)
    counter_deltas: List[Tuple[str, float, float]]

    @property
    def total_delta_ns(self) -> int:
        return self.current.total_ns - self.baseline.total_ns

    @property
    def attributed_delta_ns(self) -> int:
        return sum(row.delta_ns for row in self.by_subsystem)

    @property
    def coverage(self) -> float:
        """Fraction of the end-to-end delta the buckets explain.

        A zero delta (identical twins) is fully explained by definition.
        """
        if self.total_delta_ns == 0:
            return 1.0
        return self.attributed_delta_ns / self.total_delta_ns

    def to_doc(self) -> dict:
        return {
            "baseline": self.baseline.source,
            "current": self.current.source,
            "baseline_total_ns": self.baseline.total_ns,
            "current_total_ns": self.current.total_ns,
            "total_delta_ns": self.total_delta_ns,
            "attributed_delta_ns": self.attributed_delta_ns,
            "coverage": self.coverage,
            "by_subsystem": [
                {"subsystem": r.key, "baseline_ns": r.baseline_ns,
                 "current_ns": r.current_ns, "delta_ns": r.delta_ns}
                for r in self.by_subsystem
            ],
            "by_name": [
                {"name": r.key, "baseline_ns": r.baseline_ns,
                 "current_ns": r.current_ns, "delta_ns": r.delta_ns,
                 "baseline_count": self.name_counts[r.key][0],
                 "current_count": self.name_counts[r.key][1]}
                for r in self.by_name
            ],
            "counter_deltas": [
                {"counter": name, "baseline": b, "current": c}
                for name, b, c in self.counter_deltas
            ],
        }


def diff_profiles(baseline: CaptureProfile,
                  current: CaptureProfile) -> PerfDiff:
    """Attribute ``current - baseline`` per subsystem and span name."""
    subsystems = sorted(
        set(baseline.by_subsystem) | set(current.by_subsystem),
        key=lambda k: (
            analysis.SUBSYSTEMS.index(k) if k in analysis.SUBSYSTEMS else 99,
            k,
        ),
    )
    by_subsystem = [
        DiffRow(key=k,
                baseline_ns=baseline.by_subsystem.get(k, 0),
                current_ns=current.by_subsystem.get(k, 0))
        for k in subsystems
    ]
    names = sorted(set(baseline.by_name) | set(current.by_name))
    name_counts = {}
    by_name = []
    for name in names:
        bn, bns = baseline.by_name.get(name, (0, 0))
        cn, cns = current.by_name.get(name, (0, 0))
        name_counts[name] = (bn, cn)
        by_name.append(DiffRow(key=name, baseline_ns=bns, current_ns=cns))
    by_name.sort(key=lambda r: (-abs(r.delta_ns), r.key))
    return PerfDiff(
        baseline=baseline,
        current=current,
        by_subsystem=by_subsystem,
        by_name=by_name,
        name_counts=name_counts,
        counter_deltas=analysis.numeric_deltas(baseline.counters,
                                               current.counters),
    )


def diff_files(baseline_path: str, current_path: str) -> PerfDiff:
    """File-path wrapper around :func:`diff_profiles`."""
    return diff_profiles(load_capture(baseline_path),
                         load_capture(current_path))


def _share(delta_ns: int, total_delta_ns: int) -> str:
    if total_delta_ns == 0:
        return "-"
    return f"{100.0 * delta_ns / total_delta_ns:.1f}%"


def render_diff(diff: PerfDiff, top: int = 10) -> str:
    """Attribution tables plus a one-line verdict."""
    from repro.bench.report import render_table

    total = diff.total_delta_ns
    parts: List[str] = []
    if diff.baseline.dropped or diff.current.dropped:
        parts.append(
            f"WARNING: ring-cap drops (baseline {diff.baseline.dropped}, "
            f"current {diff.current.dropped}) — the diff covers a "
            "truncated window, not the whole run."
        )
    rows = [
        (r.key, f"{r.baseline_ns / 1e6:.3f}", f"{r.current_ns / 1e6:.3f}",
         f"{r.delta_ns / 1e3:+.1f}us", _share(r.delta_ns, total))
        for r in diff.by_subsystem
    ]
    rows.append((
        "TOTAL (end-to-end)",
        f"{diff.baseline.total_ns / 1e6:.3f}",
        f"{diff.current.total_ns / 1e6:.3f}",
        f"{total / 1e3:+.1f}us",
        "100.0%" if total else "-",
    ))
    parts.append(render_table(
        ["subsystem", "baseline ms", "current ms", "delta", "share"],
        rows,
        title=(f"virtual-time delta by subsystem "
               f"({diff.baseline.source} -> {diff.current.source}):"),
    ))
    movers = [r for r in diff.by_name
              if r.delta_ns != 0
              or diff.name_counts[r.key][0] != diff.name_counts[r.key][1]]
    if movers:
        name_rows = [
            (r.key,
             f"{diff.name_counts[r.key][0]} -> {diff.name_counts[r.key][1]}",
             f"{r.delta_ns / 1e3:+.1f}us")
            for r in movers[:top]
        ]
        parts.append(render_table(
            ["span name", "count", "exclusive delta"],
            name_rows,
            title=f"top {len(name_rows)} span-name movers:",
        ))
    if diff.counter_deltas:
        counter_rows = [
            (name, f"{b:g}", f"{c:g}", f"{c - b:+g}")
            for name, b, c in diff.counter_deltas[:top]
        ]
        parts.append(render_table(
            ["counter", "baseline", "current", "delta"],
            counter_rows,
            title="counter movement:",
        ))
    if total == 0 and not movers and not diff.counter_deltas:
        verdict = ("IDENTICAL: no virtual-time, span, or counter delta "
                   "between the captures")
    else:
        verdict = (
            f"attributed {diff.coverage * 100:.1f}% of a "
            f"{total:+d} ns end-to-end virtual-time delta "
            f"({diff.attributed_delta_ns:+d} ns across "
            f"{sum(1 for r in diff.by_subsystem if r.delta_ns)} subsystem(s))"
        )
    parts.append(verdict)
    return "\n\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf-diff",
        description=(
            "Attribute the virtual-time delta between two trace captures "
            "(trace exports or incident bundles) per subsystem and span."
        ),
    )
    parser.add_argument("baseline", help="baseline capture (trace or bundle)")
    parser.add_argument("current", help="current capture (trace or bundle)")
    parser.add_argument("--top", type=int, default=10,
                        help="span-name/counter movers shown (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of tables")
    parser.add_argument("--min-coverage", type=float, metavar="FRAC",
                        help="exit 5 when the attributed share of the "
                             "delta falls below FRAC (e.g. 0.95)")
    args = parser.parse_args(argv)
    diff = diff_profiles(
        analysis.load_or_exit(load_capture, args.baseline, "perf-diff"),
        analysis.load_or_exit(load_capture, args.current, "perf-diff"),
    )
    if args.json:
        print(json.dumps(diff.to_doc(), sort_keys=True, indent=2))
    else:
        print(render_diff(diff, top=args.top))
    if args.min_coverage is not None and diff.coverage < args.min_coverage:
        print(f"FAIL: coverage {diff.coverage * 100:.1f}% below the "
              f"required {args.min_coverage * 100:.1f}%")
        return 5
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
