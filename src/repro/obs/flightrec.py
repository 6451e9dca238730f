"""The flight recorder: an always-on black box plus incident bundles.

A :class:`FlightRecorder` keeps a bounded window of "what just happened"
— recent/open spans (via its context's ring-capped tracer), periodic
metric snapshots, armed fault draws, and an engine state summary — at
near-zero cost while nothing fails. It installs **no engine hook** (an
engine observer would force per-event dispatch and disable the batched
drain), so arming it is wallclock-cheap and byte-invisible to every
figure and export.

On a trigger — enclave crash, :class:`~repro.obs.audit.AuditViolation`,
:class:`~repro.obs.slo.SloViolation`, an unhandled CLI exception, or an
explicit ``--flightrec-dump`` — :meth:`FlightRecorder.dump` freezes the
black box into an **incident bundle**: one directory of sorted-keys JSON
files, byte-identical for identical (seed, plan) runs because every
timestamp is virtual and every iteration order is sorted. The bundle
schema (see docs/OBSERVABILITY.md):

========================  ====================================================
file                      contents
========================  ====================================================
``MANIFEST.json``         schema version, the trigger, sha256 per file
``trace_tail.jsonl``      recent completed spans + still-open spans
``metrics.json``          snapshot history + final snapshot (twin-safe)
``faults.json``           fault-plan state, draw counts, recorder notes
``engine.json``           :meth:`repro.sim.engine.Engine.state_summary`
``config.json``           run arguments + ``REPRO_*`` environment fingerprint
========================  ====================================================

Twin safety: the metric families that legitimately differ between the
fast and detailed simulation paths (``engine.*``, ``fastpath.*``) are
excluded from ``metrics.json``, and the mode switch
(``REPRO_FIDELITY``) is excluded from the environment fingerprint — the
same (seed, plan) therefore produces a byte-identical bundle in
**either** mode, which is exactly what makes a bundle comparable across
the differential contract.

:func:`load_bundle` reads a bundle back, its trace tail through the
one trace reader (:func:`repro.obs.analysis.load_trace`);
``python -m repro diagnose <bundle>`` renders it as a causal timeline
around the failure point (:func:`render_diagnosis`) and
``python -m repro perf-diff`` profiles it like any trace capture.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.obs import analysis
from repro.obs.tracer import RingBuffer, jsonl_text, span_record

#: Incident-bundle schema version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

#: Metric families excluded from bundles: the two that legitimately
#: differ between the fast and detailed simulation paths (the same
#: exclusion serve-report's exporters apply).
TWIN_EXCLUDE = ("engine.", "fastpath.")

#: The mode switch, excluded from the environment fingerprint so a
#: bundle stays byte-identical across the fast/detailed twins.
TWIN_ENV = ("REPRO_FIDELITY",)

#: Bundle file names, in manifest order.
BUNDLE_FILES = (
    "trace_tail.jsonl",
    "metrics.json",
    "faults.json",
    "engine.json",
    "config.json",
)

MANIFEST = "MANIFEST.json"


class FlightRecorder:
    """Bounded black box riding on the observability context it is armed on.

    Cheap by construction: ``note()``/``trigger()`` append to ring
    buffers, ``tick()`` snapshots the metrics registry at most once per
    ``snapshot_interval_ns`` of *virtual* time, and nothing here ever
    touches the engine's event loop. Fault-injector hook sites and the
    audit/SLO machinery feed it; everything else ignores it.
    """

    def __init__(self, trace_tail: int = 64,
                 snapshot_interval_ns: int = 1_000_000,
                 max_snapshots: int = 16,
                 max_notes: int = 256):
        if trace_tail < 0:
            raise ValueError(f"trace_tail must be >= 0, got {trace_tail}")
        self.trace_tail = trace_tail
        self.snapshot_interval_ns = snapshot_interval_ns
        self._snapshots = RingBuffer(max_snapshots)
        self._notes = RingBuffer(max_notes)
        self._next_snapshot_ns = snapshot_interval_ns
        #: Most recent trigger (the dump uses it when the caller has none).
        self.last_trigger: Optional[dict] = None
        self.triggers = 0
        #: Latest engine/injector seen (rigs attach themselves on build).
        self.engine = None
        self.injector = None
        #: The observability context this recorder is armed on (set by
        #: :class:`~repro.obs.context.ObsContext`).
        self.ctx = None

    # -- wiring ------------------------------------------------------------

    def attach(self, engine=None, injector=None) -> "FlightRecorder":
        """Remember the engine/injector whose state a dump summarizes."""
        if engine is not None:
            self.engine = engine
        if injector is not None:
            self.injector = injector
        return self

    # -- recording ---------------------------------------------------------

    def note(self, kind: str, time_ns: int, **detail) -> None:
        """Append one bounded, virtual-timestamped breadcrumb."""
        self._notes.append(
            {"time_ns": int(time_ns), "kind": kind, "detail": detail}
        )

    def trigger(self, kind: str, time_ns: int, **detail) -> dict:
        """Record an incident trigger; returns the trigger record."""
        record = {"kind": kind, "time_ns": int(time_ns), "detail": detail}
        self.last_trigger = record
        self.triggers += 1
        self.note(f"trigger.{kind}", time_ns, **detail)
        return record

    def tick(self, now_ns: int) -> None:
        """Snapshot the context's metrics at most once per interval.

        Hook sites call this opportunistically (fault draws, audit
        cadence); between calls the recorder costs nothing.
        """
        if now_ns < self._next_snapshot_ns:
            return
        self._next_snapshot_ns = (
            now_ns - now_ns % self.snapshot_interval_ns
            + self.snapshot_interval_ns
        )
        ctx = self.ctx
        if ctx.metrics.enabled:
            self._snapshots.append((int(now_ns), ctx.snapshot()))

    # -- introspection -----------------------------------------------------

    @property
    def notes(self) -> List[dict]:
        """Retained breadcrumbs, oldest first."""
        return list(self._notes)

    @property
    def snapshots(self) -> List[tuple]:
        """Retained ``(time_ns, metrics)`` snapshots, oldest first."""
        return list(self._snapshots)

    # -- dumping -----------------------------------------------------------

    def dump(self, out_dir: str, config: dict, kind: str = "manual.dump",
             **detail) -> str:
        """Freeze the black box into an incident bundle; returns ``out_dir``.

        The bundle's trigger is the last one recorded (an enclave crash,
        an audit violation, an SLO breach); with none, a ``kind`` trigger
        with ``detail`` is recorded now, at the attached engine's clock
        (0 with no engine), so the bundle stays deterministic. ``config``
        lands in ``config.json`` next to the ``REPRO_*`` environment. The
        trace tail and the final metrics come from the context the
        recorder is armed on, so a dump after that scope has exited still
        sees them.
        """
        trigger = self.last_trigger
        if trigger is None:
            now = self.engine.now if self.engine is not None else 0
            trigger = self.trigger(kind, now, **detail)
        ctx = self.ctx
        notes = self.notes
        history = [
            {"time_ns": t, "metrics": _filtered_metrics(snap)}
            for t, snap in self.snapshots
        ]
        final = _filtered_metrics(ctx.snapshot()) if ctx.metrics.enabled else {}
        docs = {
            "metrics.json": {"final": final, "history": history},
            "faults.json": _faults_doc(self.injector, notes),
            "engine.json": (self.engine.state_summary()
                            if self.engine is not None else {}),
            "config.json": _config_doc(config),
        }
        texts = {"trace_tail.jsonl": _trace_tail_text(ctx.tracer,
                                                      self.trace_tail)}
        for name, doc in docs.items():
            texts[name] = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        os.makedirs(out_dir, exist_ok=True)
        files: Dict[str, dict] = {}
        for name in BUNDLE_FILES:
            data = texts[name].encode()
            with open(os.path.join(out_dir, name), "wb") as fp:
                fp.write(data)
            files[name] = {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        manifest = {
            "schema": SCHEMA_VERSION,
            "trigger": trigger,
            "files": files,
            "notes": len(notes),
            "snapshots": len(history),
        }
        with open(os.path.join(out_dir, MANIFEST), "w") as fp:
            fp.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        return out_dir


# -- bundle writing ------------------------------------------------------------


def _filtered_metrics(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the twin-variant metric families from a snapshot."""
    return {
        name: value for name, value in sorted(snapshot.items())
        if not name.startswith(TWIN_EXCLUDE)
    }


def _trace_tail_text(tracer, tail: int) -> str:
    """The recent completed spans, the still-open ones, then a meta line."""
    records = [span_record(span) for span in tracer.recent(tail)]
    records += [span_record(span, open_=True) for span in tracer.open_spans()]
    meta = {"dropped": tracer.dropped, "recorded": len(tracer),
            "tail": len(records)}
    return jsonl_text(records + [{"meta": meta}])


def _faults_doc(injector, notes: List[dict]) -> dict:
    doc: Dict[str, Any] = {"armed": injector is not None, "notes": notes}
    if injector is not None:
        plan = injector.plan
        doc.update(
            active=bool(injector.active),
            seed=plan.seed,
            counts={k: v for k, v in sorted(injector.counts.items())},
            events=[
                {"at_ns": ev.at_ns, "action": ev.action,
                 "target": ev.target, "duration_ns": ev.duration_ns}
                for ev in plan.events
            ],
            probabilities={
                "drop": plan.drop_prob,
                "dup": plan.dup_prob,
                "delay": plan.delay_prob,
                "corrupt": plan.corrupt_prob,
                "ipi_loss": plan.ipi_loss_prob,
            },
            heartbeats=bool(plan.heartbeats),
        )
    return doc


def _config_doc(config: Optional[dict]) -> dict:
    env = {
        key: value for key, value in sorted(os.environ.items())  # repro: noqa[REP103] reason=incident-bundle provenance capture; records the REPRO_* config for replay, never branches on it
        if key.startswith("REPRO_") and key not in TWIN_ENV
    }
    return {
        "schema": SCHEMA_VERSION,
        "args": config or {},
        "env": env,
        "env_excluded": list(TWIN_ENV),
        "metric_prefixes_excluded": list(TWIN_EXCLUDE),
    }


# -- bundle loading ------------------------------------------------------------


def is_bundle(path: str) -> bool:
    """True when ``path`` is an incident-bundle directory."""
    return os.path.isdir(path) and os.path.exists(os.path.join(path, MANIFEST))


def load_bundle(path: str) -> dict:
    """Read an incident bundle back: its JSON documents as plain dicts,
    its trace tail as a :class:`~repro.obs.analysis.TraceData`
    (``bundle["trace"]``), and an integrity verdict per file, so
    tampered or truncated evidence is called out."""
    with open(os.path.join(path, MANIFEST)) as fp:
        manifest = json.load(fp)
    bundle = {
        "path": path,
        "manifest": manifest,
        "trace": analysis.load_trace(os.path.join(path, "trace_tail.jsonl")),
    }
    for name in BUNDLE_FILES[1:]:
        with open(os.path.join(path, name)) as fp:
            bundle[name.split(".", 1)[0]] = json.load(fp)
    integrity = {}
    for name, entry in sorted(manifest.get("files", {}).items()):
        try:
            with open(os.path.join(path, name), "rb") as fp:
                digest = hashlib.sha256(fp.read()).hexdigest()
            integrity[name] = (
                "ok" if digest == entry.get("sha256") else "MISMATCH"
            )
        except OSError:
            integrity[name] = "MISSING"
    bundle["integrity"] = integrity
    return bundle


# -- diagnosis rendering -------------------------------------------------------


def _kv(detail: dict) -> str:
    """A trigger's or note's detail as `` k=v ...``, keys sorted."""
    return "".join(f" {k}={detail[k]}" for k in sorted(detail))


def _timeline_entries(bundle: dict) -> List[tuple]:
    """(time_ns, tag, description) rows, time-ordered, trigger last-at-tie."""
    entries: List[tuple] = []
    for span in bundle["trace"].spans:
        where = f"{span.name} [{span.track}]"
        if span.open:
            entries.append((span.start_ns, 1, "OPEN", f"{where} never closed"))
        else:
            entries.append((span.start_ns, 0, "span",
                            f"{where} {span.duration_ns} ns"))
    trig = bundle["manifest"].get("trigger", {})
    events = [(note, 2, "note") for note in bundle["faults"].get("notes", [])]
    for record, order, tag in events + [(trig, 3, "TRIGGER")]:
        entries.append((int(record.get("time_ns", 0)), order, tag,
                        record.get("kind", "?") + _kv(record.get("detail", {}))))
    entries.sort(key=lambda e: (e[0], e[1], e[3]))
    return entries


def render_diagnosis(bundle: dict, window_ns: int = 500_000) -> str:
    """Causal-timeline rendering of a loaded bundle.

    The *faulting window* is the last ``window_ns`` of virtual time
    before the trigger — the slice of the black box most likely to hold
    the cause; timeline rows inside it are marked.
    """
    from repro.bench.report import render_table

    manifest = bundle["manifest"]
    trig = manifest.get("trigger", {})
    trig_ns = int(trig.get("time_ns", 0))
    entries = _timeline_entries(bundle)
    lo = max(trig_ns - window_ns, 0)
    in_window = [e for e in entries if lo <= e[0] <= trig_ns]

    parts = [
        f"incident bundle: {bundle['path']} (schema "
        f"{manifest.get('schema', '?')})",
        f"trigger: {trig.get('kind', '?')} at t={trig_ns} ns"
        + _kv(trig.get("detail", {})),
        f"faulting window: [{lo} .. {trig_ns}] ns "
        f"({trig_ns - lo} ns, {len(in_window)} event(s))",
    ]
    bad = [n for n, verdict in sorted(bundle["integrity"].items())
           if verdict != "ok"]
    if bad:
        parts.append(
            "INTEGRITY: " + ", ".join(
                f"{n}: {bundle['integrity'][n]}" for n in bad
            )
        )

    rows = [
        (t, "*" if lo <= t <= trig_ns else "", tag, desc)
        for t, _order, tag, desc in entries
    ]
    parts.append(render_table(
        ["t (ns)", "win", "kind", "event"], rows,
        title="timeline (virtual clock):",
    ))

    engine = bundle["engine"]
    if engine:
        live = engine.get("live_processes", [])
        parts.append(
            f"engine: t={engine.get('now_ns', '?')} ns, "
            f"queue={engine.get('queue_len', '?')}, "
            f"faults_armed={engine.get('faults_armed', '?')}, "
            f"live={', '.join(live) if live else '(none)'}"
        )
    faults = bundle["faults"]
    if faults.get("armed"):
        counts = faults.get("counts", {})
        firing = ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items()) if v
        )
        parts.append(f"fault draws (seed {faults.get('seed', '?')}): "
                     + (firing or "(none fired)"))
    # Counter movement between the last periodic snapshot (if any) and
    # the final one.
    metrics = bundle["metrics"]
    history = metrics.get("history", [])
    movers = analysis.numeric_deltas(
        history[-1]["metrics"] if history else {}, metrics.get("final", {})
    )[:8]
    if movers:
        parts.append(render_table(
            ["metric", "at last snapshot", "final", "delta"],
            [(n, p, c, f"{c - p:+g}") for n, p, c in movers],
            title="metric movement since the last periodic snapshot:",
        ))
    return "\n\n".join(parts)


# -- CLI (python -m repro diagnose) --------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro diagnose",
        description="Render an incident bundle as a causal timeline.",
    )
    parser.add_argument("bundle", help="incident-bundle directory")
    parser.add_argument("--window-ns", type=int, default=500_000,
                        help="faulting-window width before the trigger "
                             "(default 500000)")
    parser.add_argument("--json", action="store_true",
                        help="dump the loaded bundle as one JSON document")
    args = parser.parse_args(argv)
    if not is_bundle(args.bundle):
        raise SystemExit(
            f"{args.bundle}: not an incident bundle (no {MANIFEST})"
        )
    try:
        bundle = load_bundle(args.bundle)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"{args.bundle}: unreadable bundle ({exc})")
    if args.json:
        doc = {k: v for k, v in bundle.items() if k not in ("path", "trace")}
        trace = bundle["trace"]
        doc["spans"] = [span_record(span, span.open) for span in trace.spans]
        doc["trace_meta"] = trace.meta
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(render_diagnosis(bundle, window_ns=args.window_ns))
    return 1 if any(
        v != "ok" for v in bundle["integrity"].values()
    ) else 0


if __name__ == "__main__":
    raise SystemExit(main())
