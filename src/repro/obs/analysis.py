"""Post-hoc cost attribution over exported span traces.

The tracer (:mod:`repro.obs.tracer`) records *what happened*; this module
answers *where the time went*. It reconstructs the span tree of each
logical operation (``xemem.make`` / ``xemem.attach`` / channel round
trips / demand faults) from a Chrome-trace or JSONL export — or straight
from a live :class:`~repro.obs.tracer.Tracer` — and computes:

* **exclusive time** per span, from one sweep that hands each instant
  to the innermost open span, so nothing is counted twice;
* **per-subsystem breakdowns** (pagetable walk / map install / channel
  marshalling / IPI rounds / VMM memory map / NIC / xemem bookkeeping /
  noise), the Table-2-style decomposition the paper's evaluation hinges
  on, per operation and per request journey;
* **critical paths**: the longest root-to-leaf chain of each operation.

``pisces.transfer`` spans carry a ``marshal_ns`` attribute (closed-form
per-PFN copy time); attribution splits the span's exclusive time into
``channel`` (marshalling) and ``ipi`` (handler rounds) with it, so the
IPI share is visible even though per-round IPIs record no spans of their
own (keeping fast/slow trace parity). ``palacios.transfer`` spans carry
``memmap_ns`` (the VMM's memory-map work on the PFN list), split into
``vmm``; the rest (PCI copy, vIRQ or hypercall) stays ``channel``.

Everything here is pure post-processing: loading or attributing a trace
never touches simulation state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from repro.obs.tracer import span_record

#: Attribution bucket names, in report order.
SUBSYSTEMS = (
    "pagetable",
    "map_install",
    "channel",
    "ipi",
    "vmm",
    "nic",
    "xemem",
    "noise",
    "other",
)

#: span-name prefix -> subsystem bucket (first match wins, longest first).
_PREFIX_RULES: Tuple[Tuple[str, str], ...] = (
    ("kernel.pagetable", "pagetable"),
    ("kernel.map_remote", "map_install"),
    ("linux.map_remote", "map_install"),
    ("kernel.fault", "map_install"),
    ("pisces.transfer", "channel"),  # split channel/ipi via marshal_ns
    ("pisces", "channel"),
    ("palacios.transfer", "channel"),  # split channel/vmm via memmap_ns
    ("nic.", "nic"),
    ("cluster.rdma", "nic"),
    ("xemem", "xemem"),
    ("noise", "noise"),
    ("smi", "noise"),
    ("detour", "noise"),
)


def subsystem_of(name: str) -> str:
    """Map a span name onto its attribution bucket."""
    for prefix, bucket in _PREFIX_RULES:
        if name.startswith(prefix):
            return bucket
    return "other"


@dataclass
class SpanNode:
    """One span in a reconstructed tree."""

    span_id: Optional[int]
    parent_id: Optional[int]
    name: str
    track: str
    start_ns: int
    end_ns: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)
    #: Still open when an incident bundle froze its trace tail (its
    #: ``end_ns`` is then its start).
    open: bool = False

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class TraceData:
    """A loaded trace: every span plus the reconstructed forest."""

    spans: List[SpanNode]
    roots: List[SpanNode]
    dropped: int = 0
    #: The trailing ``{"meta": ...}`` record of a JSONL trace, if any (a
    #: bundle's tail also counts the spans recorded and kept there).
    meta: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.spans)


def _link(spans: List[SpanNode]) -> List[SpanNode]:
    """Attach children to parents; return the parentless roots."""
    by_id = {s.span_id: s for s in spans if s.span_id is not None}
    roots: List[SpanNode] = []
    for s in spans:
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        if parent is not None and parent is not s:
            parent.children.append(s)
        else:
            roots.append(s)
    for s in spans:
        s.children.sort(key=lambda c: (c.start_ns, c.span_id or 0))
    return roots


def from_tracer(tracer, since: int = 0) -> TraceData:
    """Build a :class:`TraceData` from a live tracer's spans after the
    first ``since`` recorded (ring-cap evictions among them count)."""
    recorded = tracer.spans
    fresh = len(recorded) + tracer.dropped - since
    spans = [_node(span_record(s))
             for s in recorded[max(len(recorded) - fresh, 0):]]
    return TraceData(spans=spans, roots=_link(spans),
                     dropped=max(fresh - len(recorded), 0))


def load_trace(path: Union[str, IO[str]]) -> TraceData:
    """Read a Chrome-trace or JSONL export, or an incident bundle's
    ``trace_tail.jsonl``, into a span forest.

    Chrome exports carry span identity in each event's ``args``
    (``span_id``/``parent_id``); traces from before that scheme still
    load, they just come back as a flat forest of roots.
    """
    if isinstance(path, str):
        with open(path) as fp:
            text = fp.read()
    else:
        text = path.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:  # Chrome trace format
        return _load_chrome(doc)
    return _load_jsonl(text)


def _load_chrome(doc: dict) -> TraceData:
    events = doc.get("traceEvents", [])
    threads = {
        ev.get("tid"): ev.get("args", {}).get("name")
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "thread_name"
    }
    spans: List[SpanNode] = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        start_ns = int(round(ev.get("ts", 0) * 1000))
        spans.append(
            SpanNode(
                span_id=span_id,
                parent_id=parent_id,
                name=ev["name"],
                track=threads.get(ev.get("tid"), str(ev.get("tid"))),
                start_ns=start_ns,
                end_ns=start_ns + int(round(ev.get("dur", 0) * 1000)),
                attrs=args,
            )
        )
    dropped = int(doc.get("otherData", {}).get("dropped_spans", 0) or 0)
    return TraceData(spans=spans, roots=_link(spans), dropped=dropped)


def _node(record: dict) -> SpanNode:
    """One span record (:func:`~repro.obs.tracer.span_record`) as a node."""
    start = int(record.get("start_ns", 0))
    end = record.get("end_ns")
    return SpanNode(
        span_id=record.get("id"),
        parent_id=record.get("parent"),
        name=record["name"],
        track=record.get("track", "main"),
        start_ns=start,
        end_ns=int(end) if end is not None else start,
        attrs=dict(record.get("attrs") or {}),
        open=bool(record.get("open")),
    )


def _load_jsonl(text: str) -> TraceData:
    spans: List[SpanNode] = []
    meta: Dict[str, Any] = {}
    for line in text.splitlines():
        if line.strip():
            record = json.loads(line)
            if "meta" in record:  # trailing drop-count record
                meta = record["meta"]
            else:
                spans.append(_node(record))
    return TraceData(spans=spans, roots=_link(spans),
                     dropped=int(meta.get("dropped", 0)), meta=meta)


def numeric_deltas(before: Dict[str, Any],
                   after: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """``(name, before, after)`` for every number that moved, the largest
    move first (ties by name). A name missing on one side counts as 0
    there; names holding anything but a number (histograms) are skipped.
    """
    def number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    moved = []
    for name in sorted(set(before) | set(after)):
        old, new = before.get(name, 0), after.get(name, 0)
        if number(old) and number(new) and old != new:
            moved.append((name, old, new))
    moved.sort(key=lambda m: (-abs(m[2] - m[1]), m[0]))
    return moved


def load_or_exit(load, path: str, prog: str = ""):
    """``load(path)``, with read and parse errors turned into a CLI exit."""
    prefix = f"{prog}: " if prog else ""
    try:
        return load(path)
    except OSError as exc:
        raise SystemExit(
            f"{prefix}cannot read {exc.filename or path}: {exc.strerror}"
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(
            f"{prefix}{path} is not a Chrome-trace or JSONL export ({exc})"
        )


# -- exclusive time ------------------------------------------------------------


def _sweep(members: List[SpanNode], depths: List[int]) -> List[int]:
    """Each member's share of the members' union (its exclusive ns): an
    instant goes to the innermost open member — the deepest, then the
    latest started, then the latest listed — so none counts twice."""
    events = sorted(
        (t, is_start, i)
        for i, node in enumerate(members) if node.end_ns > node.start_ns
        for t, is_start in ((node.start_ns, 1), (node.end_ns, 0))
    )
    shares = [0] * len(members)
    open_now = set()
    prev = 0
    for t, is_start, i in events:
        if open_now and t > prev:
            innermost = max(open_now, key=lambda j: (
                depths[j], members[j].start_ns, j))
            shares[innermost] += t - prev
        prev = t
        (open_now.add if is_start else open_now.discard)(i)
    return shares


def tree_exclusive(root: SpanNode) -> List[Tuple[SpanNode, int, int]]:
    """``(node, depth, exclusive ns)`` for each span of a tree, in preorder."""
    nodes: List[SpanNode] = []
    depths: List[int] = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes.append(node)
        depths.append(depth)
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return list(zip(nodes, depths, _sweep(nodes, depths)))


def exclusive_ns(node: SpanNode) -> int:
    """Span duration not covered by any descendant (self time)."""
    return tree_exclusive(node)[0][2]


def _split_buckets(node: SpanNode, excl: Optional[int] = None) -> Dict[str, int]:
    """Exclusive time of one span, split across subsystem buckets."""
    if excl is None:
        excl = exclusive_ns(node)
    if node.name == "pisces.transfer":
        marshal = int(node.attrs.get("marshal_ns", 0) or 0)
        copy = min(marshal, excl)
        return {"channel": copy, "ipi": excl - copy}
    if node.name == "palacios.transfer":
        memmap = min(int(node.attrs.get("memmap_ns", 0) or 0), excl)
        return {"vmm": memmap, "channel": excl - memmap}
    return {subsystem_of(node.name): excl}


def _add_buckets(node: SpanNode, excl: int, *accs: Dict[str, int]) -> None:
    for bucket, ns in _split_buckets(node, excl).items():
        if ns:
            for acc in accs:
                acc[bucket] = acc.get(bucket, 0) + ns


# -- attribution ---------------------------------------------------------------


@dataclass
class OperationBreakdown:
    """Attribution for one class of root operation (e.g. ``xemem.attach``)."""

    name: str
    count: int
    total_ns: int
    by_subsystem: Dict[str, int]
    critical_path: List[Tuple[str, int]]  # (span name, inclusive ns)


@dataclass
class Attribution:
    """Whole-trace attribution summary."""

    operations: List[OperationBreakdown]
    by_subsystem: Dict[str, int]
    total_ns: int
    dropped: int = 0
    spans: int = 0

    @property
    def attributed_ns(self) -> int:
        return sum(self.by_subsystem.values())

    @property
    def coverage(self) -> float:
        """Fraction of root span time the buckets account for."""
        if self.total_ns == 0:
            return 1.0
        return self.attributed_ns / self.total_ns

    def to_doc(self, source: str) -> dict:
        """Plain-dict rendering for ``report --json``."""
        doc: Dict[str, Any] = {
            "source": source,
            "spans": self.spans,
            "dropped": self.dropped,
            "truncated": bool(self.dropped),
        }
        if self.spans:
            doc.update(
                total_ns=self.total_ns,
                attributed_ns=self.attributed_ns,
                coverage=self.coverage,
                by_subsystem=self.by_subsystem,
                operations=[asdict(op) for op in self.operations],
            )
        return doc


def critical_path(root: SpanNode) -> List[Tuple[str, int]]:
    """Longest-child chain from the root down (name, inclusive ns)."""
    path = []
    node = root
    while node is not None:
        path.append((node.name, node.duration_ns))
        node = max(node.children, key=lambda c: c.duration_ns, default=None)
    return path


def _by_size(buckets: Dict[str, int]) -> Dict[str, int]:
    return dict(sorted(buckets.items(), key=lambda kv: -kv[1]))


def attribute(trace: TraceData) -> Attribution:
    """Per-operation and per-subsystem cost attribution for a trace."""
    ops: Dict[str, OperationBreakdown] = {}
    best_root: Dict[str, SpanNode] = {}
    total_by_subsystem: Dict[str, int] = {}
    for root in trace.roots:
        if root.duration_ns == 0 and not root.children:
            # Instant events (noise detours, msg markers) carry no time.
            continue
        op = ops.setdefault(
            root.name, OperationBreakdown(root.name, 0, 0, {}, [])
        )
        op.count += 1
        op.total_ns += root.duration_ns
        for node, _depth, excl in tree_exclusive(root):
            _add_buckets(node, excl, op.by_subsystem, total_by_subsystem)
        prev = best_root.get(root.name)
        if prev is None or root.duration_ns > prev.duration_ns:
            best_root[root.name] = root
    for op in ops.values():
        op.by_subsystem = _by_size(op.by_subsystem)
        op.critical_path = critical_path(best_root[op.name])
    return Attribution(
        operations=sorted(ops.values(), key=lambda op: -op.total_ns),
        by_subsystem=_by_size(total_by_subsystem),
        total_ns=sum(op.total_ns for op in ops.values()),
        dropped=trace.dropped,
        spans=len(trace.spans),
    )


# -- request journeys ----------------------------------------------------------


@dataclass
class Journey:
    """Everything one request did, reassembled across enclaves.

    Protocol sites tag their spans with the request's ``req_id``
    (allocated once per request by the xemem module and carried in every
    command/response payload); untagged descendants inherit the nearest
    tagged ancestor's id. A journey is the set of spans sharing one id —
    client op, channel transfers, owner/NS serving — regardless of which
    enclave or process recorded them. Ids restart in every rig, so a
    journey is scoped by rig too: a trace's second and later rigs tag
    their spans with ``rig`` (see :class:`~repro.obs.tracer.Tracer`),
    and their journeys are named ``<req_id>@rig<n>``.
    """

    req_id: str
    op: str                       #: name of the earliest tagged span
    start_ns: int
    end_ns: int
    span_count: int
    #: The journey's time split by subsystem bucket: each instant of the
    #: members' union goes to the innermost member open at it, so the
    #: buckets sum to at most :attr:`duration_ns`.
    by_subsystem: Dict[str, int]
    #: Time-ordered (name, inclusive ns) of the journey's phase roots —
    #: member spans whose parent is outside the journey.
    critical_path: List[Tuple[str, int]]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_doc(self) -> dict:
        """Plain-dict rendering (sorted keys inside) for JSON export."""
        return {
            "req_id": self.req_id,
            "op": self.op,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "span_count": self.span_count,
            "by_subsystem": dict(
                sorted(self.by_subsystem.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
            "critical_path": [[name, ns] for name, ns in self.critical_path],
        }


def _journey_key(node: SpanNode) -> Optional[str]:
    """The journey a span tags itself into (see :class:`Journey`)."""
    own = node.attrs.get("req_id")
    if not (isinstance(own, str) and own):
        return None
    rig = node.attrs.get("rig")
    return f"{own}@rig{rig}" if rig else own


def journeys(trace: TraceData) -> List[Journey]:
    """Group a trace's spans into per-request journeys by rig and ``req_id``.

    Returns journeys sorted by (start, req_id); spans with no tag
    anywhere on their ancestor chain belong to no journey.
    """
    members: Dict[str, List[SpanNode]] = {}
    #: per member: index of its nearest ancestor in the same journey
    anchors: Dict[str, List[Optional[int]]] = {}

    def walk(node: SpanNode, inherited: Optional[str],
             above: Dict[str, int]) -> None:
        rid = _journey_key(node) or inherited
        if rid is not None:
            nodes = members.setdefault(rid, [])
            anchors.setdefault(rid, []).append(above.get(rid))
            above = {**above, rid: len(nodes)}
            nodes.append(node)
        for child in node.children:
            walk(child, rid, above)

    for root in trace.roots:
        walk(root, None, {})

    out: List[Journey] = []
    for rid, nodes in members.items():
        anchor = anchors[rid]
        primary = min((n for n in nodes if _journey_key(n) == rid),
                      key=lambda n: (n.start_ns, n.span_id or 0))
        by_subsystem: Dict[str, int] = {}
        shares = _sweep(nodes, _journey_depths(nodes, anchor))
        for node, excl in zip(nodes, shares):
            _add_buckets(node, excl, by_subsystem)
        phase_roots = sorted(
            (n for n, a in zip(nodes, anchor) if a is None),
            key=lambda n: (n.start_ns, n.span_id or 0),
        )
        out.append(
            Journey(
                req_id=rid,
                op=primary.name,
                start_ns=min(n.start_ns for n in nodes),
                end_ns=max(n.end_ns for n in nodes),
                span_count=len(nodes),
                by_subsystem=by_subsystem,
                critical_path=[(n.name, n.duration_ns) for n in phase_roots],
            )
        )
    out.sort(key=lambda j: (j.start_ns, j.req_id))
    return out


def _journey_depths(nodes: List[SpanNode],
                    anchor: List[Optional[int]]) -> List[int]:
    """Nesting depth of each member of one journey, for :func:`_sweep`.

    A member sits one below its nearest member ancestor. A phase root
    (such as the owner's serving span, recorded by another process)
    adopts the deepest member enclosing it in time, placed before it in
    the outermost-first order, so it counts inside the client op.
    """
    depths = [0] * len(nodes)
    placed: List[int] = []
    for i in sorted(range(len(nodes)), key=lambda i: (
            nodes[i].start_ns, -nodes[i].end_ns, i)):
        if anchor[i] is not None:
            depths[i] = depths[anchor[i]] + 1
        else:
            depths[i] = 1 + max(
                (depths[j] for j in placed
                 if nodes[j].start_ns <= nodes[i].start_ns
                 and nodes[i].end_ns <= nodes[j].end_ns),
                default=-1,
            )
        placed.append(i)
    return depths


def longest_journeys(journeys_list: List[Journey], top: int) -> List[Journey]:
    """The ``top`` journeys by duration (ties by req_id)."""
    return sorted(journeys_list, key=lambda j: (-j.duration_ns, j.req_id))[:top]


def render_journeys(journeys_list: List[Journey], top: int = 10) -> str:
    """Plain-text table of the biggest journeys."""
    from repro.bench.report import render_table

    biggest = longest_journeys(journeys_list, top)
    rows = []
    for j in biggest:
        subsys = " ".join(
            f"{bucket}={ns / 1e3:.1f}us"
            for bucket, ns in sorted(
                j.by_subsystem.items(), key=lambda kv: (-kv[1], kv[0])
            )[:3]
        )
        rows.append(
            (j.req_id, j.op, j.start_ns, f"{j.duration_ns / 1e3:.1f}",
             j.span_count, subsys)
        )
    return render_table(
        ["req_id", "op", "start ns", "duration us", "spans",
         "top subsystems (exclusive)"],
        rows,
        title=(
            f"top {len(biggest)} of {len(journeys_list)} request "
            "journeys (by duration):"
        ),
    )


# -- rendering -----------------------------------------------------------------


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "-"


def drop_warnings(dropped: int, source: str) -> List[str]:
    """The one truncated-trace warning, as a list of zero or one parts."""
    if not dropped:
        return []
    return [
        f"!! WARNING: {dropped} spans were DROPPED by the ring cap while "
        f"recording {source} — every summary below is computed from a "
        "TRUNCATED trace. Re-record with a larger span buffer "
        "(obs.observing(..., max_trace_events=...)) for full coverage."
    ]


def render_report(attribution: Attribution, source: str = "trace") -> str:
    """Table-2-style plain-text breakdown of an attribution."""
    from repro.bench.report import render_table

    parts = drop_warnings(attribution.dropped, source)
    total = attribution.total_ns
    rows = [
        (bucket, f"{ns / 1e6:.3f}", _pct(ns, total))
        for bucket, ns in attribution.by_subsystem.items()
    ]
    rows.append(("TOTAL (attributed)",
                 f"{attribution.attributed_ns / 1e6:.3f}",
                 _pct(attribution.attributed_ns, total)))
    parts.append(
        render_table(
            ["subsystem", "virtual ms", "share"],
            rows,
            title=(
                f"{source}: per-subsystem cost attribution "
                f"({total / 1e6:.3f} ms across "
                f"{sum(op.count for op in attribution.operations)} operations, "
                f"coverage {attribution.coverage * 100:.1f}%)"
            ),
        )
    )
    for op in attribution.operations:
        op_rows = [
            (bucket, f"{ns / 1e6:.3f}", _pct(ns, op.total_ns))
            for bucket, ns in op.by_subsystem.items()
        ]
        parts.append(
            render_table(
                ["subsystem", "virtual ms", "share"],
                op_rows,
                title=(
                    f"{op.name} x{op.count}: {op.total_ns / 1e6:.3f} ms "
                    f"(mean {op.total_ns / op.count / 1e3:.1f} us)"
                ),
            )
        )
        chain = " -> ".join(
            f"{name} ({ns / 1e3:.1f}us)" for name, ns in op.critical_path
        )
        parts.append(f"  critical path: {chain}")
    return "\n\n".join(parts)
