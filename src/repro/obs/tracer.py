"""Span tracing against the virtual clock.

A :class:`Tracer` records nestable, timestamped spans::

    with tracer.span("xemem.attach", engine, track="kitten-0", pages=npages):
        ...  # simulated work; the span's duration is virtual time

Spans record nothing when disabled: :meth:`Tracer.span` returns a
shared no-op context manager and touches nothing else. The call, its
attribute keywords and the no-op manager's enter/exit still cost host
time (see :mod:`repro.obs.context`), so a site on the per-message path
reads ``tracer.enabled`` before it builds a span at all. All recorded
timestamps come from the simulation's virtual clock, so two identical
runs produce identical traces (byte-identical exports); host wallclock
never enters a trace.

Exports:

* :meth:`Tracer.to_chrome` — Chrome/Perfetto ``trace.json`` (the classic
  ``traceEvents`` array of ``"X"`` complete events). One *thread track*
  per :attr:`Span.track` (enclaves, cores, devices), so a Perfetto
  timeline shows one lane per enclave/device.
* :meth:`Tracer.to_jsonl` — one JSON object per span, streaming-friendly.

Both exports, and an incident bundle's trace tail, carry each span as
the one record :func:`span_record` builds; :func:`repro.obs.analysis.
load_trace` reads all three back.
"""

from __future__ import annotations

import json
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterator, List, Optional, Union


class RingBuffer:
    """Append-only event store with an optional ring cap.

    With ``max_events`` set, the buffer keeps only the most recent
    ``max_events`` items and counts everything evicted in
    :attr:`dropped` — long noise-profile runs cannot grow memory without
    bound, and the drop is visible instead of silent.
    """

    def __init__(self, max_events: Optional[int] = None):
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self._items: deque = deque(maxlen=max_events)
        self.dropped = 0

    def append(self, item: Any) -> None:
        """Add one item, evicting (and counting) the oldest at the cap."""
        if self.max_events is not None and len(self._items) == self.max_events:
            self.dropped += 1
        self._items.append(item)

    def clear(self) -> None:
        """Drop all items and reset the dropped counter."""
        self._items.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


@dataclass
class Span:
    """One completed (or still-open) span on the virtual timeline."""

    span_id: int
    name: str
    track: str
    start_ns: int
    end_ns: Optional[int] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        """Virtual duration (0 while the span is still open)."""
        return 0 if self.end_ns is None else self.end_ns - self.start_ns


class _NullSpan:
    """Shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        """Attribute updates are discarded."""


NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager driving one live span."""

    __slots__ = ("tracer", "engine", "span", "key")

    def __init__(self, tracer: "Tracer", engine, span: Span, key):
        self.tracer = tracer
        self.engine = engine
        self.span = span
        self.key = key

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes on the live span."""
        self.span.attrs.update(attrs)

    def __enter__(self):
        self.tracer._stacks.setdefault(self.key, []).append(self.span.span_id)
        self.tracer._open[self.span.span_id] = self.span
        return self

    def __exit__(self, *exc):
        self.span.end_ns = self.engine.now
        stacks = self.tracer._stacks
        stack = stacks.get(self.key)
        if stack:
            if stack[-1] == self.span.span_id:
                stack.pop()
            else:
                # Out-of-order close within one process (an interrupt
                # unwound an inner with-block without closing it first):
                # remove the id from wherever it sits so a closed span
                # never lingers as the parent of later spans.
                try:
                    stack.remove(self.span.span_id)
                except ValueError:
                    pass
            if not stack:
                del stacks[self.key]
        self.tracer._open.pop(self.span.span_id, None)
        self.tracer._record(self.span)
        return False


class Tracer:
    """Collects spans and instants against the virtual clock."""

    def __init__(self, enabled: bool = True, max_events: Optional[int] = None):
        self.enabled = enabled
        self._buf = RingBuffer(max_events)
        self._seq = 0
        #: Open-span id stacks for parent attribution, keyed by the
        #: simulated process the span was opened in (``None`` for spans
        #: opened outside any process). Keying per process keeps parent
        #: links correct when concurrent processes interleave — a span
        #: never adopts another process's open span as its parent.
        self._stacks: Dict[Any, List[int]] = {}
        #: Spans entered but not yet exited, by id — the auditor attaches
        #: these as "what was in flight" context on a violation.
        self._open: Dict[int, Span] = {}
        #: A weak reference to the engine of the latest span, and how
        #: many engines came before it: every rig builds its own engine
        #: and restarts its request ids, so spans of the second and later
        #: rigs carry a ``rig`` attribute that keeps their journeys
        #: apart. A trace of one rig carries none.
        self._engine: Optional[weakref.ref] = None
        self._rig = 0

    # -- recording -----------------------------------------------------------

    def span(self, name: str, engine, track: str = "main", **attrs) -> Union[_OpenSpan, _NullSpan]:
        """A context manager recording ``name`` from now until exit.

        ``engine`` supplies the virtual clock (``engine.now``) and names
        the rig; ``track`` names the Perfetto lane (enclave, core,
        device) the span renders on. Extra keyword arguments become span
        attributes.
        """
        if not self.enabled:
            return NULL_SPAN
        if self._engine is None or self._engine() is not engine:
            if self._engine is not None:
                self._rig += 1
            self._engine = weakref.ref(engine)
        if self._rig:
            attrs["rig"] = self._rig
        self._seq += 1
        key = getattr(engine, "current_process", None)
        stack = self._stacks.get(key)
        span = Span(
            span_id=self._seq,
            name=name,
            track=track,
            start_ns=engine.now,
            parent_id=stack[-1] if stack else None,
            attrs=attrs,
        )
        return _OpenSpan(self, engine, span, key)

    def instant(self, name: str, time_ns: int, track: str = "main", **attrs) -> None:
        """Record a zero-duration event at an explicit virtual time."""
        if not self.enabled:
            return
        if self._rig:
            attrs["rig"] = self._rig
        self._seq += 1
        # Instants carry no engine handle, so only the process-less
        # stack can supply a parent; in-process instants record as roots.
        stack = self._stacks.get(None)
        self._record(
            Span(
                span_id=self._seq,
                name=name,
                track=track,
                start_ns=int(time_ns),
                end_ns=int(time_ns),
                parent_id=stack[-1] if stack else None,
                attrs=attrs,
            )
        )

    def _record(self, span: Span) -> None:
        self._buf.append(span)

    # -- introspection -------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """All recorded spans, in completion order."""
        return list(self._buf)

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring cap."""
        return self._buf.dropped

    def of_name(self, name: str) -> List[Span]:
        """All recorded spans with the given name."""
        return [s for s in self._buf if s.name == name]

    def open_spans(self) -> List[Span]:
        """Spans entered but not yet exited, oldest first."""
        return sorted(self._open.values(), key=lambda s: s.span_id)

    def recent(self, n: int = 8) -> List[Span]:
        """The ``n`` most recently completed spans, oldest first."""
        items = list(self._buf)
        return items[-n:] if n > 0 else []

    def tracks(self) -> List[str]:
        """Distinct track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for s in self._buf:
            seen.setdefault(s.track, None)
        return list(seen)

    def clear(self) -> None:
        """Forget every recorded span."""
        self._buf.clear()
        self._stacks.clear()
        self._open.clear()
        self._engine = None
        self._rig = 0

    def __len__(self) -> int:
        return len(self._buf)

    # -- export --------------------------------------------------------------

    def chrome_events(self) -> List[dict]:
        """The ``traceEvents`` list of the Chrome trace format.

        Timestamps are microseconds (the format's unit); the virtual
        nanosecond resolution is preserved as fractional µs. One thread
        id per track, with ``thread_name`` metadata so Perfetto labels
        the lanes.
        """
        tids = {track: i + 1 for i, track in enumerate(self.tracks())}
        events: List[dict] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro-sim (virtual time)"},
            }
        ]
        for track, tid in tids.items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        for span in self._buf:
            end_ns = span.end_ns if span.end_ns is not None else span.start_ns
            record = span_record(span)
            # Span identity rides in args so trees survive the Chrome
            # round trip (repro.obs.analysis rebuilds parent/child links
            # from these; Perfetto just shows them as extra attributes).
            args = record["attrs"]
            args["span_id"] = record["id"]
            if record["parent"] is not None:
                args["parent_id"] = record["parent"]
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "pid": 1,
                "tid": tids[span.track],
                "ts": span.start_ns / 1000.0,
                "dur": (end_ns - span.start_ns) / 1000.0,
                "args": args,
            })
        return events

    def to_chrome(self, fp: Union[str, IO[str]]) -> None:
        """Write a Chrome/Perfetto ``trace.json`` (deterministic bytes)."""
        doc = {
            "displayTimeUnit": "ns",
            "otherData": {"dropped_spans": self.dropped},
            "traceEvents": self.chrome_events(),
        }
        write_text(fp, _compact(doc))

    def to_jsonl(self, fp: Union[str, IO[str]]) -> None:
        """Write one JSON object per span (deterministic bytes).

        If the ring cap evicted spans, a trailing ``{"meta": ...}`` line
        records the drop count so downstream analysis can warn instead of
        silently summarizing a truncated trace.
        """
        records = [span_record(span) for span in self._buf]
        if self.dropped:
            records.append({"meta": {"dropped": self.dropped}})
        write_text(fp, jsonl_text(records))


def span_record(span, open_: bool = False) -> Dict[str, Any]:
    """The one JSON record of a span: a JSONL export line, the source of
    a Chrome event's ``args``, and an incident bundle's trace-tail line
    (which flags a span still open when the bundle froze with ``open``).

    Attribute values JSON cannot carry are exported as their ``repr``.
    """
    record = {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "track": span.track,
        "start_ns": span.start_ns,
        "end_ns": None if open_ else span.end_ns,
        "attrs": {
            key: value
            if isinstance(value, (int, float, str, bool)) or value is None
            else repr(value)
            for key, value in span.attrs.items()
        },
    }
    if open_:
        record["open"] = True
    return record


def _compact(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def jsonl_text(records: List[dict]) -> str:
    """Records as JSON lines (sorted keys, compact), newline-terminated."""
    return "".join(_compact(record) + "\n" for record in records)


def write_text(dest: Union[str, IO[str], None], text: str) -> None:
    """Write an export to a path or an open text file (``None``: nowhere)."""
    if isinstance(dest, str):
        with open(dest, "w") as fp:
            fp.write(text)
    elif dest is not None:
        dest.write(text)
