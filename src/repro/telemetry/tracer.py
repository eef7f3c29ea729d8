"""Typed simulation-event tracing into a bounded ring buffer.

A :class:`Tracer` records the simulator's interesting moments — request
issue/complete, cache hit/miss/secondary-miss, MSHR merges, DRAM channel
service — as lightweight tuples stamped with the simulation clock.  The
ring is bounded (:class:`collections.deque` with ``maxlen``) so a long run
keeps the most recent window and counts what it dropped.

When telemetry is disabled, components hold the shared :data:`NULL_TRACER`
singleton whose ``enabled`` flag is ``False``; every emission site is
guarded by ``if tracer.enabled:``, so the disabled path costs one
attribute load per candidate event and allocates nothing.

Exports (:meth:`Tracer.events_as_dicts`, then :func:`write_event_streams`):

* ``trace.jsonl`` — one JSON object per event;
* ``trace.json`` — Chrome ``trace_event`` format, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  One core cycle is
  mapped to one microsecond of trace time.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

#: event record: (phase, ts, dur, tid, name, cat, args) — phase follows the
#: Chrome trace_event convention: "i" instant, "X" complete (span).
EventRecord = Tuple[str, float, float, str, str, str, Optional[Dict[str, Any]]]


class NullTracer:
    """Zero-cost stand-in used whenever tracing is off."""

    __slots__ = ()
    enabled = False

    def instant(self, name: str, cat: str, tid: str, args: Optional[dict] = None) -> None:
        """No-op."""

    def clear(self) -> None:
        """No-op."""

    def span(
        self,
        name: str,
        cat: str,
        tid: str,
        ts: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        """No-op."""


#: the shared disabled tracer; components default to this.
NULL_TRACER = NullTracer()


class Tracer:
    """Bounded recorder of typed simulation events."""

    __slots__ = ("_clock", "_ring", "_append", "capacity", "emitted")

    enabled = True

    def __init__(self, clock, capacity: int = 65536) -> None:
        #: *clock* is anything with a ``.now`` attribute (the EventQueue).
        self._clock = clock
        self.capacity = max(1, int(capacity))
        self._ring: deque[EventRecord] = deque(maxlen=self.capacity)
        #: bound append: the ``maxlen`` deque evicts the oldest record
        #: itself, so emission is a counter bump plus one append — no
        #: capacity check, no branch.
        self._append = self._ring.append
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        """Forget everything recorded so far (e.g. at a warmup boundary)."""
        self._ring.clear()
        self.emitted = 0

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (derived, not tracked per event)."""
        overflow = self.emitted - len(self._ring)
        return overflow if overflow > 0 else 0

    # -- emission ----------------------------------------------------------

    def instant(self, name: str, cat: str, tid: str, args: Optional[dict] = None) -> None:
        """Record a point event at the current simulation time."""
        self.emitted += 1
        self._append(("i", self._clock.now, 0.0, tid, name, cat, args))

    def span(
        self,
        name: str,
        cat: str,
        tid: str,
        ts: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a duration event (e.g. one DRAM channel service)."""
        self.emitted += 1
        self._append(("X", ts, dur, tid, name, cat, args))

    # -- export ------------------------------------------------------------

    def events_as_dicts(self) -> List[dict]:
        """The ring contents, oldest first, as plain JSON-able dicts."""
        _round = round
        # one dict literal per shape keeps this loop allocation-minimal,
        # and rounded timestamps are memoized — events cluster on shared
        # cycles, so well over half the round() calls repeat an input.
        # Exports run once per simulation but convert the whole ring.
        rounded: Dict[float, float] = {}
        out: List[dict] = []
        append = out.append
        for ph, ts, dur, tid, name, cat, args in self._ring:
            t = rounded.get(ts)
            if t is None:
                t = rounded[ts] = _round(ts, 3)
            if ph == "X":
                d = rounded.get(dur)
                if d is None:
                    d = rounded[dur] = _round(dur, 3)
                if args:
                    append(
                        {"ph": ph, "ts": t, "tid": tid, "name": name,
                         "cat": cat, "dur": d, "args": args}
                    )
                else:
                    append(
                        {"ph": ph, "ts": t, "tid": tid, "name": name,
                         "cat": cat, "dur": d}
                    )
            elif args:
                append(
                    {"ph": ph, "ts": t, "tid": tid, "name": name,
                     "cat": cat, "args": args}
                )
            else:
                append({"ph": ph, "ts": t, "tid": tid, "name": name, "cat": cat})
        return out


#: events serialised per buffered write of :func:`write_event_streams`.
WRITE_CHUNK = 4096

_MISSING = object()

#: template text that consumes one ``%`` argument and prints nothing.
_SKIP = "%.0s"


def _template(encode, fields) -> str:
    """A ``%``-template of one JSON object from ``(key, text)`` pairs in
    sorted key order.  *text* is JSON text (``%`` escaped) or ``%s``; a
    ``None`` text drops the field and :data:`_SKIP` drops it while still
    consuming its argument."""
    parts: List[str] = []
    skip = ""
    for key, text in fields:
        if text == _SKIP:
            skip += _SKIP
        elif text is not None:
            parts.append(f"{skip}{_const(encode, key)}: {text}")
            skip = ""
    return "{" + ", ".join(parts) + "}" + skip


def _const(encode, value) -> str:
    return encode(value).replace("%", "%%")


def write_event_streams(
    jsonl: IO[str], chrome: IO[str], events: Sequence[dict], meta: Optional[dict] = None
) -> None:
    """Write exported events as ``trace.jsonl`` and Chrome ``trace.json``.

    One pass over *events* emits each event's JSONL line and its
    ``traceEvents`` element, in bounded chunks, byte-identical to
    ``json.dumps(..., sort_keys=True)`` of the event dict and of the Chrome
    document.  In that document, thread ids are interned in
    first-appearance order and named via ``M`` (metadata) records, so
    chrome://tracing and Perfetto show component names (``p0.l2``,
    ``p0.dram``, ...) instead of bare integers.

    The stream has few distinct shapes — ``(ph, tid, name, cat)``, which
    optional keys are present, and the ``args`` key set — so each shape's
    constant text is encoded once into two ``%``-templates, and only the
    ``args`` values, ``dur`` and ``ts`` are encoded per event.  Scalars go
    through one :class:`json.JSONEncoder`, memoised per value, except exact
    ``int`` values (``repr``, as the encoder does).  Anything off the
    exporter's path (extra keys, non-``dict`` or non-``str``-keyed args)
    is encoded whole.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    tids = {tid: index for index, tid in enumerate(dict.fromkeys(e["tid"] for e in events))}

    def shape_templates(key):
        ph, tid, name, cat, has_dur, arg_keys, size = key
        has_args = arg_keys is not None
        order = None
        args = "%s" if has_args else None
        if type(arg_keys) is tuple and all(type(k) is str for k in arg_keys):
            order = sorted(arg_keys)
            args = _template(encode, [(k, "%s") for k in order])
        tail = [("name", _const(encode, name)), ("ph", _const(encode, ph))]
        line = None
        if size == 5 + has_dur + has_args:
            line = _template(encode, [
                ("args", args), ("cat", _const(encode, cat)), ("dur", "%s" if has_dur else None),
                *tail, ("tid", _const(encode, tid)), ("ts", "%s"),
            ]) + "\n"
        # Chrome prints dur on X events only (0.0 when the event has none)
        # and args only when they are truthy
        if ph == "X":
            dur = "%s" if has_dur else _const(encode, 0.0)
        else:
            dur = _SKIP if has_dur else None

        def element(args_text: Optional[str]) -> str:
            return ", " + _template(encode, [
                ("args", args_text), ("cat", _const(encode, cat)), ("dur", dur), *tail,
                ("pid", "0"), ("tid", str(tids[tid])), ("ts", "%s"),
            ])

        with_args = element(args)
        plain = element(_SKIP if has_args and order is None else None)
        return line, plain, with_args, order

    floats: Dict[float, str] = {}
    strings: Dict[str, str] = {}

    def scalar(value) -> str:
        kind = type(value)
        if kind is int:
            return repr(value)
        if kind is str:
            text = strings.get(value)
            if text is None:
                text = strings[value] = encode(value)
            return text
        if kind is float:
            text = floats.get(value)
            if text is None:
                text = encode(value)
                if value:  # 0.0 == -0.0 share a key but not a text
                    floats[value] = text
            return text
        return encode(value)

    floats_get = floats.get
    shapes: Dict[tuple, tuple] = {}
    other = dict(meta or {}, clock="core cycles (1 cycle rendered as 1 us)")
    chrome.write(f'{{"displayTimeUnit": "ms", "otherData": {encode(other)}, "traceEvents": [')
    chrome.write(", ".join(
        encode({"args": {"name": tid}, "name": "thread_name", "ph": "M", "pid": 0, "tid": index})
        for tid, index in tids.items()
    ))
    lines: List[str] = []
    elements: List[str] = []
    for event in events:
        args = event.get("args", _MISSING)
        dur = event.get("dur", _MISSING)
        if type(args) is dict:
            arg_keys = tuple(args)
        else:
            arg_keys = None if args is _MISSING else _MISSING
        key = (event["ph"], event["tid"], event["name"], event["cat"], dur is not _MISSING,
               arg_keys, len(event))
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = shape_templates(key)
        line, plain, with_args, order = shape
        if order is not None:
            values = [
                repr(v) if type(v) is int else scalar(v) for v in map(args.__getitem__, order)
            ]
        elif arg_keys is None:
            values = []
        else:
            values = [encode(args)]
        if dur is not _MISSING:
            values.append((type(dur) is float and floats_get(dur)) or scalar(dur))
        ts = event["ts"]
        values.append((type(ts) is float and floats_get(ts)) or scalar(ts))
        values = tuple(values)
        lines.append(line % values if line is not None else encode(event) + "\n")
        elements.append((with_args if args else plain) % values)
        if len(lines) == WRITE_CHUNK:
            jsonl.write("".join(lines))
            chrome.write("".join(elements))
            lines.clear()
            elements.clear()
    jsonl.write("".join(lines) if events else "\n")
    chrome.write("".join(elements) + "]}\n")
