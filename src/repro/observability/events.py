"""Structured trace events: sinks, a JSONL wire format, and replay.

The :class:`~repro.observability.tracer.Tracer` records an in-memory
span forest; an :class:`EventSink` additionally receives every state
change *as it happens* -- span open/close, counter bump, per-iteration
series point -- as a plain-dict event.  That stream is what external
tooling consumes: ship it over a socket, ring-buffer it in a server,
or write it to a JSONL file and rebuild the trace later with
:func:`replay_trace` (the rebuilt trace is exporter-equivalent to the
live one: ``to_chrome_trace`` and ``to_metrics_text`` produce
byte-identical output from either).

Event records (``type`` field):

``trace_start``
    First event of every stream: the schema version tag plus the
    tracer's ``context`` dict (query id, strategy, ... -- whatever the
    caller stamped on the run).
``span_open`` / ``span_close``
    One pair per span.  ``sid`` is a stream-unique span id, ``parent``
    the enclosing span's sid (``None`` for roots), ``t`` the
    ``perf_counter`` timestamp.  ``span_close`` re-carries ``attrs``
    because evaluators add facts at close time (``final_seen``, the
    final relation sizes of an SCC), and carries the span's final
    ``counters`` totals -- bumps happen per tuple in the join loops,
    so per-bump emission would cost a serialization per tuple.
``count``
    One counter bump on span ``sid`` (``name``, increment ``n``).
    Only emitted for counts landing on an already-closed span (the
    implicit ``(toplevel)`` catch-all); ordinary spans ship totals on
    ``span_close``.
``series``
    One per-iteration observation appended to span ``sid`` -- the
    delta/carry/seen cardinalities no scalar counter can carry.

Sinks must never raise from :meth:`~EventSink.emit`; a broken sink
would otherwise abort the evaluation it is observing.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Protocol, Union

from .tracer import Span, Tracer

__all__ = [
    "EVENT_SCHEMA",
    "EventSink",
    "RingBufferSink",
    "JsonlFileSink",
    "read_events",
    "replay_trace",
    "replay_file",
]

#: Version tag of the event record layout; bump on incompatible changes.
EVENT_SCHEMA = "repro-events/1"


class EventSink(Protocol):
    """Anything that can receive trace events as they are recorded."""

    def emit(self, event: dict) -> None:
        """Receive one event record (the dict must not be mutated)."""

    def close(self) -> None:
        """Flush and release resources; further emits are undefined."""


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory.

    The production shape for long-lived servers: bounded memory, and on
    an incident the tail of the stream is right there to dump.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        self.events: deque[dict] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self.events.maxlen or 0

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)


class JsonlFileSink:
    """Appends one JSON object per line to a file.

    The file starts with the ``trace_start`` record (schema version +
    context), so a reader can reject incompatible streams before
    parsing the rest.  Writes go through Python's buffered file object;
    :meth:`close` flushes.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = self.path.open("w")

    def emit(self, event: dict) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> list[dict]:
    """Load a JSONL event file written through :class:`JsonlFileSink`.

    Validates the leading ``trace_start`` record's schema tag; blank
    lines are ignored so hand-truncated files still load.
    """
    events: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    if not events or events[0].get("type") != "trace_start":
        raise ValueError(
            f"{path}: not an event stream (no trace_start record)"
        )
    schema = events[0].get("schema")
    if schema != EVENT_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} is not {EVENT_SCHEMA!r}"
        )
    return events


def _rebuild_span(event: dict) -> Span:
    span = Span(event["name"], dict(event.get("attrs") or {}))
    span.start_s = event["t"]
    return span


def replay_trace(events: Iterable[dict]) -> Tracer:
    """Rebuild a :class:`Tracer` from an event stream.

    The result has the same span forest, timestamps, statuses, attrs,
    counters and series as the tracer that emitted the stream, so the
    exporters in :mod:`repro.observability.export` produce byte-identical
    output from it.  Unknown event types are skipped (forward
    compatibility within one schema version).
    """
    tracer = Tracer()
    spans: dict[int, Span] = {}
    for event in events:
        kind = event.get("type")
        if kind == "trace_start":
            tracer.context = dict(event.get("context") or {})
        elif kind == "span_open":
            span = _rebuild_span(event)
            spans[event["sid"]] = span
            parent = spans.get(event.get("parent"))
            if parent is not None:
                parent.children.append(span)
            elif span.name == "(toplevel)":
                # The live tracer front-inserts the implicit catch-all
                # root; mirror that so root order matches the original.
                tracer.roots.insert(0, span)
            else:
                tracer.roots.append(span)
        elif kind == "span_close":
            span = spans.get(event["sid"])
            if span is None:
                continue
            span.end_s = event["t"]
            span.status = event.get("status", "ok")
            span.attrs = dict(event.get("attrs") or span.attrs)
            if "counters" in event:
                span.counters = dict(event["counters"])
        elif kind == "count":
            span = spans.get(event["sid"])
            if span is not None:
                name = event["name"]
                span.counters[name] = (
                    span.counters.get(name, 0) + event["n"]
                )
        elif kind == "series":
            span = spans.get(event["sid"])
            if span is not None:
                span.series.setdefault(event["name"], []).append(
                    event["value"]
                )
    return tracer


def replay_file(path: Union[str, Path]) -> Tracer:
    """:func:`read_events` + :func:`replay_trace` in one call."""
    return replay_trace(read_events(path))
