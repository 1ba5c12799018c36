"""The JSONL wire format: event sinks, the stream header, trace files.

A stream is a sequence of plain-dict records -- a JSONL file, a ring
buffer in a server -- whose first record is the ``trace_start`` header
(:func:`trace_start`): the schema tag plus a ``context`` dict, so a
reader can reject an incompatible stream before parsing the rest.  Two
writers open streams this way:

* a trace file (:func:`write_trace`, ``repro-datalog profile
  --events``) holds, after the header, one ``trace`` record: the
  finished span tree as :meth:`Tracer.to_dict
  <repro.observability.tracer.Tracer.to_dict>` gives it.
  :func:`replay_file` rebuilds the :class:`~repro.observability.Tracer`
  from it, and the exporters in :mod:`repro.observability.export`
  produce byte-identical output from the live and the rebuilt trace;
* :class:`~repro.service.QueryService` writes one ``service_request``
  record per completed request and one ``slow_query`` record per
  sampled or slow one (``repro-slowlog/1``).

Sinks must never raise from :meth:`~EventSink.emit`; a broken sink
would otherwise abort the work it is observing.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Iterator, Optional, Protocol, Union

from .tracer import Tracer

__all__ = [
    "EVENT_SCHEMA",
    "EventSink",
    "RingBufferSink",
    "JsonlFileSink",
    "read_events",
    "replay_file",
    "trace_start",
    "write_trace",
]

#: Version tag of the event record layout; bump on incompatible changes.
EVENT_SCHEMA = "repro-events/2"


class EventSink(Protocol):
    """Anything that can receive stream records as they are written."""

    def emit(self, event: dict) -> None:
        """Receive one event record (the dict must not be mutated)."""

    def close(self) -> None:
        """Flush and release resources; further emits are undefined."""


class RingBufferSink:
    """Keeps the most recent ``capacity`` records in memory.

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
    """Appends one JSON object per line to a file (its directory is
    created if missing).  Writes go through Python's buffered file
    object; :meth:`close` flushes.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
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


def trace_start(sink: EventSink, context: dict) -> None:
    """Open a stream on ``sink``: emit its ``trace_start`` header."""
    sink.emit({"type": "trace_start", "schema": EVENT_SCHEMA,
               "context": dict(context)})


def write_trace(path: Union[str, Path], tracer: Tracer) -> None:
    """Write ``tracer`` to a JSONL trace file: the ``trace_start``
    header and one ``trace`` record holding :meth:`Tracer.to_dict`."""
    with JsonlFileSink(path) as sink:
        trace_start(sink, tracer.context)
        sink.emit({"type": "trace", "trace": tracer.to_dict()})


def read_events(path: Union[str, Path]) -> list[dict]:
    """Load a JSONL stream written through :class:`JsonlFileSink`.

    Validates the leading ``trace_start`` record's schema tag (a
    ``repro-events/1`` file, the retired span event stream, is refused
    like any other); blank lines are ignored so hand-truncated files
    still load.
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


def replay_file(path: Union[str, Path]) -> Tracer:
    """The :class:`Tracer` a :func:`write_trace` file holds (records of
    other types are skipped)."""
    for event in read_events(path):
        if event.get("type") == "trace":
            return Tracer.from_dict(event["trace"])
    raise ValueError(f"{path}: no trace record")
