"""Event sinks, the JSONL wire format, and trace replay."""

import json

import pytest

from repro.observability import (
    EVENT_SCHEMA,
    JsonlFileSink,
    RingBufferSink,
    Tracer,
    read_events,
    replay_file,
    replay_trace,
)


def _traced_run(sink, context=None):
    """A small two-loop trace exercising spans, counters and series."""
    tracer = Tracer(sink=sink, context=context or {"query": "q"})
    with tracer.span("outer", phase="demo"):
        with tracer.span("separable.loop", relation="seen_1", seed=1) as s:
            tracer.count("iterations")
            tracer.count("tuples_examined", 7)
            tracer.record("carry", 3)
            tracer.record("carry", 0)
            s.attrs["final_seen"] = 4
    tracer.count("stray")  # lands on the implicit (toplevel) span
    return tracer


class TestRingBufferSink:
    def test_receives_every_event(self):
        sink = RingBufferSink()
        _traced_run(sink)
        kinds = [e["type"] for e in sink]
        assert kinds[0] == "trace_start"
        assert kinds.count("span_open") == kinds.count("span_close") == 3
        assert "count" in kinds and "series" in kinds

    def test_bounded_capacity_keeps_the_tail(self):
        sink = RingBufferSink(capacity=4)
        _traced_run(sink)
        assert len(sink) == 4
        assert sink.capacity == 4
        # The oldest events (trace_start, first opens) fell off.
        assert all(e["type"] != "trace_start" for e in sink)

    def test_trace_start_carries_schema_and_context(self):
        sink = RingBufferSink()
        _traced_run(sink, context={"query": "p(a, X)", "n": 8})
        start = next(iter(sink))
        assert start["schema"] == EVENT_SCHEMA
        assert start["context"] == {"query": "p(a, X)", "n": 8}


class TestJsonlRoundTrip:
    def test_file_is_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlFileSink(path) as sink:
            _traced_run(sink)
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_read_events_rejects_non_streams(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span_open"}\n')
        with pytest.raises(ValueError, match="trace_start"):
            read_events(path)
        path.write_text(
            '{"type": "trace_start", "schema": "repro-events/999"}\n'
        )
        with pytest.raises(ValueError, match="schema"):
            read_events(path)

    def test_replay_rebuilds_the_span_forest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlFileSink(path) as sink:
            live = _traced_run(sink)
        replayed = replay_file(path)
        assert replayed.context == live.context
        live_spans = list(live.spans())
        replayed_spans = list(replayed.spans())
        assert [s.name for s in replayed_spans] == [
            s.name for s in live_spans
        ]
        for mine, theirs in zip(replayed_spans, live_spans):
            assert mine.attrs == theirs.attrs
            assert mine.counters == theirs.counters
            assert mine.series == theirs.series
            assert mine.status == theirs.status
            assert mine.start_s == theirs.start_s
            assert mine.end_s == theirs.end_s

    def test_replay_carries_close_time_attr_mutations(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlFileSink(path) as sink:
            _traced_run(sink)
        (loop,) = replay_file(path).spans("separable.loop")
        assert loop.attrs["final_seen"] == 4

    def test_replay_skips_unknown_event_types(self):
        sink = RingBufferSink()
        _traced_run(sink)
        events = list(sink)
        events.insert(1, {"type": "heartbeat", "t": 0.0})
        replayed = replay_trace(events)
        assert [s.name for s in replayed.spans("separable.loop")]


class TestSinklessTracer:
    def test_no_sink_means_no_events_and_no_sid_cost(self):
        tracer = _traced_run(None)
        assert tracer.sink is None
        assert list(tracer.spans("separable.loop"))
