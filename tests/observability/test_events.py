"""Event sinks, the JSONL wire format, and trace files."""

import json

import pytest

from repro.observability import (
    EVENT_SCHEMA,
    JsonlFileSink,
    RingBufferSink,
    Tracer,
    read_events,
    replay_file,
    trace_start,
    write_trace,
)


def _traced_run(context=None):
    """A small two-loop trace exercising spans, counters and series."""
    tracer = Tracer(context=context or {"query": "q"})
    with tracer.span("outer", phase="demo"):
        with tracer.span("separable.loop", relation="seen_1", seed=1) as s:
            tracer.count("iterations")
            tracer.count("tuples_examined", 7)
            tracer.record("carry", 3)
            tracer.record("carry", 0)
            s.attrs["final_seen"] = 4
    tracer.count("stray")  # lands on the implicit (toplevel) span
    return tracer


def _records(n):
    return [{"type": "service_request", "seq": i} for i in range(n)]


class TestRingBufferSink:
    def test_receives_every_event(self):
        sink = RingBufferSink()
        trace_start(sink, {})
        for record in _records(5):
            sink.emit(record)
        assert [e["type"] for e in sink] == (
            ["trace_start"] + ["service_request"] * 5)
        assert [e["seq"] for e in list(sink)[1:]] == list(range(5))

    def test_bounded_capacity_keeps_the_tail(self):
        sink = RingBufferSink(capacity=4)
        trace_start(sink, {})
        for record in _records(6):
            sink.emit(record)
        assert len(sink) == 4
        assert sink.capacity == 4
        # The oldest records (trace_start, the first two) fell off.
        assert [e["seq"] for e in sink] == [2, 3, 4, 5]

    def test_trace_start_carries_schema_and_context(self):
        sink = RingBufferSink()
        trace_start(sink, {"query": "p(a, X)", "n": 8})
        (start,) = sink
        assert start == {"type": "trace_start", "schema": EVENT_SCHEMA,
                         "context": {"query": "p(a, X)", "n": 8}}


class TestJsonlRoundTrip:
    def test_file_is_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, _traced_run())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(isinstance(line, dict) for line in lines)
        assert [line["type"] for line in lines] == ["trace_start", "trace"]

    def test_read_events_rejects_non_streams(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "trace"}\n')
        with pytest.raises(ValueError, match="trace_start"):
            read_events(path)
        path.write_text(
            '{"type": "trace_start", "schema": "repro-events/999"}\n'
        )
        with pytest.raises(ValueError, match="schema"):
            read_events(path)

    def test_read_events_refuses_a_repro_events_1_stream(self, tmp_path):
        # The span event stream of schema 1 is not read back.
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"type": "trace_start", "schema": "repro-events/1"}\n'
            '{"type": "span_open", "sid": 0, "parent": null, '
            '"name": "outer", "t": 0.0, "attrs": {}}\n'
        )
        with pytest.raises(ValueError, match="repro-events/1"):
            read_events(path)

    def test_replay_rebuilds_the_span_forest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        live = _traced_run()
        write_trace(path, live)
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
        write_trace(path, _traced_run())
        (loop,) = replay_file(path).spans("separable.loop")
        assert loop.attrs["final_seen"] == 4

    def test_replay_skips_unknown_event_types(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlFileSink(path) as sink:
            trace_start(sink, {})
            sink.emit({"type": "heartbeat", "t": 0.0})
            sink.emit({"type": "trace", "trace": _traced_run().to_dict()})
        replayed = replay_file(path)
        assert [s.name for s in replayed.spans("separable.loop")]

    def test_a_stream_without_a_trace_record_is_refused(self, tmp_path):
        path = tmp_path / "service.jsonl"
        with JsonlFileSink(path) as sink:
            trace_start(sink, {"component": "service"})
            sink.emit(_records(1)[0])
        with pytest.raises(ValueError, match="no trace record"):
            replay_file(path)

    def test_file_sink_creates_its_directory(self, tmp_path):
        path = tmp_path / "missing" / "deeper" / "t.jsonl"
        write_trace(path, _traced_run())
        assert replay_file(path).spans("outer")
