"""Unit tests for the tracer primitives.

The exception-safety and counter-reconciliation tests drive the tracer
through real evaluations; this module pins the mechanics those tests
rely on: span nesting, innermost-span counter attribution, series
recording, the ``(toplevel)`` catch-all, and the :func:`live`
normalization that keeps the untraced hot path on one pointer check.
"""

import pytest

from repro.observability import Span, Tracer


class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert t.roots == [outer]
        assert outer.children == [inner]
        assert inner.children == []

    def test_siblings_keep_order(self):
        t = Tracer()
        with t.span("parent"):
            with t.span("first"):
                pass
            with t.span("second"):
                pass
        (parent,) = t.roots
        assert [c.name for c in parent.children] == ["first", "second"]

    def test_current_tracks_innermost(self):
        t = Tracer()
        assert t.current is None
        with t.span("outer") as outer:
            assert t.current is outer
            with t.span("inner") as inner:
                assert t.current is inner
            assert t.current is outer
        assert t.current is None

    def test_walk_is_depth_first(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
            with t.span("d"):
                pass
        assert [s.name for s in t.spans()] == ["a", "b", "c", "d"]

    def test_duration_and_status(self):
        t = Tracer()
        with t.span("timed") as s:
            assert s.status == "open"
            assert s.duration_s is None
        assert s.closed
        assert s.status == "ok"
        assert s.duration_s >= 0

    def test_exception_records_type_and_closes(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError("boom")
        statuses = {s.name: s.status for s in t.spans()}
        assert statuses == {"outer": "ValueError", "inner": "ValueError"}
        assert t.all_closed()


class TestPayload:
    def test_counters_bump_innermost_open_span(self):
        t = Tracer()
        with t.span("outer") as outer:
            t.count("hits")
            with t.span("inner") as inner:
                t.count("hits", 2)
            t.count("hits")
        assert outer.counters == {"hits": 2}
        assert inner.counters == {"hits": 2}
        assert t.counter_total("hits") == 4

    def test_series_append_in_order(self):
        t = Tracer()
        with t.span("loop") as s:
            for v in (3, 1, 4):
                t.record("delta", v)
        assert s.series == {"delta": [3, 1, 4]}

    def test_counts_outside_any_span_land_on_toplevel(self):
        t = Tracer()
        t.count("orphan")
        t.record("stray", 7)
        (top,) = t.roots
        assert top.name == "(toplevel)"
        assert top.counters == {"orphan": 1}
        assert top.series == {"stray": [7]}
        assert t.all_closed()

    def test_to_dict_roundtrips_shape(self):
        t = Tracer()
        with t.span("outer", scc=["tc"]):
            t.count("iterations")
            t.record("delta", 5)
        d = t.to_dict()
        (span,) = d["spans"]
        assert span["name"] == "outer"
        assert span["attrs"] == {"scc": ["tc"]}
        assert span["counters"] == {"iterations": 1}
        assert span["series"] == {"delta": [5]}
        assert span["status"] == "ok"
        assert span["duration_s"] >= 0
        assert span["end_s"] - span["start_s"] == span["duration_s"]
        assert d["context"] == {}
        assert Tracer.from_dict(d).to_dict() == d
