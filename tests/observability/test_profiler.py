"""Engine.profile and the EXPLAIN ANALYZE report."""

import json

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import PLAN_CACHE
from repro.engine import Engine
from repro.observability import (
    QueryProfile,
    RingBufferSink,
    rule_rows,
)

EX12 = """
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
friend(tom, sue).
cheaper(cup, tent).
perfectFor(sue, tent).
"""


@pytest.fixture
def engine():
    parsed = parse_program(EX12)
    return Engine(parsed.program, parsed.database)


class TestEngineProfile:
    def test_returns_result_and_advice(self, engine):
        prof = engine.profile("buys(tom, Y)?")
        assert isinstance(prof, QueryProfile)
        assert prof.requested == "auto"
        assert prof.result.strategy == "separable"
        assert len(prof.result.answers) == 2
        assert "separable" in prof.advice.recommended
        assert prof.wall_s > 0

    def test_explicit_strategy(self, engine):
        prof = engine.profile("buys(tom, Y)?", strategy="seminaive")
        assert prof.result.strategy == "seminaive"
        assert {s.name for s in prof.tracer.spans()} >= {"seminaive.scc"}

    def test_sink_receives_the_run(self, engine):
        sink = RingBufferSink()
        prof = engine.profile("buys(tom, Y)?", sink=sink)
        kinds = {e["type"] for e in sink}
        assert {"trace_start", "span_open", "span_close"} <= kinds
        start = next(iter(sink))
        assert start["context"]["query"] == "buys(tom, Y)"
        assert prof.tracer.sink is sink


class TestRenderText:
    def test_report_sections(self, engine):
        text = engine.profile("buys(tom, Y)?").render_text()
        assert text.startswith("EXPLAIN ANALYZE  buys(tom, Y)?")
        for section in ("-- plan --", "-- strategy advice --",
                        "-- spans --", "-- per-rule work --",
                        "-- generated relations (Definition 4.2) --",
                        "-- per-iteration series --", "-- totals --"):
            assert section in text, f"missing section {section}"
        assert "join_fanout" in text

    def test_timed_report_shows_shares(self, engine):
        text = engine.profile("buys(tom, Y)?").render_text(timings=True)
        assert "wall-clock" in text
        assert "%" in text

    def test_untimed_report_is_deterministic(self):
        # Fresh engine and plan cache per run: a reused engine
        # legitimately skips index builds the first run paid for, and a
        # warm plan cache turns compiles into hits, shifting those
        # counters.
        def report():
            PLAN_CACHE.clear()
            parsed = parse_program(EX12)
            eng = Engine(parsed.program, parsed.database)
            return eng.profile("buys(tom, Y)?").render_text(timings=False)

        first = report()
        second = report()
        assert first == second
        assert "ms" not in first
        assert "wall-clock" not in first

    def test_rewritten_strategy_rule_rows(self, engine):
        text = engine.profile(
            "buys(tom, Y)?", strategy="seminaive"
        ).render_text(timings=False)
        assert "buys#0" in text  # per-source-rule accounting

    def test_default_order_has_no_planner_section(self, engine):
        prof = engine.profile("buys(tom, Y)?", strategy="seminaive")
        assert prof.planner_summary() is None
        assert "-- planner" not in prof.render_text(timings=False)

    def test_cost_order_reports_estimate_vs_observed(self):
        PLAN_CACHE.clear()
        parsed = parse_program(EX12)
        eng = Engine(parsed.program, parsed.database, order="cost")
        prof = eng.profile("buys(tom, Y)?", strategy="seminaive")
        planner = prof.planner_summary()
        assert planner is not None
        assert planner["estimated_rows"] >= 1
        assert planner["observed_bindings"] >= 1
        text = prof.render_text(timings=False)
        assert "-- planner (estimate vs observed)" in text
        assert prof.to_json()["planner"] == planner


class TestToJson:
    def test_shape_and_serializability(self, engine):
        prof = engine.profile("buys(tom, Y)?")
        data = prof.to_json()
        json.dumps(data)
        assert data["query"] == "buys(tom, Y)"
        assert data["strategy"] == "separable"
        assert data["answers"] == 2
        assert data["stats"]["relation_sizes"]["seen_1"] >= 1
        assert any(r["label"].startswith("seen_1#") for r in data["rules"])
        assert len(data["trace"]["spans"]) >= 1
        names = {s["name"] for s in data["trace"]["spans"]}
        assert "separable.loop" in names

    def test_chrome_and_metrics_delegates(self, engine):
        prof = engine.profile("buys(tom, Y)?")
        chrome = prof.to_chrome_trace()
        assert chrome["traceEvents"]
        assert "repro_spans_total" in prof.to_metrics_text()


class TestRuleRows:
    def test_rows_aggregate_apps_and_out(self, engine):
        prof = engine.profile("buys(tom, Y)?")
        rows = rule_rows(prof.tracer)
        by_label = {r.label: r for r in rows}
        assert by_label["seen_1#0"].applications >= 1
        assert by_label["seen_1#0"].tuples_out >= 1
        assert by_label["exit#0"].applications == 1
