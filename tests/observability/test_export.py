"""Chrome-trace and Prometheus exporters, live and replayed."""

import json
from pathlib import Path

import pytest

from repro.datalog.parser import parse_program
from repro.engine import Engine
from repro.observability import (
    JsonlFileSink,
    Tracer,
    escape_label_value,
    replay_file,
    to_chrome_trace,
    to_metrics_text,
)
from repro.observability.export import MetricFamilies

EX12 = """
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
friend(tom, sue).
cheaper(cup, tent).
perfectFor(sue, tent).
"""


def _traced_query(strategy, sink=None):
    parsed = parse_program(EX12)
    engine = Engine(parsed.program, parsed.database)
    tracer = Tracer(sink=sink, context={"strategy": strategy})
    engine.query("buys(tom, Y)?", strategy=strategy, tracer=tracer)
    return tracer


def _per_name_sums(tracer):
    """Counter totals the long way: one walk of the forest per name."""
    names = {name for s in tracer.spans() for name in s.counters}
    return {
        name: sum(s.counters.get(name, 0) for s in tracer.spans())
        for name in names
    }


def _assert_balanced(events):
    """B/E pairs must nest like parentheses on the single track."""
    stack = []
    for event in events:
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            assert stack, f"E for {event['name']} with no open B"
            assert stack.pop() == event["name"]
    assert stack == [], f"unclosed B events: {stack}"


class TestChromeTrace:
    @pytest.mark.parametrize("strategy", ["separable", "seminaive",
                                          "magic", "nodedup"])
    def test_balanced_and_json_serializable(self, strategy):
        tracer = _traced_query(strategy)
        data = to_chrome_trace(tracer)
        json.dumps(data)  # must not contain unserializable values
        _assert_balanced(data["traceEvents"])
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["context"] == {"strategy": strategy}

    def test_timestamps_are_relative_microseconds(self):
        tracer = _traced_query("separable")
        events = to_chrome_trace(tracer)["traceEvents"]
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["ts"] >= 0.0 for e in events)

    def test_counter_totals_rise_monotonically(self):
        tracer = _traced_query("separable")
        events = to_chrome_trace(tracer)["traceEvents"]
        last: dict[str, int] = {}
        for event in events:
            if event["ph"] != "C" or "." in event["name"]:
                continue  # span-local series events may go up and down
            (value,) = event["args"].values()
            assert value >= last.get(event["name"], 0)
            last[event["name"]] = value
        assert "tuples_examined" in last

    def test_series_points_sit_inside_their_span(self):
        tracer = _traced_query("separable")
        events = to_chrome_trace(tracer)["traceEvents"]
        open_ts: dict[str, float] = {}
        for event in events:
            if event["ph"] == "B":
                open_ts[event["name"]] = event["ts"]
            elif event["ph"] == "C" and "." in event["name"]:
                span_name = event["name"].rsplit(".", 1)[0]
                assert event["ts"] >= open_ts[span_name]


class TestReplayEquivalence:
    @pytest.mark.parametrize("strategy", ["separable", "seminaive",
                                          "magic"])
    def test_exporters_byte_identical_live_vs_replayed(
        self, tmp_path, strategy
    ):
        path = tmp_path / "t.jsonl"
        sink = JsonlFileSink(path)
        live = _traced_query(strategy, sink=sink)
        sink.close()
        replayed = replay_file(path)
        assert json.dumps(to_chrome_trace(live), sort_keys=True) == \
            json.dumps(to_chrome_trace(replayed), sort_keys=True)
        assert to_metrics_text(live) == to_metrics_text(replayed)
        # The one fold every exporter reads agrees with per-name sums,
        # on the live trace and on the one rebuilt from the JSONL file.
        sums = _per_name_sums(live)
        assert sums["tuples_examined"] > 0
        assert live.totals() == replayed.totals() == sums
        assert all(live.counter_total(n) == v for n, v in sums.items())
        assert live.counter_total("never_bumped") == 0

    def test_counting_trace_replays_byte_identical(self, tmp_path):
        # Counting does not apply to EX12's binding pattern, so use the
        # paper's Example 1.1, where the descent/ascent spans exist.
        from repro.workloads.paper import (
            example_1_1_database,
            example_1_1_program,
        )

        path = tmp_path / "t.jsonl"
        sink = JsonlFileSink(path)
        engine = Engine(example_1_1_program(), example_1_1_database(6))
        tracer = Tracer(sink=sink)
        engine.query("buys(a1, Y)?", strategy="counting", tracer=tracer)
        sink.close()
        replayed = replay_file(path)
        assert json.dumps(to_chrome_trace(tracer), sort_keys=True) == \
            json.dumps(to_chrome_trace(replayed), sort_keys=True)
        assert {s.name for s in replayed.spans()} >= {
            "counting.descent", "counting.ascent",
        }


class TestMetricsText:
    def test_prometheus_shape(self):
        text = to_metrics_text(_traced_query("separable"))
        assert text.endswith("\n")
        assert "# TYPE repro_spans_total counter" in text
        assert "repro_tuples_examined_total" in text
        samples = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        for sample in samples:
            name, value = sample.rsplit(" ", 1)
            assert int(value) >= 0

    def test_rule_counters_become_labelled_samples(self):
        text = to_metrics_text(_traced_query("separable"))
        assert 'repro_rule_apps_total{rule="seen_1#0"}' in text

    def test_empty_tracer_exports_cleanly(self):
        tracer = Tracer()
        assert to_chrome_trace(tracer)["traceEvents"] == []
        assert "repro_spans_total 0" in to_metrics_text(tracer)


def _synthetic_tracer() -> Tracer:
    """Counters only -- to_metrics_text ignores timing, so the output
    is byte-deterministic and pinnable against a golden file."""
    tracer = Tracer()
    with tracer.span("separable.run"):
        tracer.count("tuples_examined", 12)
        tracer.count("bindings_out", 5)
        with tracer.span("separable.loop"):
            tracer.count("tuples_examined", 30)
            tracer.count("rule_apps:seen_1#0", 4)
            tracer.count("rule_out:seen_1#0", 9)
            tracer.count('rule_apps:odd"label\\with\nnasties', 2)
    return tracer


class TestExpositionFormat:
    GOLDEN = Path(__file__).parent / "golden" / "metrics.prom"

    def test_matches_golden_file(self):
        # The exposition format is an interface: scrape configs and the
        # service exporter both depend on these exact shapes.  For an
        # intended format change, regenerate by writing
        # to_metrics_text(_synthetic_tracer()) back over the file.
        assert to_metrics_text(_synthetic_tracer()) == \
            self.GOLDEN.read_text()

    def test_help_and_type_once_per_family(self):
        text = to_metrics_text(_traced_query("separable"))
        for prefix in ("# HELP ", "# TYPE "):
            declared = [
                line.split()[2]
                for line in text.splitlines()
                if line.startswith(prefix)
            ]
            assert len(declared) == len(set(declared)), (
                f"duplicate {prefix.strip()} declarations"
            )

    def test_label_values_are_escaped(self):
        text = to_metrics_text(_synthetic_tracer())
        assert (
            'repro_rule_apps_total{rule="odd\\"label\\\\with\\nnasties"} 2'
            in text
        )

    def test_escape_label_value(self):
        assert escape_label_value("plain#ok") == "plain#ok"
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value(7) == "7"

    def test_metric_families_declares_once(self):
        lines: list[str] = []
        families = MetricFamilies(lines)
        families.declare("m_total", "A metric.")
        families.declare("m_total", "A metric again.")
        families.declare("g", "A gauge.", kind="gauge")
        assert lines == [
            "# HELP m_total A metric.",
            "# TYPE m_total counter",
            "# HELP g A gauge.",
            "# TYPE g gauge",
        ]
