"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main

EX12 = """
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- buys(X, W) & cheaper(Y, W).
buys(X, Y) :- perfectFor(X, Y).
friend(tom, sue).
cheaper(cup, tent).
perfectFor(sue, tent).
buys(tom, Y)?
"""

#: Example 1.1 over a friend cycle: Counting's descent never ends.
CYCLIC = """
buys(X, Y) :- friend(X, W) & buys(W, Y).
buys(X, Y) :- idol(X, W) & buys(W, Y).
buys(X, Y) :- perfectFor(X, Y).
friend(a1, a2).
friend(a2, a1).
idol(a2, a3).
perfectFor(a3, b3).
buys(a1, Y)?
"""

NONSEP = """
t(X, Y) :- a(X, W) & t(W, Z) & b(Z, Y).
t(X, Y) :- t0(X, Y).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "ex12.dl"
    path.write_text(EX12)
    return path


class TestRun:
    def test_inline_query(self, program_file, capsys):
        assert main(["run", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "buys(tom, tent)." in out
        assert "buys(tom, cup)." in out
        assert "strategy: separable" in out

    def test_explicit_query_and_strategy(self, program_file, capsys):
        code = main(
            [
                "run",
                str(program_file),
                "--query",
                "buys(sue, Y)?",
                "--strategy",
                "magic",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy: magic" in out
        assert "buys(sue, tent)." in out

    def test_stats_flag(self, program_file, capsys):
        main(["run", str(program_file), "--stats"])
        out = capsys.readouterr().out
        assert "seen_1" in out

    def test_order_flag_preserves_answers(self, program_file, capsys):
        code = main(
            ["run", str(program_file), "--strategy", "seminaive",
             "--order", "cost"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "buys(tom, tent)." in out
        assert "buys(tom, cup)." in out

    def test_rejects_unknown_order(self, program_file, capsys):
        for order in ("bogus", "adaptive"):
            with pytest.raises(SystemExit):
                main(["run", str(program_file), "--order", order])
            assert "'greedy', 'left_to_right', 'cost'" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("profile", "--parallel"),
        ("serve", "--parallel"),
        ("fuzz", "--parallel-workers"),
        ("serve", "--db-path"),  # now: --backend sqlite:<path>
    ])
    def test_pool_flags_are_unrecognized(self, program_file, capsys,
                                         command, flag):
        program = [] if command == "fuzz" else [str(program_file)]
        with pytest.raises(SystemExit):
            main([command, *program, flag, "2"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_no_queries(self, tmp_path, capsys):
        path = tmp_path / "noq.dl"
        path.write_text("p(a).")
        assert main(["run", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", str(tmp_path / "missing.dl")])


class TestDetect:
    def test_separable_report(self, program_file, capsys):
        assert main(["detect", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "separable" in out
        assert "e_1" in out and "e_2" in out

    def test_nonseparable_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "nonsep.dl"
        path.write_text(NONSEP)
        assert main(["detect", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NOT separable" in out

    def test_specific_predicate(self, program_file, capsys):
        assert main(["detect", str(program_file), "--predicate", "buys"]) == 0

    def test_unknown_predicate(self, program_file, capsys):
        assert main(["detect", str(program_file), "--predicate", "zz"]) == 1


class TestPlan:
    def test_full_selection_plan(self, program_file, capsys):
        code = main(["plan", str(program_file), "--query", "buys(tom, Y)?"])
        assert code == 0
        out = capsys.readouterr().out
        assert "down loop" in out and "friend" in out

    def test_partial_selection_plan(self, tmp_path, capsys):
        path = tmp_path / "ex24.dl"
        path.write_text(
            """
            t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).
            t(X, Y, Z) :- t(X, Y, W) & b(W, Z).
            t(X, Y, Z) :- t0(X, Y, Z).
            """
        )
        code = main(["plan", str(path), "--query", "t(c, Y, Z)?"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Lemma 2.1" in out
        assert "t_full" in out and "t_part" in out
        # The one-seed plan, run for every seed as one grouped fixpoint.
        assert "one grouped fixpoint" in out and "Seed" not in out

    def test_nonseparable_errors(self, tmp_path, capsys):
        path = tmp_path / "nonsep.dl"
        path.write_text(NONSEP)
        assert main(["plan", str(path), "--query", "t(c, Y)?"]) == 2
        assert "error" in capsys.readouterr().err


class TestAdvise:
    def test_separable_query(self, program_file, capsys):
        code = main(
            ["advise", str(program_file), "--query", "buys(tom, Y)?"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended: separable" in out
        assert "expansion:" in out

    def test_nonseparable_program(self, tmp_path, capsys):
        path = tmp_path / "nonsep.dl"
        path.write_text(NONSEP)
        code = main(["advise", str(path), "--query", "t(c, Y)?"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended: magic" in out
        assert "+ relaxed" in out


class TestProfile:
    def test_text_report_default_query(self, program_file, capsys):
        assert main(["profile", str(program_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN ANALYZE  buys(tom, Y)?")
        assert "-- plan --" in out
        assert "-- per-rule work --" in out
        assert "wall-clock" in out

    def test_no_timings_is_deterministic(self, program_file, capsys):
        assert main(["profile", str(program_file), "--no-timings"]) == 0
        first = capsys.readouterr().out
        assert main(["profile", str(program_file), "--no-timings"]) == 0
        assert capsys.readouterr().out == first
        assert re.search(r"\d ?ms\b", first) is None

    def test_explicit_query_and_strategy(self, program_file, capsys):
        code = main(
            ["profile", str(program_file), "buys(sue, Y)?",
             "--strategy", "magic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "buys(sue, Y)?" in out
        assert "strategy: magic" in out

    def test_cost_order_adds_planner_section(self, program_file, capsys):
        code = main(
            ["profile", str(program_file), "--strategy", "seminaive",
             "--order", "cost", "--no-timings"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- planner (estimate vs observed)" in out
        assert "estimated_rows=" in out

    def test_chrome_trace_format(self, program_file, tmp_path, capsys):
        import json

        out_file = tmp_path / "t.trace.json"
        code = main(
            ["profile", str(program_file), "--format", "chrome-trace",
             "--out", str(out_file)]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        events = data["traceEvents"]
        assert events
        depth = 0
        for event in events:
            if event["ph"] == "B":
                depth += 1
            elif event["ph"] == "E":
                depth -= 1
                assert depth >= 0
        assert depth == 0

    def test_json_format(self, program_file, capsys):
        import json

        assert main(["profile", str(program_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strategy"] == "separable"
        assert data["answers"] == 2

    def test_events_file_replays(self, program_file, tmp_path, capsys):
        from repro.observability import replay_file

        events = tmp_path / "t.jsonl"
        code = main(
            ["profile", str(program_file), "--events", str(events)]
        )
        assert code == 0
        replayed = replay_file(events)
        assert any(s.name == "separable.loop" for s in replayed.spans())

    def test_events_into_a_missing_directory(self, program_file, tmp_path,
                                             capsys):
        from repro.observability import replay_file

        events = tmp_path / "missing" / "t.jsonl"
        assert main(["profile", str(program_file), "--events",
                     str(events)]) == 0
        assert list(replay_file(events).spans("separable.loop"))

    def test_events_file_of_an_aborted_query(self, tmp_path, capsys):
        from repro.observability import replay_file

        program = tmp_path / "cyclic.dl"
        program.write_text(CYCLIC)
        events = tmp_path / "t.jsonl"
        assert main(["profile", str(program), "--strategy", "counting",
                     "--events", str(events)]) == 2
        assert "cyclic" in capsys.readouterr().err
        replayed = replay_file(events)
        assert replayed.context == {"query": "buys(a1, Y)",
                                    "strategy": "counting"}
        (descent,) = replayed.spans("counting.descent")
        assert descent.status == "CyclicDataError"
        assert replayed.all_closed()

    def test_ambiguous_file_queries_error(self, tmp_path, capsys):
        path = tmp_path / "two.dl"
        path.write_text(EX12 + "buys(sue, Y)?\n")
        assert main(["profile", str(path)]) == 2
        assert "2 queries" in capsys.readouterr().err


class TestFuzz:
    def test_small_campaign_agrees(self, capsys):
        assert main(["fuzz", "--iterations", "5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "all strategies agree" in out
        assert "iterations=5" in out

    def test_strategy_subset(self, capsys):
        code = main(
            [
                "fuzz", "--iterations", "3", "--seed", "1",
                "--strategy", "seminaive", "--strategy", "magic",
            ]
        )
        assert code == 0

    def test_corpus_replayed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tc.dl").write_text(
            "% differential-repro v1\n"
            "% expect-separable: true\n"
            "tc(X, Y) :- edge(X, W) & tc(W, Y).\n"
            "tc(X, Y) :- edge(X, Y).\n"
            "edge(a, b).\n"
            "edge(b, c).\n"
            "tc(a, Y)?\n"
        )
        code = main(
            ["fuzz", "--iterations", "2", "--seed", "3",
             "--corpus", str(corpus)]
        )
        assert code == 0
        assert "corpus replayed=1" in capsys.readouterr().out

    def test_rejects_unknown_strategy(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--strategy", "quantum"])

    def test_order_sweep(self, capsys):
        code = main(
            ["fuzz", "--iterations", "3", "--seed", "5",
             "--strategy", "seminaive", "--orders", "left_to_right,cost"]
        )
        assert code == 0
        assert "all strategies agree" in capsys.readouterr().out

    def test_rejects_unknown_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--orders", "alphabetical"])


class TestServe:
    def test_batch_serve_summary(self, program_file, capsys):
        assert main(["serve", str(program_file), "--workers", "2",
                     "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "served 3 requests on 2 workers" in out
        assert "statuses: ok=3" in out
        assert "memo:" in out and "hits" in out

    def test_recorded_requests_are_counted_past_the_ring(self, program_file,
                                                        capsys):
        """The summary counts every recorded request, not the ones the
        256-record ring behind ``slowlog()`` still holds."""
        assert main(["serve", str(program_file), "--repeat", "300",
                     "--trace-sample", "1"]) == 0
        out = capsys.readouterr().out
        assert ("recorded: 300 requests with span trees (300 sampled, "
                "0 over threshold)") in out

    def test_a_sink_records_only_sampled_or_slow_requests(
            self, program_file, tmp_path, capsys):
        """With an events file every request leaves a record there, but
        only the sampled or slow ones count as recorded."""
        events = tmp_path / "events.jsonl"
        assert main(["serve", str(program_file), "--repeat", "20",
                     "--events", str(events),
                     "--slow-threshold", "3600"]) == 0
        out = capsys.readouterr().out
        assert ("recorded: 0 requests with span trees (0 sampled, "
                "0 over threshold)") in out
        lines = events.read_text().splitlines()
        assert sum('"service_request"' in line for line in lines) == 20

    def test_explicit_queries_and_stats(self, program_file, capsys):
        assert main([
            "serve", str(program_file),
            "--query", "buys(tom, Y)?",
            "--query", "buys(sue, Y)?",
            "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "buys(tom, Y)  status=ok" in out
        assert "buys(sue, Y)  status=ok" in out

    def test_metrics_out_prometheus_text(self, program_file, tmp_path,
                                         capsys):
        metrics = tmp_path / "metrics.prom"
        assert main(["serve", str(program_file), "--repeat", "4",
                     "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert 'repro_service_requests_total{status="ok"} 4' in text
        assert "repro_service_latency_seconds_count 4" in text
        assert 'wrote' in capsys.readouterr().out

    def test_metrics_out_json(self, program_file, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(["serve", str(program_file),
                     "--metrics-out", str(metrics)]) == 0
        snap = json.loads(metrics.read_text())
        assert snap["by_status"] == {"ok": 1}
        assert snap["memo"]["misses"] >= 1
        capsys.readouterr()

    def test_events_file_replays(self, program_file, tmp_path, capsys):
        from repro.observability import read_events

        events_path = tmp_path / "service.jsonl"
        assert main(["serve", str(program_file), "--repeat", "2",
                     "--events", str(events_path)]) == 0
        events = read_events(events_path)
        assert events[0]["type"] == "trace_start"
        assert [e["type"] for e in events].count("service_request") == 2
        capsys.readouterr()

    def test_events_into_a_missing_directory(self, program_file, tmp_path,
                                             capsys):
        from repro.observability import read_events

        events_path = tmp_path / "missing" / "service.jsonl"
        assert main(["serve", str(program_file),
                     "--events", str(events_path)]) == 0
        events = read_events(events_path)
        assert [e["type"] for e in events].count("service_request") == 1
        capsys.readouterr()

    def test_deadline_trips_divergent_requests(self, tmp_path, capsys):
        # Counting on the Example 1.1 chain wants Omega(2^n) count
        # tuples: with a tight deadline the request degrades instead of
        # hanging the driver.
        from repro.workloads.paper import example_1_1_database

        path = tmp_path / "deep.dl"
        lines = [
            "buys(X, Y) :- friend(X, W) & buys(W, Y).",
            "buys(X, Y) :- idol(X, W) & buys(W, Y).",
            "buys(X, Y) :- perfectFor(X, Y).",
        ]
        db = example_1_1_database(24)
        for name in ("friend", "idol", "perfectFor"):
            for fact in sorted(db.tuples(name)):
                args = ", ".join(fact)
                lines.append(f"{name}({args}).")
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "serve", str(path),
            "--query", "buys(a1, Y)?",
            "--strategy", "counting",
            "--deadline", "0.2",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "deadline_trips=" in out
        assert "error=1" in out

    @pytest.mark.parametrize("flag, value, field", [
        ("--deadline", "nan", "default_deadline_s"),
        ("--slow-threshold", "nan", "slow_query_threshold_s"),
        ("--workers", "0", "workers"),
        ("--trace-sample", "2", "trace_sample"),
    ])
    def test_a_bad_config_exits_2_before_any_file(
            self, program_file, tmp_path, capsys, flag, value, field):
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["serve", str(program_file), flag, value,
                     "--events", str(events),
                     "--metrics-out", str(metrics)]) == 2
        assert f"error: {field} is out of range" in capsys.readouterr().err
        assert not events.exists() and not metrics.exists()

    def test_no_queries(self, tmp_path, capsys):
        path = tmp_path / "empty.dl"
        path.write_text("p(X, Y) :- e(X, Y).\ne(a, b).\n")
        assert main(["serve", str(path)]) == 1
        assert "no queries" in capsys.readouterr().out
