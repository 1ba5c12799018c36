"""Regression-gate tests: ``compare_reports`` and the slowdown shim.

Synthetic reports pin each finding kind -- the baseline gates, then
each family's gate rows through the same ``compare_reports`` entry
point; the end-to-end tests run a real (tiny) family twice on a
fixed-tick clock and prove the gate is quiet on an honest re-run but
fires when the test-only shim stretches every timed repetition -- the
acceptance story for ``bench --check``.
"""

import copy

import pytest

import repro.bench.harness as harness
from repro.bench import (
    Bound,
    Flat,
    Ratio,
    calibrate,
    compare_reports,
    run_family,
)
from repro.bench.families import FAMILIES
from repro.bench.gating import Finding, evaluate_gates


def kinds(findings):
    return [f.kind for f in findings]


def regressions(findings):
    return [f for f in findings if f.regression]


def skips(findings):
    """``(strategy, n, message)`` of every gate that said it skipped."""
    return [
        (f.strategy, f.n, f.message) for f in findings if not f.regression
    ]


def _synthetic(normalized=1.0, median_s=0.01, **cell_overrides):
    cell = {
        "strategy": "separable",
        "n": 8,
        "outcome": "ok",
        "answers": 9,
        "max_relation_size": 64,
        "tuples_produced": 100,
        "tuples_examined": 200,
        "iterations": 5,
        "counters": {
            "tuples_examined": 200, "index_builds": 3, "plan_compiles": 2,
        },
        "trace_violations": [],
        "median_s": median_s,
        "normalized": normalized,
    }
    cell.update(cell_overrides)
    return {
        "schema": "repro-bench/1",
        "family": "e3",  # one column, so no cross-cell gate rows
        "sizes": [8],
        "results": [cell],
    }


class TestFindingKinds:
    def test_identical_reports_pass(self):
        base = _synthetic()
        assert compare_reports(base, copy.deepcopy(base)) == []

    def test_schema_mismatch_short_circuits(self):
        base = _synthetic()
        cur = _synthetic()
        cur["schema"] = "repro-bench/2"
        findings = compare_reports(base, cur)
        assert [f.kind for f in findings] == ["schema"]

    def test_missing_cell(self):
        cur = _synthetic()
        cur["results"] = []
        findings = compare_reports(_synthetic(), cur)
        assert kinds(findings) == ["missing", "ungated"]

    def test_unswept_sizes_are_not_compared(self):
        """A reduced-n smoke run only gates the sizes it swept -- and
        one that shares no size with the baseline gated nothing."""
        cur = _synthetic()
        cur["sizes"] = [4]  # baseline cell is n=8: out of scope
        cur["results"] = []
        assert kinds(compare_reports(_synthetic(), cur)) == ["ungated"]

    def test_outcome_change_suppresses_downstream_gates(self):
        cur = _synthetic(
            outcome="budget", answers=None, max_relation_size=10
        )
        findings = compare_reports(_synthetic(), cur)
        assert kinds(findings) == ["outcome", "ungated"]

    def test_answer_drift_is_a_finding(self):
        findings = compare_reports(_synthetic(), _synthetic(answers=8))
        assert [f.kind for f in findings] == ["answers"]

    def test_size_drift_is_a_finding(self):
        findings = compare_reports(
            _synthetic(), _synthetic(max_relation_size=128)
        )
        assert [f.kind for f in findings] == ["size"]

    def test_counter_drift_is_exact_by_default(self):
        cur = _synthetic(counters={
            "tuples_examined": 201, "index_builds": 3, "plan_compiles": 2,
        })
        findings = compare_reports(_synthetic(), cur)
        assert [f.kind for f in findings] == ["counter"]
        assert "tuples_examined" in findings[0].message

    def test_counter_tolerance_loosens_the_gate(self):
        cur = _synthetic(counters={
            "tuples_examined": 210, "index_builds": 3, "plan_compiles": 2,
        })
        assert (
            compare_reports(_synthetic(), cur, counter_tolerance=0.1)
            == []
        )

    def test_slow_cell_is_a_time_finding(self):
        findings = compare_reports(
            _synthetic(normalized=1.0), _synthetic(normalized=2.0)
        )
        assert [f.kind for f in findings] == ["time"]
        assert "ratio 2.00" in findings[0].message

    def test_time_within_tolerance_passes(self):
        gated = []
        assert (
            compare_reports(
                _synthetic(normalized=1.0), _synthetic(normalized=1.5),
                gated=gated,
            )
            == []
        )
        assert gated == ["time", "flat"]

    def test_sub_noise_floor_cells_are_not_time_gated(self):
        base = _synthetic(normalized=1.0, median_s=1e-5)
        cur = _synthetic(normalized=50.0, median_s=5e-4)
        gated = []
        findings = compare_reports(base, cur, gated=gated)
        assert kinds(findings) == ["skipped", "ungated"]
        assert not findings[0].regression
        assert "below the 1ms noise floor" in findings[0].message
        assert "time" not in gated

    def test_gating_no_time_cell_is_a_regression(self):
        """A check that skipped every time cell would pass any
        slowdown, so it fails instead."""
        base = _synthetic(median_s=1e-5)
        findings = compare_reports(base, copy.deepcopy(base))
        assert kinds(regressions(findings)) == ["ungated"]
        assert "would pass any slowdown" in findings[-1].message

    def test_digest_drift_is_a_finding(self):
        findings = compare_reports(
            _synthetic(answers_sha="aa"), _synthetic(answers_sha="bb")
        )
        assert kinds(findings) == ["answers"]
        assert "digest" in findings[0].message

    def test_finding_renders_location(self):
        f = Finding("e2", "magic", 8, "time", "too slow")
        assert str(f) == "[time] e2/magic n=8: too slow"


def _maintenance_report(inc_s=0.002, fs_s=0.01, inc_answers=40,
                        fs_answers=40, outcome="ok"):
    def cell(strategy, median_s, answers):
        return {
            "strategy": strategy, "n": 8, "outcome": outcome,
            "answers": answers, "max_relation_size": 0,
            "tuples_produced": 0, "tuples_examined": 0, "iterations": 0,
            "counters": {"plan_compiles": 0}, "trace_violations": [],
            "median_s": median_s, "normalized": median_s / 0.005,
        }

    return {
        "schema": "repro-bench/1",
        "family": "incremental-write",
        "sizes": [8],
        "results": [
            cell("incremental", inc_s, inc_answers),
            cell("fromscratch", fs_s, fs_answers),
        ],
    }


class TestMaintenanceGate:
    def test_faster_incremental_passes(self):
        assert evaluate_gates(_maintenance_report()) == []

    def test_slower_incremental_fails(self):
        findings = evaluate_gates(
            _maintenance_report(inc_s=0.02, fs_s=0.01)
        )
        assert kinds(findings) == ["maintenance"]
        assert "beat recomputation" in findings[0].message

    def test_tie_fails(self):
        # "Strictly faster": a repair path that merely matches a full
        # recomputation is not earning its complexity.
        findings = evaluate_gates(
            _maintenance_report(inc_s=0.01, fs_s=0.01)
        )
        assert kinds(findings) == ["maintenance"]

    def test_answer_mismatch_is_a_correctness_finding(self):
        findings = evaluate_gates(_maintenance_report(inc_answers=41))
        assert kinds(findings) == ["answers"]

    def test_build_cell_answers_a_different_question(self):
        # ``build`` counts the view's derived facts, not answers over
        # the write stream: the Agrees row names the cells it compares.
        report = _maintenance_report()
        report["results"].append(
            dict(report["results"][0], strategy="build", answers=7)
        )
        assert evaluate_gates(report) == []

    def test_noise_floor_skips_speed_but_not_answers(self):
        report = _maintenance_report(
            inc_s=9e-4, fs_s=5e-4, inc_answers=41
        )
        findings = evaluate_gates(report)
        assert kinds(findings) == ["answers", "skipped"]
        assert skips(findings) == [(
            "incremental", 8,
            "repairs must beat recomputation not checked: fromscratch "
            "median 0.50ms is below the 1ms noise floor",
        )]

    def test_non_ok_cells_are_skipped(self):
        report = _maintenance_report(inc_s=0.02, outcome="budget")
        findings = evaluate_gates(report)
        assert regressions(findings) == []
        # Both rows (answers agree, repairs win) say why they stood down.
        assert [message for _, _, message in skips(findings)] == [
            "same answers as fromscratch not checked: incremental "
            "outcome is budget",
            "repairs must beat recomputation not checked: incremental "
            "outcome is budget",
        ]

    def test_compare_reports_runs_the_gate_on_the_current_run(self):
        base = _maintenance_report()
        cur = _maintenance_report(inc_s=0.02, fs_s=0.01)
        # Times moved under the baseline tolerance is irrelevant here:
        # the maintenance gate judges the current run against itself.
        findings = compare_reports(base, cur, time_tolerance=1e9)
        assert "maintenance" in {f.kind for f in findings}


def _skew_report(cost_s=0.002, greedy_s=0.01, cost_fanout=70,
                 greedy_fanout=670, cost_answers=4, cost_sha="aa",
                 greedy_sha="aa", outcome="ok"):
    def cell(strategy, median_s, answers, sha, fanout):
        return {
            "strategy": strategy, "n": 8, "outcome": outcome,
            "answers": answers, "answers_sha": sha,
            "max_relation_size": 0, "tuples_produced": 0,
            "tuples_examined": 0, "iterations": 0,
            "counters": {"bindings_out": fanout, "plan_compiles": 3},
            "trace_violations": [], "median_s": median_s,
            "normalized": median_s / 0.005,
        }

    return {
        "schema": "repro-bench/1",
        "family": "skewed-join",
        "sizes": [8],
        "results": [
            cell("order-greedy", greedy_s, 4, greedy_sha, greedy_fanout),
            cell("order-left_to_right", greedy_s, 4, greedy_sha,
                 greedy_fanout),
            cell("order-cost", cost_s, cost_answers, cost_sha,
                 cost_fanout),
        ],
    }


class TestSkewGate:
    def test_honest_cost_win_passes(self):
        assert evaluate_gates(_skew_report()) == []

    def test_fanout_tie_fails(self):
        # "Strictly reduces join fanout": matching greedy's fanout
        # means the cost model earned nothing.
        findings = evaluate_gates(_skew_report(cost_fanout=670))
        assert kinds(findings) == ["plan"]
        assert "bindings_out" in findings[0].message

    def test_wall_time_loss_fails(self):
        findings = evaluate_gates(_skew_report(cost_s=0.02))
        assert kinds(findings) == ["plan"]
        assert "wall time" in findings[0].message

    def test_one_winning_size_is_enough(self):
        report = _skew_report(cost_s=0.02, cost_fanout=670)
        winner = copy.deepcopy(report["results"])
        for cell in winner:
            cell["n"] = 16
            if cell["strategy"] == "order-cost":
                cell["median_s"] = 0.002
                cell["normalized"] = 0.002 / 0.005
                cell["counters"]["bindings_out"] = 70
        report["results"] += winner
        assert evaluate_gates(report) == []

    def test_noise_floor_waives_wall_clock_only(self):
        report = _skew_report(cost_s=9e-4, greedy_s=5e-4,
                              cost_fanout=670)
        findings = evaluate_gates(report)
        assert kinds(findings) == ["plan", "skipped"]  # fanout still gated
        assert "bindings_out" in findings[0].message
        assert skips(findings) == [(
            "order-cost", 8,
            "cost order must beat greedy on wall time not checked: "
            "order-greedy median 0.50ms is below the 1ms noise floor",
        )]

    def test_answer_count_mismatch_is_correctness(self):
        findings = evaluate_gates(_skew_report(cost_answers=5))
        assert "answers" in kinds(findings)

    def test_digest_mismatch_is_correctness_even_at_equal_counts(self):
        findings = evaluate_gates(_skew_report(cost_sha="bb"))
        assert "answers" in kinds(findings)
        assert any("digest" in f.message for f in findings)

    def test_non_ok_cells_are_skipped(self):
        findings = evaluate_gates(_skew_report(outcome="budget"))
        assert regressions(findings) == []
        # 2 x agrees, fanout, wall time.
        assert len(skips(findings)) == 4
        assert all("outcome is budget" in m for _, _, m in skips(findings))

    def test_rows_of_another_family_do_not_apply(self):
        report = _backend_report()
        gates = FAMILIES["skewed-join"].gates
        assert regressions(evaluate_gates(report, gates)) == []

    def test_compare_reports_runs_the_gate_on_the_current_run(self):
        base = _skew_report()
        cur = _skew_report(cost_sha="bb")
        findings = compare_reports(base, cur, time_tolerance=1e9)
        assert "answers" in {f.kind for f in findings}


def _backend_report(none_s=0.02, memory_s=0.022, sqlite_s=0.08,
                    memory_answers=43, memory_sha="aa",
                    sqlite_answers=43, sqlite_sha="aa", outcome="ok"):
    def cell(strategy, median_s, answers, sha):
        return {
            "strategy": strategy, "n": 64, "outcome": outcome,
            "answers": answers, "answers_sha": sha,
            "max_relation_size": 999, "tuples_produced": 0,
            "tuples_examined": 0, "iterations": 0,
            "counters": {"plan_compiles": 4}, "trace_violations": [],
            "median_s": median_s, "normalized": median_s / 0.005,
        }

    return {
        "schema": "repro-bench/1",
        "family": "out-of-core",
        "sizes": [64],
        "results": [
            cell("backend-none", none_s, 43, "aa"),
            cell("backend-memory", memory_s, memory_answers, memory_sha),
            cell("backend-sqlite", sqlite_s, sqlite_answers, sqlite_sha),
        ],
    }


class TestBackendGate:
    def test_honest_run_passes(self):
        assert evaluate_gates(_backend_report()) == []

    def test_memory_dispatch_overhead_fails(self):
        findings = evaluate_gates(_backend_report(memory_s=0.05))
        assert kinds(findings) == ["backend"]
        assert "selection must be free" in findings[0].message

    def test_sqlite_slowness_is_not_a_finding(self):
        # Paying per-probe SQL cost is the out-of-core deal, not a
        # regression; only correctness is gated for sqlite.
        assert evaluate_gates(_backend_report(sqlite_s=5.0)) == []

    def test_noise_floor_waives_overhead_only(self):
        report = _backend_report(none_s=1e-3, memory_s=1e-2,
                                 sqlite_sha="bb")
        findings = evaluate_gates(report)
        assert kinds(findings) == ["answers", "skipped"]
        assert skips(findings) == [(
            "backend-memory", 64,
            "backend selection must be free not checked: backend-none "
            "median 1.00ms is below the 5ms noise floor",
        )]

    def test_answer_count_mismatch_is_correctness(self):
        findings = evaluate_gates(_backend_report(sqlite_answers=41))
        assert "answers" in kinds(findings)

    def test_digest_mismatch_is_correctness_even_at_equal_counts(self):
        findings = evaluate_gates(_backend_report(memory_sha="bb"))
        assert "answers" in kinds(findings)
        assert any("digest" in f.message for f in findings)

    def test_non_ok_cells_are_skipped(self):
        findings = evaluate_gates(_backend_report(outcome="budget"))
        assert regressions(findings) == []
        assert len(skips(findings)) == 3  # 2 x agrees, overhead
        assert all("outcome is budget" in m for _, _, m in skips(findings))

    def test_compare_reports_runs_the_gate_on_the_current_run(self):
        base = _backend_report()
        cur = _backend_report(sqlite_sha="bb")
        findings = compare_reports(base, cur, time_tolerance=1e9)
        assert "answers" in {f.kind for f in findings}


def _growth_report(compiles_by_n, outcome="ok"):
    report = _synthetic()
    cell = report["results"][0]
    report["results"] = [
        dict(cell, n=n, outcome=outcome, counters={"plan_compiles": c})
        for n, c in compiles_by_n.items()
    ]
    report["sizes"] = sorted(compiles_by_n)
    return report


class TestGateRows:
    """Rows built directly, for the edges no family's table reaches."""

    def test_flat_counter_passes(self):
        assert evaluate_gates(_growth_report({8: 3, 16: 3})) == []

    def test_growing_counter_fails(self):
        findings = evaluate_gates(
            _growth_report({8: 3, 16: 4}), [Flat("plan_compiles")]
        )
        assert kinds(findings) == ["plan"]
        assert "n=8:3 n=16:4" in findings[0].message
        assert "size-independent" in findings[0].message

    def test_flat_ignores_cells_that_did_not_finish(self):
        report = _growth_report({8: 3, 16: 3})
        report["results"].append(dict(
            report["results"][0], n=32, outcome="budget",
            counters={"plan_compiles": 9},
        ))
        assert evaluate_gates(report, [Flat("plan_compiles")]) == []

    def test_flat_on_a_report_without_the_counter_is_skipped(self):
        report = _growth_report({8: 3})
        report["results"][0]["counters"] = {}
        assert skips(evaluate_gates(report, [Flat("plan_compiles")])) == [(
            "separable", None,
            "plan_compiles must be size-independent not checked: "
            "plan_compiles not recorded",
        )]

    def test_bound_reads_tracer_counters_and_cell_keys(self):
        report = _growth_report({8: 3})
        report["results"][0]["iterations"] = 7
        for counter, limit, expect in [
            ("plan_compiles", 3, []), ("plan_compiles", 2, ["plan"]),
            ("iterations", 7, []), ("iterations", 6, ["plan"]),
        ]:
            gate = Bound(
                counter, limit, ("separable",), "plan", "stays small"
            )
            assert kinds(evaluate_gates(report, [gate])) == expect

    def test_per_round_plan_lookups_fail_the_separable_families(self):
        # 18 is what e7's separable cell counted while its carry loops
        # asked the plan cache once per join per round (9 rounds x 2).
        for key in ("e1", "e2", "e5", "e7"):
            rows = [g for g in FAMILIES[key].gates if isinstance(g, Bound)]
            assert [g.counter for g in rows] == ["plan_cache_hits"]
            report = _growth_report({8: 3})
            report["results"][0]["counters"]["plan_cache_hits"] = 18
            assert kinds(evaluate_gates(report, rows)) == ["plan"]
            report["results"][0]["counters"]["plan_cache_hits"] = 3
            assert evaluate_gates(report, rows) == []

    def test_ratio_with_a_missing_reference_cell_is_skipped(self):
        gate = Ratio("separable", "magic", 1.0, "time", "separable wins")
        assert skips(evaluate_gates(_synthetic(), [gate])) == [(
            "separable", 8, "separable wins not checked: no magic cell",
        )]

    def test_largest_judges_the_largest_eligible_size_alone(self):
        gate = Ratio("order-cost", "order-greedy", 1.0, "plan",
                     "cost wins where it counts", floor_s=1e-3,
                     sizes="largest")
        report = _skew_report(cost_s=0.02)  # n=8: cost loses
        bigger = copy.deepcopy(report["results"])
        for cell in bigger:
            cell["n"] = 16
            if cell["strategy"] == "order-cost":
                cell["normalized"] = 0.002 / 0.005  # n=16: cost wins
        report["results"] += bigger
        assert evaluate_gates(report, [gate]) == []
        for cell in bigger:
            cell["median_s"] = 5e-4  # n=16 under the floor: n=8 judges
        assert kinds(evaluate_gates(report, [gate])) == ["plan"]

    def test_time_ratios_compare_calibrated_times(self):
        # The machine ran twice as fast while the greedy cells were
        # timed (their calibration unit halved): raw medians say cost
        # lost, normalized times say it won.
        report = _skew_report(cost_s=0.012, greedy_s=0.010)
        for cell in report["results"]:
            if cell["median_s"] == 0.010:
                cell["normalized"] = 0.010 / 0.0025
        assert evaluate_gates(report) == []

    def test_every_evaluation_is_counted_once(self):
        gated = []
        report = _skew_report(cost_s=9e-4, greedy_s=5e-4)
        findings = evaluate_gates(report, gated=gated)
        # flat x3, agrees x2, fanout ratio applied; wall-time ratio
        # skipped.
        assert sorted(gated) == (
            ["agrees"] * 2 + ["flat"] * 3 + ["ratio"]
        )
        assert kinds(findings) == ["skipped"]


def _run_e2(sizes=(8, 12)):
    return run_family(
        FAMILIES["e2"], list(sizes), repeats=3,
        calibration=calibrate(repeats=1),
    )


class TestEndToEnd:
    """Real (tiny) family runs on the fake clock: every cell lasts one
    tick, above the noise floor, so all four are time-gated on any
    machine -- these used to pass or fail on scheduler luck.  The one
    real-clock run is opt-in (``-m bench``)."""

    def test_honest_rerun_passes(self, fake_clock):
        assert compare_reports(_run_e2(), _run_e2()) == []

    def test_injected_slowdown_fails(self, fake_clock, monkeypatch):
        """The acceptance shim: a 3x stretch must trip the gate on
        every cell, and nothing else may."""
        baseline = _run_e2()
        monkeypatch.setattr(harness, "_TEST_SLOWDOWN", 3.0)
        findings = compare_reports(baseline, _run_e2())
        assert [f.kind for f in findings] == ["time"] * 4
        assert all("ratio 3.00" in f.message for f in findings)

    @pytest.mark.bench
    def test_honest_rerun_passes_on_the_real_clock(self):
        """``_timed`` and the interleaved calibration kernel on
        ``time.perf_counter`` through the gate, at sizes where the magic
        cells clear the noise floor on the machines we run on.

        Two real-clock runs agree within the gate's 1.6x only on a quiet
        machine, so this is a ``bench`` test (CI's ``bench-smoke`` runs
        it): tier-1 stays deterministic."""
        findings = compare_reports(_run_e2([16, 24]), _run_e2([16, 24]))
        assert [f for f in findings if f.regression] == []

    def test_shim_never_applies_to_calibration(self, monkeypatch):
        """A uniformly slower machine cancels; a slower code path must
        not -- so the shim stretches unit timings only."""
        baseline_unit = calibrate(repeats=1)["unit_s"]
        monkeypatch.setattr(harness, "_TEST_SLOWDOWN", 50.0)
        shimmed_unit = calibrate(repeats=1)["unit_s"]
        # 50x would be far beyond run-to-run noise; same order instead.
        assert shimmed_unit < baseline_unit * 10
