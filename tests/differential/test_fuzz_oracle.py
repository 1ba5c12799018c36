"""Tier-1 entry point for the differential fuzzing subsystem.

Runs a small fixed-seed budget of the generator + oracle (so every CI
run cross-checks all nine strategies on fresh random cases), replays
every stored corpus repro file, and pins down the generator's
contracts: determinism from the seed, detection ground truth, and
round-tripping of cases through the repro-file format.

The long campaign at the bottom is opt-in via ``pytest -m fuzz``.
"""

import re
from pathlib import Path

import pytest

from repro.core.detection import analyze_recursion
from repro.differential import (
    Case,
    CaseGenerator,
    FuzzConfig,
    applicable_strategies,
    load_case,
    run_case,
    run_fuzz,
)
from repro.differential.cases import case_from_text
from repro.differential.runner import FuzzFailure
from repro.engine import STRATEGIES
from repro.observability import Tracer, trace_violations

CORPUS = Path(__file__).parent / "corpus"


class TestFixedSeedSmoke:
    """The tier-1 budget: 50 cases, every applicable strategy, <60s."""

    def test_50_iterations_agree(self):
        report = run_fuzz(FuzzConfig(iterations=50, seed=7))
        assert report.ok, report.summary()
        assert report.iterations_run == 50
        # Both halves of the distribution actually showed up.
        assert report.separable_cases > 0
        assert report.mutant_cases > 0
        # Several strategies ran per case on average.
        assert report.strategy_runs >= 3 * report.iterations_run

    def test_strategy_subset_campaign(self):
        report = run_fuzz(
            FuzzConfig(
                iterations=10,
                seed=21,
                strategies=("separable", "magic", "seminaive"),
            )
        )
        assert report.ok, report.summary()

    def test_order_sweep_campaign(self):
        report = run_fuzz(
            FuzzConfig(
                iterations=15,
                seed=11,
                strategies=("seminaive",),
                orders=("left_to_right", "cost"),
            )
        )
        assert report.ok, report.summary()


class TestOrderSweep:
    """The planner-vs-greedy differential rows on single cases."""

    def test_outcomes_recorded_per_order(self):
        case = CaseGenerator(seed=5).draw_case()
        verdict = run_case(case, orders=("left_to_right", "cost"))
        assert verdict.ok, verdict.summary()
        for order in ("left_to_right", "cost"):
            outcome = verdict.outcomes[f"order[{order}]"]
            assert outcome.ran or outcome.skipped

    def test_order_answers_match_reference(self):
        gen = CaseGenerator(seed=17)
        checked = 0
        for _ in range(10):
            verdict = run_case(gen.draw_case(), orders=("cost",))
            assert verdict.ok, verdict.summary()
            outcome = verdict.outcomes.get("order[cost]")
            if outcome is not None and outcome.ran:
                assert outcome.answers == verdict.reference
                checked += 1
        assert checked > 0


class TestCheckedRun:
    """Every configuration -- strategy, order, backend -- is run and
    judged by the same code (``oracle._checked_run``)."""

    def test_findings_carry_their_configuration(self, monkeypatch):
        from repro.engine import Engine

        dispatch = Engine._dispatch

        def lossy(self, *args, **kwargs):
            answers = dispatch(self, *args, **kwargs)
            return answers - {min(answers)}

        monkeypatch.setattr(Engine, "_dispatch", lossy)
        verdict = run_case(
            load_case(CORPUS / "example-1-2-friend-cheaper.dl"),
            orders=("cost",), backends=("sqlite",))
        found = {d.strategy: d for d in verdict.disagreements
                 if d.kind == "answers"}
        assert {"auto", "seminaive", "order[cost]", "backend[sqlite:auto]",
                "backend[sqlite:seminaive]",
                "backend[sqlite:order-cost]"} <= set(found)
        for name, finding in found.items():
            assert verdict.outcomes[name].ran
            assert finding.profile["strategy"] == name
            # The evidence is the run's whole span tree.
            trace = Tracer.from_dict(finding.profile["trace"])
            assert list(trace.spans()) and trace.all_closed()
            assert trace_violations(trace) == []
            swept = {k: finding.profile.get(k) for k in ("order", "backend")}
            assert swept == {
                "order": "cost" if name.startswith("order[") else None,
                "backend": "sqlite" if name.startswith("backend[") else None,
            }
        # A report counts each finding's spans off that tree.
        report = FuzzFailure(0, verdict.case, verdict).describe()
        counts = re.findall(r"evidence\[.*\]: .* spans=(\d+)", report)
        assert len(counts) == len(verdict.disagreements)
        assert all(int(n) > 0 for n in counts)

    def test_a_reference_over_the_tuple_limit_is_inconclusive(self):
        from repro.budget import Budget

        edges = "\n".join(f"e(a{i}, a{i + 1})." for i in range(60))
        case = case_from_text(
            "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y).\n"
            f"{edges}\ntc(a0, Y)?\n")
        verdict = run_case(case, budget=Budget(max_relation_tuples=100))
        assert verdict.ok and verdict.reference is None
        assert list(verdict.outcomes) == ["seminaive"]
        assert verdict.outcomes["seminaive"].skipped.startswith("reference:")


class TestCorpusReplay:
    """Every stored repro file must keep agreeing forever."""

    def test_corpus_is_nonempty(self):
        assert sorted(CORPUS.glob("*.dl")), (
            "the checked-in corpus should seed the replay test"
        )

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.dl")), ids=lambda p: p.name
    )
    def test_replay(self, path):
        verdict = run_case(load_case(path))
        assert verdict.ok, verdict.summary()


class TestLoopSweep:
    """The oracle runs every separable case through the reference carry
    loop and both flavours of the generated one, with no flag -- and
    once more under each swept join order."""

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.dl")), ids=lambda p: p.name
    )
    def test_corpus_runs_reference_and_both_flavours(self, path):
        case = load_case(path)
        verdict = run_case(case, orders=("cost",))
        assert verdict.ok, verdict.summary()
        for prefix in ("", "cost:"):
            names = [f"loop[{prefix}{run}]"
                     for run in ("reference", "traced", "untraced")]
            if "separable" not in applicable_strategies(case):
                assert not set(names) & set(verdict.outcomes)
                continue
            reference, traced, untraced = (
                verdict.outcomes[n] for n in names)
            assert reference.ran and traced.ran and untraced.ran
            assert reference.answers == verdict.reference
            assert reference.stats == traced.stats == untraced.stats

    def test_a_miscounting_generated_loop_is_a_finding(self, monkeypatch):
        from repro.core import evaluator

        generated = evaluator._generated_loop

        def miscounting(joins, initial, db, carry_name, seen_name, stats,
                        *rest):
            stats.bump_examined()
            return generated(joins, initial, db, carry_name, seen_name,
                             stats, *rest)

        monkeypatch.setattr(evaluator, "_generated_loop", miscounting)
        verdict = run_case(load_case(CORPUS / "example-1-2-friend-cheaper.dl"))
        assert {d.signature for d in verdict.disagreements} == {
            ("stats", "loop[traced]"), ("stats", "loop[untraced]"),
        }, verdict.summary()


class TestUnionCheck:
    """Every partial selection is also evaluated as the literal Lemma
    2.1 union -- one reference run per seed -- with no flag."""

    def test_partial_selection_records_the_per_seed_union(self):
        case = load_case(CORPUS / "example-2-4-partial-selection.dl")
        verdict = run_case(case)
        assert verdict.ok, verdict.summary()
        union = verdict.outcomes["union[batched]"]
        assert union.ran and union.answers == verdict.reference

    def test_full_selections_have_no_union_to_check(self):
        verdict = run_case(load_case(CORPUS / "example-1-2-friend-cheaper.dl"))
        assert "union[batched]" not in verdict.outcomes

    def test_a_batch_that_mixes_up_its_seeds_is_a_finding(self,
                                                          monkeypatch):
        """Hand every seed the union of all seeds' rows: each row then
        gets every seed's answers."""
        from repro.core import api

        real = api.execute_batch

        def mixing(plan, db, seeds, **kwargs):
            shares = real(plan, db, seeds, **kwargs)
            return [set().union(*shares)] * len(shares)

        monkeypatch.setattr(api, "execute_batch", mixing)
        text = (CORPUS / "example-2-4-partial-selection.dl").read_text()
        case = case_from_text(text.replace(
            "a(m, n, g, h).", "a(m, n, g, h).\na(c, e, p, q).\nt0(p, q, w1)."))
        verdict = run_case(case, strategies=["separable"])
        assert ("answers", "union[batched]") in {
            d.signature for d in verdict.disagreements
        }, verdict.summary()


class TestGeneratorContracts:
    def test_deterministic_from_seed(self):
        first = [c.to_text() for c in CaseGenerator(seed=11).cases(10)]
        second = [c.to_text() for c in CaseGenerator(seed=11).cases(10)]
        assert first == second

    def test_seeds_differ(self):
        a = [c.to_text() for c in CaseGenerator(seed=1).cases(5)]
        b = [c.to_text() for c in CaseGenerator(seed=2).cases(5)]
        assert a != b

    def test_detection_ground_truth(self):
        """Separable-by-construction and near-miss labels are exact."""
        seen = {True: 0, False: 0}
        for case in CaseGenerator(seed=3).cases(40):
            report = analyze_recursion(case.program, case.query.predicate)
            assert report.separable == case.expect_separable, (
                f"{case.note}\n{case.to_text()}\n{report.explain()}"
            )
            seen[case.expect_separable] += 1
        assert seen[True] and seen[False]

    def test_case_roundtrips_through_repro_file(self):
        for case in CaseGenerator(seed=5).cases(5):
            again = case_from_text(case.to_text())
            assert again.program == case.program
            assert str(again.query) == str(case.query)
            assert again.expect_separable == case.expect_separable
            for name in case.database.predicates():
                # Empty relations are not representable as facts; every
                # stored fact must survive exactly.
                assert again.database.tuples(name) == (
                    case.database.tuples(name)
                )


class TestOracle:
    def test_unknown_strategy_subset_rejected(self):
        case = next(CaseGenerator(seed=9).cases(1))
        with pytest.raises(ValueError, match="unknown strategies"):
            applicable_strategies(case, subset=["quantum"])

    def test_auto_always_applicable(self):
        case = next(CaseGenerator(seed=9).cases(1))
        names = applicable_strategies(case)
        assert "auto" in names
        assert set(names) <= set(STRATEGIES)
        # The fallbacks are applicable to everything.
        for always in ("magic", "seminaive", "naive"):
            assert always in names

    def test_trace_invariants_catch_leaked_span(self, monkeypatch):
        """A strategy that leaks an open span yields a ``trace`` finding."""
        from repro.engine import Engine

        original = Engine._dispatch
        leaks = []  # keep the context managers alive past dispatch

        def dispatch(self, strategy, query, report, stats, tracer,
                     *args, **kwargs):
            if tracer is not None and strategy == "seminaive":
                # Open a span without ever closing it: the exact bug
                # Tracer.span's finally-block exists to prevent.
                leak = tracer.span("leaky")
                leak.__enter__()
                leaks.append(leak)
            return original(self, strategy, query, report, stats, tracer,
                            *args, **kwargs)

        monkeypatch.setattr(Engine, "_dispatch", dispatch)
        case = load_case(CORPUS / "cyclic-transitive-closure.dl")
        verdict = run_case(case)
        assert not verdict.ok
        kinds = {(d.kind, d.strategy) for d in verdict.disagreements}
        assert ("trace", "seminaive") in kinds, verdict.summary()

    def test_fanout_hourglass_deltas_are_non_monotone(self):
        """The corpus fan-out case really does grow its deltas again.

        Guards the reason the monotone-terminating invariant is not a
        stricter "deltas shrink" check: this trace is correct yet its
        per-round delta series shrinks and then grows.
        """
        from repro.engine import Engine
        from repro.observability import Tracer, trace_violations

        case = load_case(CORPUS / "fanout-hourglass.dl")
        tracer = Tracer()
        engine = Engine(case.program, case.database)
        engine.query(case.query, strategy="seminaive", tracer=tracer)
        assert trace_violations(tracer) == []
        (scc,) = tracer.spans("seminaive.scc")
        deltas = scc.series["delta:tc"]
        rising = [i for i in range(1, len(deltas))
                  if deltas[i] > deltas[i - 1]]
        assert rising, f"expected a growing round in {deltas}"

    def test_reference_matches_conftest_oracle(self):
        from repro.differential.oracle import (
            DEFAULT_FUZZ_BUDGET,
            reference_answers,
        )

        from ..conftest import oracle_answers

        for case in CaseGenerator(seed=13).cases(5):
            assert reference_answers(case, DEFAULT_FUZZ_BUDGET) == (
                oracle_answers(case.program, case.database, case.query)
            )


@pytest.mark.fuzz
class TestLongCampaign:
    """Opt-in deep run: ``pytest -m fuzz tests/differential``."""

    @pytest.mark.parametrize("seed", [1234, 99])
    def test_500_iterations(self, seed):
        report = run_fuzz(FuzzConfig(iterations=500, seed=seed))
        assert report.ok, report.summary()
