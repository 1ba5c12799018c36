"""Unit and property tests for EvaluationStats and Budget."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.budget import UNLIMITED, Budget
from repro.datalog.errors import BudgetExceeded
from repro.stats import EvaluationStats


class TestEvaluationStats:
    def test_record_relation_keeps_max(self):
        stats = EvaluationStats()
        stats.record_relation("carry_1", 5)
        stats.record_relation("carry_1", 3)
        stats.record_relation("carry_1", 9)
        assert stats.relation_sizes["carry_1"] == 9

    def test_zero_size_recorded(self):
        stats = EvaluationStats()
        stats.record_relation("empty", 0)
        assert stats.relation_sizes["empty"] == 0

    def test_max_relation_size(self):
        stats = EvaluationStats()
        stats.record_relation("a", 3)
        stats.record_relation("b", 7)
        assert stats.max_relation_size == 7
        assert stats.total_relation_size == 10

    def test_max_relation_size_empty(self):
        assert EvaluationStats().max_relation_size == 0

    def test_largest_relation(self):
        stats = EvaluationStats()
        stats.record_relation("a", 3)
        stats.record_relation("b", 7)
        assert stats.largest_relation() == ("b", 7)

    def test_largest_relation_empty(self):
        assert EvaluationStats().largest_relation() == ("", 0)

    def test_counters(self):
        stats = EvaluationStats()
        stats.bump_iterations()
        stats.bump_iterations(2)
        stats.bump_produced(5)
        stats.bump_examined(7)
        assert stats.iterations == 3
        assert stats.tuples_produced == 5
        assert stats.tuples_examined == 7

    def test_merge(self):
        a = EvaluationStats()
        a.record_relation("r", 4)
        a.bump_produced(2)
        b = EvaluationStats()
        b.record_relation("r", 9)
        b.record_relation("s", 1)
        b.bump_produced(3)
        a.merge(b)
        assert a.relation_sizes == {"r": 9, "s": 1}
        assert a.tuples_produced == 5

    def test_as_dict(self):
        stats = EvaluationStats(strategy="separable")
        stats.record_relation("seen_1", 4)
        d = stats.as_dict()
        assert d["strategy"] == "separable"
        assert d["max_relation_size"] == 4
        assert d["largest_relation"] == "seen_1"

    def test_format_table(self):
        stats = EvaluationStats(strategy="magic")
        stats.record_relation("magic_p", 12)
        text = stats.format_table()
        assert "magic" in text and "magic_p" in text and "12" in text


class TestBudget:
    def test_relation_budget(self):
        budget = Budget(max_relation_tuples=10)
        budget.check_relation("r", 10)  # at the limit: fine
        with pytest.raises(BudgetExceeded):
            budget.check_relation("r", 11)

    def test_total_budget(self):
        budget = Budget(max_total_tuples=10)
        stats = EvaluationStats()
        stats.record_relation("a", 6)
        stats.record_relation("b", 4)
        budget.check_stats(stats)
        stats.record_relation("c", 1)
        with pytest.raises(BudgetExceeded):
            budget.check_stats(stats)

    def test_iteration_budget(self):
        budget = Budget(max_iterations=3)
        stats = EvaluationStats()
        stats.bump_iterations(4)
        with pytest.raises(BudgetExceeded):
            budget.check_stats(stats)

    def test_error_carries_stats(self):
        budget = Budget(max_relation_tuples=1)
        stats = EvaluationStats()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check_relation("r", 5, stats)
        assert excinfo.value.stats is stats

    def test_unlimited_never_trips(self):
        stats = EvaluationStats()
        stats.record_relation("huge", 10**12)
        stats.bump_iterations(10**9)
        UNLIMITED.check_relation("huge", 10**12, stats)
        UNLIMITED.check_stats(stats)


# -- hypothesis strategies ---------------------------------------------------

_sizes = st.dictionaries(
    st.sampled_from(["magic", "count", "carry_1", "seen_2", "ans", "t"]),
    st.integers(min_value=0, max_value=10**6),
    max_size=6,
)
_counter = st.integers(min_value=0, max_value=10**6)


@st.composite
def _stats(draw):
    stats = EvaluationStats(strategy=draw(st.sampled_from(["", "separable"])))
    for name, size in draw(_sizes).items():
        stats.record_relation(name, size)
    stats.bump_iterations(draw(_counter))
    stats.bump_produced(draw(_counter))
    stats.bump_examined(draw(_counter))
    return stats


def _snapshot(stats: EvaluationStats):
    return (
        dict(stats.relation_sizes),
        stats.iterations,
        stats.tuples_produced,
        stats.tuples_examined,
    )


class TestMergeProperties:
    """Algebraic laws of EvaluationStats.merge (Lemma 2.1 unions)."""

    @given(_stats(), _stats())
    def test_merge_is_pointwise_max_and_counter_sum(self, a, b):
        before_a = _snapshot(a)
        before_b = _snapshot(b)
        a.merge(b)
        sizes_a, its_a, prod_a, exam_a = before_a
        sizes_b, its_b, prod_b, exam_b = before_b
        expected = {
            name: max(sizes_a.get(name, -1), sizes_b.get(name, -1))
            for name in {*sizes_a, *sizes_b}
        }
        assert a.relation_sizes == expected
        assert a.iterations == its_a + its_b
        assert a.tuples_produced == prod_a + prod_b
        assert a.tuples_examined == exam_a + exam_b
        # merge must not mutate its argument
        assert _snapshot(b) == before_b

    @given(_stats(), _stats())
    def test_merge_order_insensitive_on_sizes(self, a, b):
        """The paper's union measure: sizes commute (counters reorder
        freely too, being sums)."""
        a2 = EvaluationStats()
        a2.merge(a)
        b2 = EvaluationStats()
        b2.merge(b)
        a2.merge(b)
        b2.merge(a)
        assert a2.relation_sizes == b2.relation_sizes
        assert a2.max_relation_size == b2.max_relation_size
        assert a2.iterations == b2.iterations

    @given(_stats())
    def test_merge_with_self_doubles_counters_keeps_sizes(self, a):
        sizes, its, prod, exam = _snapshot(a)
        a.merge(a)
        assert a.relation_sizes == sizes
        assert a.iterations == 2 * its
        assert a.tuples_produced == 2 * prod
        assert a.tuples_examined == 2 * exam

    @given(_stats())
    def test_merge_identity(self, a):
        before = _snapshot(a)
        a.merge(EvaluationStats())
        assert _snapshot(a) == before

    @given(_stats())
    def test_summary_invariants(self, a):
        assert 0 <= a.max_relation_size <= a.total_relation_size
        name, size = a.largest_relation()
        assert size == a.max_relation_size
        if a.relation_sizes:
            assert a.relation_sizes[name] == size


class TestBudgetProperties:
    @given(_stats(), st.integers(min_value=0, max_value=10**6))
    def test_check_relation_trips_iff_over(self, stats, size):
        budget = Budget(max_relation_tuples=1000)
        if size > 1000:
            with pytest.raises(BudgetExceeded):
                budget.check_relation("r", size, stats)
        else:
            budget.check_relation("r", size, stats)

    @given(_stats())
    def test_check_stats_trips_iff_over(self, stats):
        budget = Budget(max_total_tuples=500, max_iterations=500)
        over = (
            stats.total_relation_size > 500 or stats.iterations > 500
        )
        if over:
            with pytest.raises(BudgetExceeded) as excinfo:
                budget.check_stats(stats)
            assert excinfo.value.stats is stats
        else:
            budget.check_stats(stats)

    def test_zero_budget_allows_zero_work(self):
        """The degenerate budget admits exactly the empty evaluation."""
        budget = Budget(
            max_relation_tuples=0, max_total_tuples=0, max_iterations=0
        )
        budget.check_relation("r", 0)
        budget.check_stats(EvaluationStats())
        empty = EvaluationStats()
        empty.record_relation("r", 0)
        budget.check_stats(empty)  # zero-size relations cost nothing

    def test_zero_budget_rejects_any_work(self):
        budget = Budget(
            max_relation_tuples=0, max_total_tuples=0, max_iterations=0
        )
        with pytest.raises(BudgetExceeded):
            budget.check_relation("r", 1)
        one_tuple = EvaluationStats()
        one_tuple.record_relation("r", 1)
        with pytest.raises(BudgetExceeded):
            budget.check_stats(one_tuple)
        one_iter = EvaluationStats()
        one_iter.bump_iterations()
        with pytest.raises(BudgetExceeded):
            budget.check_stats(one_iter)


class TestWallClockBudget:
    def test_default_is_unlimited(self):
        budget = Budget()
        assert budget.max_wall_seconds is None
        assert budget.deadline is None
        budget.check_wall()  # unarmed: a no-op forever

    def test_unarmed_limit_never_trips(self):
        # A wall limit without start_clock() is inert by design: the
        # deadline is per-query, armed by Engine.query.
        budget = Budget(max_wall_seconds=0.0)
        budget.check_wall()

    def test_start_clock_arms_a_deadline(self):
        budget = Budget(max_wall_seconds=10.0).start_clock(now=100.0)
        assert budget.deadline == 110.0
        assert budget.remaining_seconds(now=104.0) == 6.0

    def test_start_clock_without_limit_is_identity(self):
        budget = Budget()
        assert budget.start_clock() is budget

    def test_expired_deadline_trips_with_wall_clock_limit(self):
        budget = Budget(max_wall_seconds=0.0).start_clock(now=0.0)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check_wall()
        assert excinfo.value.limit == "wall_clock"
        assert excinfo.value.retryable
        assert "wall clock" in str(excinfo.value)

    def test_check_stats_also_checks_the_wall(self):
        budget = Budget(max_wall_seconds=0.0).start_clock(now=0.0)
        stats = EvaluationStats()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check_stats(stats)
        assert excinfo.value.limit == "wall_clock"
        assert excinfo.value.stats is stats

    def test_with_wall_limit_replaces_and_disarms(self):
        armed = Budget(max_wall_seconds=5.0).start_clock(now=0.0)
        tightened = armed.with_wall_limit(1.0)
        assert tightened.max_wall_seconds == 1.0
        assert tightened.deadline is None  # must be re-armed

    def test_limit_tags_name_the_tripped_limit(self):
        stats = EvaluationStats()
        stats.record_relation("r", 2)
        with pytest.raises(BudgetExceeded) as excinfo:
            Budget(max_relation_tuples=1).check_relation("r", 2, stats)
        assert excinfo.value.limit == "relation_tuples"
        assert not excinfo.value.retryable

        over_iters = EvaluationStats()
        over_iters.bump_iterations(2)
        with pytest.raises(BudgetExceeded) as excinfo:
            Budget(max_iterations=1).check_stats(over_iters)
        assert excinfo.value.limit == "iterations"
        assert not excinfo.value.retryable

    def test_engine_query_arms_the_wall_clock_per_query(self):
        from repro.datalog.database import Database
        from repro.engine import Engine
        from repro.workloads.paper import example_1_1_program

        program = example_1_1_program()
        db = Database.from_facts(
            {
                "friend": [("tom", "sue")],
                "idol": [],
                "perfectFor": [("sue", "boat")],
            }
        )
        engine = Engine(program, db, budget=Budget(max_wall_seconds=30.0))
        # Far-off deadline: queries pass, and pass again later (each
        # call re-arms, so the limit never becomes "since construction").
        result = engine.query("buys(tom, Y)?")
        assert result.answers == frozenset({("tom", "boat")})
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.query(
                "buys(tom, Y)?",
                budget=Budget(max_wall_seconds=0.0),
            )
        assert excinfo.value.limit == "wall_clock"


# -- budgets are enforced with or without a statistics reader -----------------

_TC = "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y).\n"


def _tc_chain(rules=_TC, n=60):
    from repro.datalog.database import Database
    from repro.datalog.parser import parse_program
    from repro.workloads.generators import chain

    return parse_program(rules).program, Database.from_facts({"e": chain(n)})


def _materialize(evaluate):
    def run(stats, budget):
        program, db = _tc_chain()
        evaluate(program, db, stats=stats, budget=budget)

    return run


def _rewrite(evaluate, query):
    def run(stats, budget):
        from repro.datalog.parser import parse_query

        program, db = _tc_chain()
        evaluate(program, db, parse_query(query), stats=stats, budget=budget)

    return run


def _plan(execute):
    def run(stats, budget):
        from repro.engine import Engine

        program, db = _tc_chain()
        plan = Engine(program, db).plan_for("tc(a0, Y)?")
        execute(plan, db, [("a0",)], stats=stats, budget=budget)

    return run


def _budgeted_runs():
    """(evaluator run, a budget that tc over a 60-chain exceeds under
    it, the limit's name).  The traced loop records no relation sizes,
    so only the round count bounds it."""
    from functools import partial

    from repro.core.provenance import execute_plan_traced
    from repro.datalog.naive import naive_evaluate
    from repro.datalog.seminaive import seminaive_evaluate
    from repro.rewriting.magic import evaluate_magic
    from repro.rewriting.nodedup import execute_plan_nodedup
    from repro.rewriting.selection_push import evaluate_pushed

    tuples = (Budget(max_relation_tuples=40), "relation_tuples")
    rounds = (Budget(max_iterations=10), "iterations")
    for evaluate, run, budgets in [
        (naive_evaluate, _materialize, (tuples, rounds)),
        (seminaive_evaluate, _materialize, (tuples, rounds)),
        (evaluate_magic, partial(_rewrite, query="tc(a0, Y)?"),
         (tuples, rounds)),
        (evaluate_pushed, partial(_rewrite, query="tc(X, a59)?"),
         (tuples, rounds)),
        (execute_plan_nodedup, _plan, (tuples, rounds)),
        (execute_plan_traced, _plan, (rounds,)),
    ]:
        for budget, limit in budgets:
            yield pytest.param(run(evaluate), budget, limit,
                               id=f"{evaluate.__name__}-{limit}")


class TestBudgetsNeedNoReader:
    """The tuple and iteration limits are metered on an accumulator;
    an evaluator whose caller keeps none makes its own."""

    @pytest.mark.parametrize("run, budget, limit", _budgeted_runs())
    def test_same_trip_with_and_without_an_accumulator(self, run, budget,
                                                       limit):
        stats = EvaluationStats()
        with pytest.raises(BudgetExceeded) as metered:
            run(stats, budget)
        assert metered.value.limit == limit
        assert metered.value.stats is stats
        with pytest.raises(BudgetExceeded) as unread:
            run(None, budget)
        assert unread.value.limit == limit

    def test_base_idb_materialization_is_budgeted(self):
        from repro.engine import Engine

        program, db = _tc_chain(
            _TC + "t(X, Y) :- tc(X, W) & t(W, Y).\nt(X, Y) :- e0(X, Y).\n")
        db.add_fact("e0", ("a59", "z"))
        # The query's own relations stay tiny; tc, the base IDB the
        # engine materializes first, holds 1,830 tuples.
        assert len(Engine(program, db).query("t(a0, Y)?")) == 1
        engine = Engine(program, db, budget=Budget(max_relation_tuples=100))
        with pytest.raises(BudgetExceeded) as excinfo:
            engine.query("t(a0, Y)?")
        assert excinfo.value.limit == "relation_tuples"
