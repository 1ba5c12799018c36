"""Unit tests for plan execution: the carry/seen loops of Figure 2."""

import linecache
import traceback

import pytest

from repro.budget import Budget
from repro.core.api import evaluate_separable
from repro.core.compiler import compile_selection
from repro.core.detection import require_separable
from repro.core.evaluator import (
    _reference_loops,
    execute_plan,
    loop_source,
)
from repro.core.selections import classify_selection
from repro.datalog.database import Database, Relation
from repro.datalog.errors import BudgetExceeded, NotFullSelectionError
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.plan_cache import PLAN_CACHE, PlanCache
from repro.stats import EvaluationStats
from repro.storage import ensure_backend
from repro.workloads.generators import chain, cycle, grid
from repro.workloads.paper import example_1_1_database, example_1_1_program

from ..conftest import oracle_answers, run_loops


def plan_of(program, predicate, query_text):
    analysis = require_separable(program, predicate)
    selection = classify_selection(analysis, parse_atom(query_text))
    return compile_selection(selection), selection.seed


def run(program, db, query_text, **kwargs):
    query = parse_atom(query_text)
    answers = evaluate_separable(program, db, query, **kwargs)
    return answers, oracle_answers(program, db, query)


class TestAgainstOracle:
    def test_example_1_1(self, example_1_1):
        program, db = example_1_1
        answers, expected = run(program, db, "buys(tom, Y)")
        assert answers == expected
        assert answers  # nonempty on this EDB

    def test_example_1_1_pers_query(self, example_1_1):
        program, db = example_1_1
        answers, expected = run(program, db, "buys(X, camera)")
        assert answers == expected

    def test_example_1_1_fully_bound(self, example_1_1):
        program, db = example_1_1
        answers, expected = run(program, db, "buys(tom, camera)")
        assert answers == expected == {("tom", "camera")}

    def test_example_1_1_no_answers(self, example_1_1):
        program, db = example_1_1
        answers, expected = run(program, db, "buys(nobody, Y)")
        assert answers == expected == frozenset()

    def test_example_1_2(self, example_1_2):
        program, db = example_1_2
        for q in ["buys(tom, Y)", "buys(X, cup)", "buys(sue, Y)"]:
            answers, expected = run(program, db, q)
            assert answers == expected

    def test_example_2_4_full(self, example_2_4):
        program, db = example_2_4
        for q in ["t(c, d, Z)", "t(X, Y, r)", "t(c, x, Z)"]:
            answers, expected = run(program, db, q)
            assert answers == expected

    def test_transitive_closure(self, transitive_closure):
        program, db = transitive_closure
        for q in ["tc(a, Y)", "tc(X, d)", "tc(b, Y)"]:
            answers, expected = run(program, db, q)
            assert answers == expected


class TestCyclicData:
    """Termination on cycles (Lemma 3.4) with correct answers."""

    def test_cycle(self):
        program = parse_program(
            "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
        ).program
        db = Database.from_facts({"e": cycle(6)})
        answers, expected = run(program, db, "tc(a0, Y)")
        assert answers == expected
        assert len(answers) == 6

    def test_self_loop(self):
        program = parse_program(
            "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
        ).program
        db = Database.from_facts({"e": [("a", "a"), ("a", "b")]})
        answers, expected = run(program, db, "tc(a, Y)")
        assert answers == expected

    def test_cyclic_example_1_1(self, example_1_1):
        program, db = example_1_1
        db = db.copy()
        db.add_fact("friend", ("joe", "tom"))  # close a friend cycle
        answers, expected = run(program, db, "buys(tom, Y)")
        assert answers == expected


class TestRelationSizes:
    """The O-bounds of Lemma 4.1 hold on concrete instances."""

    def test_monadic_relations_only(self):
        program = example_1_1_program()
        n = 30
        db = Database.from_facts(
            {
                "friend": chain(n, "a"),
                "idol": chain(n, "a"),
                "perfectFor": [(f"a{n-1}", "thing")],
            }
        )
        stats = EvaluationStats()
        evaluate_separable(
            program, db, parse_atom("buys(a0, Y)"), stats=stats
        )
        # Lemma 4.1 with w(e1) = 1, k = 2: every relation is O(n).
        assert stats.max_relation_size <= n

    def test_each_tuple_examined_once_along_path(self):
        """Section 3.2: 'examines each tuple at most once'."""
        program = parse_program(
            "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e0(X, Y)."
        ).program
        n = 20
        db = Database.from_facts(
            {"e": chain(n, "a"), "e0": [(f"a{n-1}", "end")]}
        )
        stats = EvaluationStats()
        evaluate_separable(
            program, db, parse_atom("tc(a0, Y)"), stats=stats
        )
        # Each chain edge examined at most twice (once by the down
        # loop's probe, once rejected after the frontier passed).
        assert stats.tuples_examined <= 2 * (n + 2)


class TestBudget:
    def test_budget_exceeded_raises(self):
        program = example_1_1_program()
        db = Database.from_facts(
            {
                "friend": chain(50, "a"),
                "idol": [],
                "perfectFor": [("a49", "thing")],
            }
        )
        db.ensure("idol", 2)
        with pytest.raises(BudgetExceeded):
            evaluate_separable(
                program,
                db,
                parse_atom("buys(a0, Y)"),
                stats=EvaluationStats(),
                budget=Budget(max_relation_tuples=10),
            )


    def test_budget_needs_no_caller_stats(self):
        """The relation, total and iteration limits are metered on the
        statistics; a caller that passes none is still held to them."""
        program = example_1_1_program()
        db = Database.from_facts(
            {
                "friend": chain(100, "a"),
                "idol": [],
                "perfectFor": [("a99", "thing")],
            }
        )
        db.ensure("idol", 2)
        plan, seed = plan_of(program, "buys", "buys(a0, Y)")
        budget = Budget(max_relation_tuples=10, max_iterations=5)
        with pytest.raises(BudgetExceeded) as caught:
            execute_plan(plan, db, [seed], budget=budget)
        assert caught.value.limit == "iterations"
        assert caught.value.stats.iterations == 6
        with pytest.raises(BudgetExceeded), _reference_loops():
            execute_plan(plan, db, [seed], budget=budget)


class TestExecutePlanDirect:
    def test_seed_arity_checked(self, example_1_1):
        program, db = example_1_1
        analysis = require_separable(program, "buys")
        selection = classify_selection(analysis, parse_atom("buys(tom, Y)"))
        plan = compile_selection(selection)
        with pytest.raises(ValueError):
            execute_plan(plan, db, [("too", "wide")])

    def test_multiple_seeds_union(self, example_1_1):
        program, db = example_1_1
        analysis = require_separable(program, "buys")
        selection = classify_selection(analysis, parse_atom("buys(tom, Y)"))
        plan = compile_selection(selection)
        merged = execute_plan(plan, db, [("tom",), ("joe",)])
        tom_only = execute_plan(plan, db, [("tom",)])
        joe_only = execute_plan(plan, db, [("joe",)])
        assert merged == tom_only | joe_only

    def test_no_constants_raises(self, example_1_1):
        program, db = example_1_1
        with pytest.raises(NotFullSelectionError):
            evaluate_separable(program, db, parse_atom("buys(X, Y)"))


class TestGridWorkload:
    def test_grid_matches_oracle(self):
        program = parse_program(
            "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
        ).program
        db = Database.from_facts({"e": grid(4, 4)})
        answers, expected = run(program, db, "tc(g0_0, Y)")
        assert answers == expected
        assert len(answers) == 15  # every other grid node


TWO_RULES = parse_program(
    "t(X, Y) :- e(X, W) & t(W, Y).\n"
    "t(X, Y) :- s(X, W) & t(W, Y).\n"
    "t(X, Y) :- t0(X, Y)."
).program


def fan_database():
    """``a`` fans out to five ``b`` nodes that converge on ``c -> d``;
    the two-tuple relation ``s`` continues to ``z``: the down loop's
    carry holds 1, 5, 1, 1, 1 tuples, so it outgrows ``s`` and shrinks
    below it again."""
    bs = [f"b{i}" for i in range(5)]
    return Database.from_facts({
        "e": [("a", b) for b in bs] + [(b, "c") for b in bs] + [("c", "d")],
        "s": [("a", "b0"), ("d", "z")],
        "t0": [("z", "end")],
    })


class TestGeneratedLoop:
    """The compiled carry loop against ``_carry_loop``, its reference:
    same answers, same statistics, same spans up to ``plan_cache_hits``."""

    @pytest.mark.parametrize("order", ["greedy", "left_to_right", "cost"])
    def test_rank_change_reenters_with_the_reference_plans(
            self, monkeypatch, order):
        entries = []
        loop_for = PlanCache.loop_for

        def spy(self, joins, *args, **kwargs):
            entries.append(joins)
            return loop_for(self, joins, *args, **kwargs)

        monkeypatch.setattr(PlanCache, "loop_for", spy)
        plan, seed = plan_of(TWO_RULES, "t", "t(a, Y)")
        db = fan_database()
        for traced in (False, True):
            entries.clear()
            got = run_loops(plan, db, [seed], False, traced, order)
            want = run_loops(plan, db, [seed], True, traced, order)
            assert got == want
            assert got[0] == {("end",)}
            assert got[1].relation_sizes["carry_1"] == 5
            # Entered at |carry| = 1, again at 5 (> |s| = 2: greedy now
            # scans s and probes carry; cost plans per power-of-two
            # bucket, and 5 is in [4, 8)) and again back at 1.
            down = [j for j in entries if j == plan.down_joins]
            assert len(down) == (1 if order == "left_to_right" else 3)

    @pytest.mark.parametrize("workload", ["tree", "lemma-4.1"])
    def test_cost_plans_per_power_of_two_of_the_carry(self, monkeypatch,
                                                      workload):
        """``order="cost"`` is planned at loop entry and again whenever
        ``carry`` leaves its bucket ``[2^(b-1), 2^b)``: what the
        reference loop's per-round lookups come to, the order memo
        being keyed on exactly that bucket."""
        if workload == "tree":
            # carry doubles per round down a binary tree of depth 5,
            # then falls to the single edge below one leaf.
            nodes = [format(i, "b").replace("1", "r").replace("0", "l")
                     for i in range(1, 32)]
            program = TWO_RULES
            db = Database.from_facts({
                "e": [(v, v + turn) for v in nodes[:15] for turn in "lr"]
                + [("rrrrr", "z")],
                "s": [("z", "end")],
                "t0": [("end", "end")],
            })
            query, carries = "t(r, Y)", [1, 2, 4, 8, 16, 1]
        else:
            from repro.bench.families import FAMILIES

            workload = FAMILIES["e3"].build(20)
            program, db = workload.program, workload.db
            query, carries = workload.query.rstrip("?"), [1, 19]
        plan, seed = plan_of(program, "t", query)
        entered = []
        loop_for = PlanCache.loop_for

        def spy(self, joins, pseudo, carry, *args, **kwargs):
            if joins == plan.down_joins:
                entered.append(len(carry))
            return loop_for(self, joins, pseudo, carry, *args, **kwargs)

        monkeypatch.setattr(PlanCache, "loop_for", spy)
        runs = {}
        for reference in (False, True):
            # Cold caches: each side chooses its plans by itself.
            PLAN_CACHE.clear()
            runs[reference] = run_loops(plan, db, [seed], reference,
                                        order="cost")
        assert runs[False] == runs[True] and runs[False][0]
        assert entered == carries  # one entry per bucket entered
        assert run_loops(plan, db, [seed], False, True, "cost") == \
            run_loops(plan, db, [seed], True, True, "cost")

    def test_cost_plan_lookups_do_not_grow_with_the_rounds(self):
        """Example 1.1 on a chain of 200 is ~200 rounds of a one-tuple
        carry: the plan cache is asked once per join per bucket of
        ``carry`` plus once per exit join, not once per join per round."""
        plan, seed = plan_of(example_1_1_program(), "buys", "buys(a1, Y)")
        db = example_1_1_database(200)
        PLAN_CACHE.clear()
        answers, stats, _ = run_loops(plan, db, [seed], False, True, "cost")
        assert answers == {("b200",)} and stats.iterations > 200
        lookups = PLAN_CACHE.hits + PLAN_CACHE.misses
        largest = max(stats.relation_sizes[c] for c in ("carry_1", "carry_2"))
        joins = len(plan.down_joins) + len(plan.up_joins)
        assert lookups <= (joins * (largest.bit_length() + 1)
                           + len(plan.exit_joins))

    @pytest.mark.parametrize("budget, limit", [
        (Budget(max_iterations=3), "iterations"),
        (Budget(max_relation_tuples=4), "relation_tuples"),
        (Budget(max_total_tuples=7), "total_tuples"),
        (Budget(max_wall_seconds=0.0).start_clock(now=-1.0), "wall_clock"),
    ])
    def test_budget_trip_mid_loop_matches_reference(self, budget, limit):
        plan, seed = plan_of(TWO_RULES, "t", "t(a, Y)")
        db = fan_database()
        for traced in (False, True):
            got = run_loops(plan, db, [seed], False, traced, budget=budget)
            want = run_loops(plan, db, [seed], True, traced, budget=budget)
            assert got[0] == want[0] == limit
            assert got[1] == want[1]  # exc.stats, asserted to be ours

    def test_sqlite_relations_are_probed_through_lookup(self):
        plan, seed = plan_of(TWO_RULES, "t", "t(a, Y)")
        memory = fan_database()
        stored = ensure_backend(fan_database(), "sqlite")
        assert type(stored.relation("e")) is not Relation
        for traced in (False, True):
            got = run_loops(plan, stored, [seed], False, traced)
            assert got == run_loops(plan, stored, [seed], True, traced)
            assert got[:2] == run_loops(plan, memory, [seed], False,
                                        traced)[:2]

    def test_loops_of_one_shape_share_one_function(self, example_1_1,
                                                   example_1_2):
        """Example 1.2's down loop (over ``friend``) and up loop (over
        ``cheaper``) differ only in constants, and so does Example 1.1's
        down loop: its ``friend`` and ``idol`` terms are one shape, run
        twice.  (Example 1.1 has a single class: its up loop has no
        join terms, which is a text of its own.)"""
        PLAN_CACHE.clear()
        program, db = example_1_1
        both, seed = plan_of(program, "buys", "buys(tom, Y)")
        assert loop_source(both, "down") == []  # has not run yet
        execute_plan(both, db, [seed])
        text, = loop_source(both, "down")
        assert text.count("for f0 in c0:") == 1
        assert loop_source(both, "down", traced=True) == []
        empty, = loop_source(both, "up")
        assert "produced.update" not in empty and "for " not in empty
        program, db = example_1_2
        plan, seed = plan_of(program, "buys", "buys(tom, Y)")
        execute_plan(plan, db, [seed])
        down, = PLAN_CACHE.loops_for(plan.down_joins)
        up, = PLAN_CACHE.loops_for(plan.up_joins)
        assert [down[1]] == [up[1]] == loop_source(plan, "up") == [text]
        assert down[2] != up[2]  # probed relations and constants
        loops = [source for source in PLAN_CACHE._shapes
                 if source.startswith("def loop(")]
        assert loops == [text, empty]
        PLAN_CACHE.clear()
        assert not loop_source(plan, "down")
        assert not PLAN_CACHE._shapes

    def test_a_loop_without_join_terms_fills_no_relation(
            self, monkeypatch, example_1_1):
        """Example 1.1 has one class: its up loop is one round over no
        join terms, recorded like any other but reading nothing."""
        from repro.core.plan import CARRY

        filled = []
        add_all = Relation.add_all

        def spy(self, facts):
            if self.name == CARRY:
                filled.append(len(facts))
            return add_all(self, facts)

        monkeypatch.setattr(Relation, "add_all", spy)
        program, db = example_1_1
        plan, seed = plan_of(program, "buys", "buys(tom, Y)")
        assert plan.up_joins == ()
        answers, stats, _ = run_loops(plan, db, [seed], True, True)
        assert filled == [1, 2, 1, 1]  # the down loop's carries only
        assert stats.iterations == len(filled) + 1
        assert stats.relation_sizes["carry_2"] == len(answers) == 3
        assert (answers, stats) == run_loops(plan, db, [seed], False,
                                             True)[:2]

    @pytest.mark.parametrize("order", ["greedy", "left_to_right", "cost"])
    def test_only_reference_loops_selects_the_reference_loop(
            self, example_1_2, order):
        program, db = example_1_2
        plan, seed = plan_of(program, "buys", "buys(tom, Y)")
        PLAN_CACHE.clear()
        answers = execute_plan(plan, db, [seed], order=order)
        assert loop_source(plan, "down") and loop_source(plan, "up")
        PLAN_CACHE.clear()
        with _reference_loops():
            assert execute_plan(plan, db, [seed], order=order) == answers
        assert not loop_source(plan, "down")

    def test_storage_error_traceback_shows_generated_source(self):
        class Failing(Relation):
            __slots__ = ()

            def lookup(self, positions, key, tracer=None):
                if key == ("c",):
                    raise OSError("disk I/O error")
                return super().lookup(positions, key, tracer)

            # The probe the loop makes: ``e(X, W)`` is its innermost
            # level and ``(W)`` its output.
            def lookup_projected(self, positions, cols, key, tracer=None):
                if key == ("c",):
                    raise OSError("disk I/O error")
                return super().lookup_projected(positions, cols, key, tracer)

        db = fan_database()
        db.attach(Failing("e", 2, db.relation("e")), "e")
        plan, seed = plan_of(TWO_RULES, "t", "t(a, Y)")
        PLAN_CACHE.clear()
        with pytest.raises(OSError) as caught:
            execute_plan(plan, db, [seed])
        frame, = [f for f in traceback.extract_tb(caught.value.__traceback__)
                  if f.filename.startswith("<separable-loop:")]
        assert frame.name == "loop"
        assert frame.line == "c1 = q0((r0,))"
        # The down loop ran two texts by then: carry scanned, and carry
        # probed while it was larger than ``s``.
        scanning, probing = loop_source(plan, "down")
        assert "".join(linecache.getlines(frame.filename)) == scanning
        assert "indexes" in probing and "indexes" not in scanning
