"""Unit tests for naive and semi-naive bottom-up evaluation."""

from pathlib import Path

import pytest

from repro.budget import Budget
from repro.datalog.database import Database
from repro.datalog.errors import BudgetExceeded
from repro.datalog.naive import naive_evaluate
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import ORDERS
from repro.datalog.seminaive import seminaive_evaluate
from repro.observability import Tracer
from repro.stats import EvaluationStats

CORPUS = Path(__file__).parent.parent / "differential" / "corpus"

TC = """
tc(X, Y) :- edge(X, W) & tc(W, Y).
tc(X, Y) :- edge(X, Y).
"""


def tc_db(edges):
    return Database.from_facts({"edge": edges})


def expected_closure(edges):
    import networkx as nx

    g = nx.DiGraph(edges)
    closure = set()
    for a in g.nodes:
        for b in nx.descendants(g, a):
            closure.add((a, b))
    return closure


@pytest.mark.parametrize("evaluate", [naive_evaluate, seminaive_evaluate])
class TestBothEvaluators:
    def test_transitive_closure_chain(self, evaluate):
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        result = evaluate(parse_program(TC).program, tc_db(edges))
        assert result.tuples("tc") == expected_closure(edges)

    def test_transitive_closure_cycle_terminates(self, evaluate):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        result = evaluate(parse_program(TC).program, tc_db(edges))
        assert result.tuples("tc") == {
            (x, y) for x in "abc" for y in "abc"
        }

    def test_diamond(self, evaluate):
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        result = evaluate(parse_program(TC).program, tc_db(edges))
        assert result.tuples("tc") == expected_closure(edges)

    def test_empty_edb(self, evaluate):
        result = evaluate(parse_program(TC).program, Database())
        assert result.tuples("tc") == frozenset()

    def test_edb_not_modified(self, evaluate):
        db = tc_db([("a", "b")])
        evaluate(parse_program(TC).program, db)
        assert "tc" not in db

    def test_multiple_idb_predicates(self, evaluate):
        program = parse_program(
            """
            anc(X, Y) :- parent(X, Y).
            anc(X, Y) :- parent(X, W) & anc(W, Y).
            related(X, Y) :- anc(Z, X) & anc(Z, Y).
            """
        ).program
        db = Database.from_facts(
            {"parent": [("a", "b"), ("a", "c"), ("b", "d")]}
        )
        result = evaluate(program, db)
        assert ("b", "c") in result.tuples("related")
        assert ("d", "d") in result.tuples("related")

    def test_budget_enforced(self, evaluate):
        edges = [(f"n{i}", f"n{i+1}") for i in range(30)]
        tight = Budget(max_relation_tuples=10)
        with pytest.raises(BudgetExceeded):
            evaluate(
                parse_program(TC).program, tc_db(edges),
                stats=EvaluationStats(), budget=tight,
            )


class TestNaiveSpecifics:
    @pytest.mark.parametrize("rules", [TC, "\n".join(TC.split("\n")[::-1])],
                             ids=["recursive-first", "exit-first"])
    def test_a_round_is_one_application_of_t_p(self, rules):
        """Round k of naive evaluation is T_P^k: on a chain of n edges
        it derives exactly the n - k + 1 paths of length k, whatever
        order the rules come in, and round n + 1 derives nothing."""
        n = 6
        stats, tracer = EvaluationStats(), Tracer()
        naive_evaluate(parse_program(rules).program,
                       tc_db([(f"n{i}", f"n{i + 1}") for i in range(n)]),
                       stats=stats, tracer=tracer)
        span, = tracer.spans("naive.fixpoint")
        assert span.series["new_facts"] == [n - k + 1
                                            for k in range(1, n + 1)] + [0]
        assert stats.iterations == n + 1

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.dl")),
                             ids=lambda p: p.stem)
    def test_answers_equal_seminaive_on_the_corpus(self, path, order):
        parsed = parse_program(path.read_text())
        naive = naive_evaluate(parsed.program, parsed.database, order=order)
        semi = seminaive_evaluate(parsed.program, parsed.database,
                                  order=order)
        for predicate in parsed.program.idb_predicates:
            assert naive.tuples(predicate) == semi.tuples(predicate)
        assert any(naive.tuples(p) for p in parsed.program.idb_predicates)


class TestSemiNaiveSpecifics:
    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(X) :- succ(Y, X) & odd(Y).
            odd(X) :- succ(Y, X) & even(Y).
            """
        ).program
        db = Database.from_facts(
            {
                "zero": [("0",)],
                "succ": [(str(i), str(i + 1)) for i in range(6)],
            }
        )
        result = seminaive_evaluate(program, db)
        assert result.tuples("even") == {("0",), ("2",), ("4",), ("6",)}
        assert result.tuples("odd") == {("1",), ("3",), ("5",)}

    def test_stratified_base_materialized_first(self):
        program = parse_program(
            """
            hop(X, Y) :- edge(X, W) & edge(W, Y).
            far(X, Y) :- hop(X, W) & far(W, Y).
            far(X, Y) :- hop(X, Y).
            """
        ).program
        db = Database.from_facts(
            {"edge": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]}
        )
        result = seminaive_evaluate(program, db)
        assert ("a", "c") in result.tuples("hop")
        assert ("a", "e") in result.tuples("far")

    def test_same_answers_as_naive_on_random_graph(self):
        from repro.workloads.generators import random_graph

        db = tc_db(random_graph(12, 25, seed=7))
        program = parse_program(TC).program
        assert seminaive_evaluate(program, db).tuples(
            "tc"
        ) == naive_evaluate(program, db).tuples("tc")

    def test_stats_recorded(self):
        stats = EvaluationStats()
        seminaive_evaluate(
            parse_program(TC).program,
            tc_db([("a", "b"), ("b", "c")]),
            stats=stats,
        )
        assert stats.relation_sizes["tc"] == 3
        assert stats.iterations >= 2
        assert stats.tuples_produced >= 3

    def test_fewer_rederivations_than_naive(self):
        edges = [(f"n{i}", f"n{i+1}") for i in range(15)]
        program = parse_program(TC).program
        naive_stats = EvaluationStats()
        naive_evaluate(program, tc_db(edges), stats=naive_stats)
        semi_stats = EvaluationStats()
        seminaive_evaluate(program, tc_db(edges), stats=semi_stats)
        assert semi_stats.tuples_produced < naive_stats.tuples_produced

    def test_idb_predicate_without_rules_after_restriction(self):
        program = parse_program("p(X) :- q(X).").program
        db = Database.from_facts({"q": [("a",)]})
        result = seminaive_evaluate(program, db)
        assert result.tuples("p") == {("a",)}
