"""Integration tests asserting the Section 4 growth shapes on real runs.

These are the paper's headline claims, tested as *trends* at small n so
the suite stays fast; ``repro-datalog bench`` sweeps the same inputs at
larger scale:

* E1 / Section 4: Generalized Counting generates a relation of size
  2^n - 1 on Example 1.1's database, Separable stays linear;
* E2 / Section 4: Magic Sets materializes the n^2-tuple ``buys`` on
  Example 1.2's database, Separable stays linear;
* E3 / Lemma 4.1: Separable's relations are bounded by
  n^max(w(e1), k - w(e1));
* E4 / Lemma 4.2: Magic Sets generates n^k tuples on the S^k_p family;
* E5 / Lemma 4.3: Counting generates sum of p^l tuples there;
* E6 / Section 3.1: the detection verdict never consults the database;
* E7 / Section 3.2: Separable (and Magic) only touch the part of the
  database reachable from the selection constant.
"""

import pytest

from repro.bench.families import E7_REACHABLE, FAMILIES
from repro.core.api import evaluate_separable
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom
from repro.datalog.seminaive import seminaive_evaluate
from repro.engine import Engine
from repro.rewriting.counting import evaluate_counting
from repro.rewriting.magic import evaluate_magic
from repro.stats import EvaluationStats
from repro.workloads.generators import chain
from repro.workloads.paper import (
    example_1_1_database,
    example_1_1_program,
    example_1_2_database,
    example_1_2_program,
    lemma_4_2_database,
    lemma_4_2_program,
    lemma_4_3_database,
    lemma_4_3_program,
)


def run(evaluator, program, db, query_text):
    stats = EvaluationStats()
    answers = evaluator(program, db, parse_atom(query_text), stats=stats)
    return answers, stats


class TestE1CountingBlowup:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_count_exactly_2_to_n_minus_1(self, n):
        _, stats = run(
            evaluate_counting,
            example_1_1_program(),
            example_1_1_database(n),
            "buys(a1, Y)",
        )
        assert stats.relation_sizes["count"] == 2**n - 1

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_separable_linear(self, n):
        _, stats = run(
            evaluate_separable,
            example_1_1_program(),
            example_1_1_database(n),
            "buys(a1, Y)",
        )
        assert stats.max_relation_size <= n

    @pytest.mark.parametrize("n", [5, 7])
    def test_same_answers(self, n):
        program = example_1_1_program()
        db = example_1_1_database(n)
        counting_answers, _ = run(
            evaluate_counting, program, db, "buys(a1, Y)"
        )
        separable_answers, _ = run(
            evaluate_separable, program, db, "buys(a1, Y)"
        )
        assert counting_answers == separable_answers == {
            ("a1", f"b{n}")
        }


class TestE2MagicBlowup:
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_magic_exactly_n_squared(self, n):
        _, stats = run(
            evaluate_magic,
            example_1_2_program(),
            example_1_2_database(n),
            "buys(a1, Y)",
        )
        assert stats.relation_sizes["buys__bf"] == n * n

    @pytest.mark.parametrize("style", ["basic", "supplementary"])
    def test_both_magic_variants_materialize_n_squared(self, style):
        n = 12
        stats = EvaluationStats()
        answers = evaluate_magic(
            example_1_2_program(), example_1_2_database(n),
            parse_atom("buys(a1, Y)"), stats=stats, style=style,
        )
        assert stats.relation_sizes["buys__bf"] == n * n
        assert len(answers) == n

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_separable_linear(self, n):
        _, stats = run(
            evaluate_separable,
            example_1_2_program(),
            example_1_2_database(n),
            "buys(a1, Y)",
        )
        assert stats.max_relation_size <= n

    @pytest.mark.parametrize("n", [4, 7])
    def test_same_answers(self, n):
        program = example_1_2_program()
        db = example_1_2_database(n)
        magic_answers, _ = run(evaluate_magic, program, db, "buys(a1, Y)")
        separable_answers, _ = run(
            evaluate_separable, program, db, "buys(a1, Y)"
        )
        assert magic_answers == separable_answers
        assert len(magic_answers) == n  # (a1, b_j) for every j


class TestE3Lemma41Bound:
    @pytest.mark.parametrize("k,w", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_relations_bounded_by_lemma(self, k, w):
        """Build an S^k_p member whose e1 has width w by padding the
        Lemma 4.2 recursion; check max relation <= n^max(w, k-w)."""
        from repro.datalog.parser import parse_program

        n = 4
        head = ", ".join(f"X{j}" for j in range(1, k + 1))
        bound_head = ", ".join(f"X{j}" for j in range(1, w + 1))
        bound_body = ", ".join(f"W{j}" for j in range(1, w + 1))
        rest = ", ".join(f"X{j}" for j in range(w + 1, k + 1))
        body_args = ", ".join(x for x in [bound_body, rest] if x)
        program = parse_program(
            f"t({head}) :- a({bound_head}, {bound_body}) & t({body_args}).\n"
            f"t({head}) :- t0({head})."
        ).program
        import itertools

        consts = [f"c{i}" for i in range(1, n + 1)]
        a_tuples = [
            tuple(t)
            for t in itertools.islice(
                itertools.product(consts, repeat=2 * w), 3 * n
            )
        ]
        t0_tuples = [
            tuple(t)
            for t in itertools.islice(
                itertools.product(consts, repeat=k), 2 * n
            )
        ]
        db = Database.from_facts({"a": a_tuples, "t0": t0_tuples})
        query = "t(" + ", ".join(
            ["c1"] * w + [f"Q{j}" for j in range(k - w)]
        ) + ")"
        _, stats = run(evaluate_separable, program, db, query)
        assert stats.max_relation_size <= n ** max(w, k - w)


class TestE4Lemma42:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3)])
    def test_magic_generates_n_to_k(self, n, k):
        p = 2
        _, stats = run(
            evaluate_magic,
            lemma_4_2_program(k, p),
            lemma_4_2_database(n, k, p),
            "t(c1, " + ", ".join(f"Q{j}" for j in range(k - 1)) + ")",
        )
        assert stats.relation_sizes[f"t__b{'f' * (k - 1)}"] == n**k

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3)])
    def test_separable_stays_at_n_to_k_minus_1(self, n, k):
        p = 2
        _, stats = run(
            evaluate_separable,
            lemma_4_2_program(k, p),
            lemma_4_2_database(n, k, p),
            "t(c1, " + ", ".join(f"Q{j}" for j in range(k - 1)) + ")",
        )
        # Lemma 4.1: w(e1) = 1, so the bound is n^(k-1).
        assert stats.max_relation_size <= n ** max(1, k - 1)


class TestE5Lemma43:
    @pytest.mark.parametrize("n,p", [(4, 2), (5, 3), (6, 2)])
    def test_counting_generates_sum_of_p_powers(self, n, p):
        _, stats = run(
            evaluate_counting,
            lemma_4_3_program(2, p),
            lemma_4_3_database(n, 2, p),
            "t(c1, Y)",
        )
        assert stats.relation_sizes["count"] == sum(
            p**level for level in range(n)
        )

    @pytest.mark.parametrize("n,p", [(4, 2), (5, 3)])
    def test_separable_linear_there(self, n, p):
        _, stats = run(
            evaluate_separable,
            lemma_4_3_program(2, p),
            lemma_4_3_database(n, 2, p),
            "t(c1, Y)",
        )
        assert stats.max_relation_size <= n + 1


class TestE6DetectionIgnoresTheDatabase:
    def test_same_verdict_on_an_empty_and_a_large_database(self):
        workload = FAMILIES["e6"].build(8)
        large = Database.from_facts({"a0": chain(10_000)})
        before = large.fingerprint()
        reports = [
            Engine(workload.program, db).report("t")
            for db in (workload.db, large)
        ]
        assert all(report.separable for report in reports)
        assert reports[0].explain() == reports[1].explain()
        assert large.fingerprint() == before


class TestE7Focus:
    """The bench family's input: a chain of E7_REACHABLE edges from the
    selection constant beside a chain of ``distractors`` it cannot reach."""

    @pytest.mark.parametrize("distractors", [100, 1000])
    def test_separable_examines_the_reachable_part_only(self, distractors):
        workload = FAMILIES["e7"].build(distractors)
        _, stats = run(
            evaluate_separable, workload.program, workload.db,
            workload.query.rstrip("?"),
        )
        assert stats.tuples_examined <= 4 * E7_REACHABLE

    @pytest.mark.parametrize("distractors", [100, 1000])
    def test_magic_set_stays_within_the_reachable_part(self, distractors):
        workload = FAMILIES["e7"].build(distractors)
        _, stats = run(
            evaluate_magic, workload.program, workload.db,
            workload.query.rstrip("?"),
        )
        assert stats.relation_sizes["magic_buys__bf"] <= E7_REACHABLE

    @pytest.mark.parametrize("distractors", [100, 1000])
    def test_seminaive_scales_with_the_whole_database(self, distractors):
        workload = FAMILIES["e7"].build(distractors)
        stats = EvaluationStats()
        seminaive_evaluate(workload.program, workload.db, stats=stats)
        assert stats.tuples_examined >= distractors
