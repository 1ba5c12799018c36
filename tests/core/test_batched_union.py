"""The batched Lemma 2.1 union: one fixpoint per partial selection,
keeping a carry and a seen per seed, instead of one fixpoint per seed.

What is pinned here: that each seed's share of the batch is its own
run, that the batch runs the one-seed plan, the statistics a batch
reports (``ans`` counts answers, not rows per seed; a budget trip
mid-batch still carries the ``t_part`` answers and the merged
accumulator), and the memo protocol -- one ``get_or_run`` per seed, the
batch's work credited once, per-seed entries that later queries and
``mutate()`` treat exactly as before.
"""

import threading

import pytest

from repro.budget import Budget
from repro.core.api import evaluate_separable, full_selection_key
from repro.core.compiler import compile_plan
from repro.core.detection import require_separable
from repro.core.evaluator import execute_batch, execute_plan, loop_source
from repro.datalog.database import Database
from repro.datalog.errors import BudgetExceeded
from repro.datalog.parser import parse_atom
from repro.datalog.plan_cache import PLAN_CACHE
from repro.observability import Tracer
from repro.service import FullSelectionMemo, QueryService, ServiceConfig
from repro.stats import EvaluationStats
from repro.workloads import paper

from ..conftest import oracle_answers


def fan_database(seeds: int = 3, depth: int = 4) -> Database:
    """Example 2.4 with ``seeds`` disjoint ``a``-chains below ``(x0,
    y0)``, all reaching the same ``b``-chain: every seed's run finds the
    same ``Z`` values, so the batch's ``seen_2`` holds each answer once
    per seed."""
    db = Database()
    for j in range(seeds):
        db.add_fact("a", ("x0", "y0", f"p{j}_0", f"q{j}_0"))
        for i in range(depth):
            db.add_fact("a", (f"p{j}_{i}", f"q{j}_{i}",
                              f"p{j}_{i + 1}", f"q{j}_{i + 1}"))
        db.add_fact("t0", (f"p{j}_{depth}", f"q{j}_{depth}", "z0"))
    for i in range(3):
        db.add_fact("b", (f"z{i}", f"z{i + 1}"))
    return db


@pytest.fixture
def fan():
    program = paper.example_2_4_program()
    return program, fan_database(), require_separable(program, "t")


QUERY = parse_atom("t(x0, Y, Z)")


class PassThrough:
    """The least a memo may be (the ledger's probe is one): it caches
    nothing and only notes what it was asked."""

    def __init__(self):
        self.keys = []

    def get_or_run(self, key, compute):
        self.keys.append(key)
        return compute()


class TestGroupedBatch:
    def test_each_seed_is_its_own_run(self, fan):
        _, db, analysis = fan
        plan = compile_plan(analysis, selected_class=analysis.classes[0])
        seeds = [(f"p{j}_0", f"q{j}_0") for j in range(3)] + [("no", "no")]
        stats = EvaluationStats()
        shares = execute_batch(plan, db, seeds, stats=stats)
        alone = [EvaluationStats() for _ in seeds]
        assert shares == [execute_plan(plan, db, [seed], stats=alone[i])
                          for i, seed in enumerate(seeds)]
        assert stats.tuples_produced == sum(s.tuples_produced for s in alone)
        # Rounds are the deepest seed's, not the sum over seeds.
        assert stats.iterations == max(s.iterations for s in alone)
        # A batch's relation is booked at its total over the seeds.
        for name in ("seen_1", "seen_2"):
            assert stats.relation_sizes[name] == sum(
                s.relation_sizes[name] for s in alone)
        assert "ans" not in stats.relation_sizes

    def test_the_batch_runs_the_one_seed_plan_per_seed(self, fan):
        """No column is added: a seed's carry row is its own probe key,
        so the innermost level is the projected bucket's union."""
        _, db, analysis = fan
        plan = compile_plan(analysis, selected_class=analysis.classes[0])
        PLAN_CACHE.clear()
        execute_batch(plan, db, [(f"p{j}_0", f"q{j}_0") for j in range(3)])
        for which in ("down", "up"):
            text, = loop_source(plan, which)
            assert "for seed, carry in batch.items():" in text
            assert "produced.update(c1)" in text


class TestStatistics:
    def test_ans_counts_answers_not_rows_per_seed(self, fan):
        program, db, analysis = fan
        stats = EvaluationStats()
        answers = evaluate_separable(program, db, QUERY, analysis=analysis,
                                     stats=stats)
        assert answers == oracle_answers(program, db, QUERY)
        # Three seeds reach the same four Z values: 12 seen_2 rows.
        assert stats.relation_sizes["seen_2"] == 12
        assert stats.relation_sizes["ans"] == len(answers) == 4

    def test_budget_trip_mid_batch_keeps_t_part_and_merged_stats(self):
        program = paper.example_2_4_program()
        db = fan_database()
        db.add_fact("t0", ("x0", "y0", "z0"))  # t_part has answers
        analysis = require_separable(program, "t")
        want = oracle_answers(program, db, QUERY)
        part_only = EvaluationStats()
        with pytest.raises(BudgetExceeded) as trip:
            evaluate_separable(
                program, db, QUERY, analysis=analysis, stats=part_only,
                budget=Budget(max_iterations=6))
        exc = trip.value
        assert exc.limit == "iterations"
        assert exc.stats is part_only
        # t_part completed (4 rounds) before the batch tripped.
        assert part_only.iterations > 4
        assert exc.partial == {("x0", "y0", f"z{i}") for i in range(4)}
        assert exc.partial <= want


class TestMemoProtocol:
    def test_one_entry_per_seed_and_the_work_merged_once(self, fan):
        program, db, analysis = fan
        direct = EvaluationStats()
        want = evaluate_separable(program, db, QUERY, analysis=analysis,
                                  stats=direct)
        memo = FullSelectionMemo()
        stats = EvaluationStats()
        got = evaluate_separable(program, db, QUERY, analysis=analysis,
                                 stats=stats, memo=memo)
        assert got == want
        assert stats == direct  # an all-miss query: the batch, once
        cls = analysis.classes[0]
        branches = []
        for j in range(3):
            key = full_selection_key(
                analysis, cls, cls.positions, (f"p{j}_0", f"q{j}_0"),
                "greedy")
            share, branch, *_ = memo._entries[key]
            # The seed's share assembled with its seed: the answer set
            # of the full selection t(p_j, q_j, Z).
            assert share == frozenset(
                (f"p{j}_0", f"q{j}_0", f"z{i}") for i in range(4))
            branches.append(branch)
        # The compute of the seed the sideways pass found first ran the
        # batch; the others took their share of it for nothing.
        assert sorted(b.tuples_produced > 0 for b in branches) == [
            False, False, True]
        assert sum(b == EvaluationStats() for b in branches) == 2
        assert memo.stats()["misses"] == 4  # t_part + three seeds

    @pytest.mark.parametrize("order", ["greedy", "left_to_right", "cost"])
    def test_entries_serve_direct_reads_and_unions_alike(self, fan, order):
        """One entry per full selection answers both ways it is asked
        for: a seed read directly from the entry a Lemma 2.1 batch
        filled, and a union from entries direct reads filled."""
        program, db, analysis = fan
        db.add_fact("t0", ("p1_2", "q1_2", "w"))  # seed 1 finds one more
        seeds = [parse_atom(f"t(p{j}_0, q{j}_0, Z)") for j in range(3)]

        def ask(query, memo=None):
            return evaluate_separable(program, db, query, analysis=analysis,
                                      memo=memo, order=order)

        memo = FullSelectionMemo()
        ask(QUERY, memo)
        misses = memo.stats()["misses"]
        for query in seeds:
            assert ask(query, memo) == ask(query)
        assert memo.stats()["misses"] == misses

        memo = FullSelectionMemo()
        for query in seeds:
            ask(query, memo)
        assert ask(QUERY, memo) == ask(QUERY)
        assert memo.stats()["hits"] == 3

    def test_a_repeated_read_is_the_entry_itself(self, fan):
        program, db, analysis = fan
        memo = FullSelectionMemo()
        one = parse_atom("t(p0_0, q0_0, Z)")
        traced = [Tracer(), Tracer()]
        first = evaluate_separable(program, db, one, analysis=analysis,
                                   memo=memo, tracer=traced[0])
        hits = memo.stats()["hits"]
        again = evaluate_separable(program, db, one, analysis=analysis,
                                   memo=memo, tracer=traced[1])
        (entry, *_), = memo._entries.values()
        assert again is first is entry
        assert memo.stats()["hits"] == hits + 1
        loops = [len(list(t.spans("separable.loop"))) for t in traced]
        assert loops[0] > 0 and loops[1] == 0

    def test_a_residual_match_filters_the_entry_it_reads(self, fan):
        """``t(X, X, z0)`` is the full selection ``t(X, Y, z0)`` and a
        repeated-variable filter: the entry holds the unfiltered set,
        and the query gets a filtered copy, never the entry."""
        program, db, analysis = fan
        db.add_fact("t0", ("s", "s", "z0"))
        memo = FullSelectionMemo()
        same = parse_atom("t(X, X, z0)")
        got = evaluate_separable(program, db, same, analysis=analysis,
                                 memo=memo)
        (entry, *_), = memo._entries.values()
        assert got == oracle_answers(program, db, same) == {("s", "s", "z0")}
        assert got is not entry and got < entry
        full = parse_atom("t(X, Y, z0)")
        assert evaluate_separable(program, db, full, analysis=analysis,
                                  memo=memo) is entry
        assert entry == oracle_answers(program, db, full)

    def test_a_memo_with_nothing_but_get_or_run(self, fan):
        program, db, analysis = fan
        direct, stats = EvaluationStats(), EvaluationStats()
        want = evaluate_separable(program, db, QUERY, analysis=analysis,
                                  stats=direct)
        asked = PassThrough()
        assert evaluate_separable(program, db, QUERY, analysis=analysis,
                                  stats=stats, memo=asked) == want
        assert len(asked.keys) == 4 and stats == direct

    def test_an_overlapping_query_runs_only_the_seeds_that_miss(self, fan):
        program, db, analysis = fan
        # (x1, y1) leads to a seed of its own and then to seed 1 of
        # x0's three: a hit *after* the miss that runs the batch.
        db.add_fact("a", ("x1", "y1", "r", "s"))
        db.add_fact("a", ("x1", "y1", "p1_0", "q1_0"))
        db.add_fact("t0", ("r", "s", "z2"))
        memo = FullSelectionMemo()
        evaluate_separable(program, db, QUERY, analysis=analysis, memo=memo,
                           order="left_to_right")
        before = memo.stats()
        other = parse_atom("t(x1, Y, Z)")
        stats = EvaluationStats()
        got = evaluate_separable(program, db, other, analysis=analysis,
                                 stats=stats, memo=memo, order="left_to_right")
        assert got == oracle_answers(program, db, other)
        after = memo.stats()
        assert after["hits"] - before["hits"] == 1      # (p1_0, q1_0)
        assert after["misses"] - before["misses"] == 2  # t_part, (r, s)
        # The cached seed was left out of the batch: what the query
        # reports is the memo-less run's work, with that seed's share
        # of it replaced by what its entry holds -- no double count.
        cls = analysis.classes[0]
        _, held, *_ = memo._entries[full_selection_key(
            analysis, cls, cls.positions, ("p1_0", "q1_0"), "left_to_right")]
        whole, alone = EvaluationStats(), EvaluationStats()
        evaluate_separable(program, db, other, analysis=analysis,
                           stats=whole, order="left_to_right")
        execute_plan(compile_plan(analysis, selected_class=cls), db,
                     [("p1_0", "q1_0")], stats=alone, order="left_to_right")
        assert alone.tuples_produced > 0
        assert stats.tuples_produced == (
            whole.tuples_produced - alone.tuples_produced
            + held.tuples_produced)
        assert stats.tuples_examined == (
            whole.tuples_examined - alone.tuples_examined
            + held.tuples_examined)

    def test_entries_of_one_seed_queries_are_reused_and_reported(self, fan):
        """Seeds answered one at a time beforehand: the partial
        selection runs no fixpoint for ``t_full`` and reports the
        per-seed work the entries hold."""
        program, db, analysis = fan
        memo = FullSelectionMemo()
        alone = EvaluationStats()
        for j in range(3):
            evaluate_separable(
                program, db, parse_atom(f"t(p{j}_0, q{j}_0, Z)"),
                analysis=analysis, stats=alone, memo=memo,
                order="left_to_right")
        misses = memo.stats()["misses"]
        stats, direct = EvaluationStats(), EvaluationStats()
        got = evaluate_separable(program, db, QUERY, analysis=analysis,
                                 stats=stats, memo=memo,
                                 order="left_to_right")
        want = evaluate_separable(program, db, QUERY, analysis=analysis,
                                  stats=direct, order="left_to_right")
        assert got == want
        assert memo.stats()["misses"] - misses == 1  # t_part only
        assert stats.tuples_produced == direct.tuples_produced
        assert stats.tuples_examined == direct.tuples_examined

    def test_a_hit_on_the_entry_that_carries_a_batch_does_not_trip(self, fan):
        """The first seed's entry holds the whole batch's statistics; a
        one-seed query answered from it reports them but must not fail a
        budget its own run passes."""
        program, db, analysis = fan
        memo = FullSelectionMemo()
        batch = EvaluationStats()
        evaluate_separable(program, db, QUERY, analysis=analysis,
                           stats=batch, memo=memo)
        cls = analysis.classes[0]
        carrier, = [
            j for j in range(3)
            if memo._entries[full_selection_key(
                analysis, cls, cls.positions, (f"p{j}_0", f"q{j}_0"),
                "greedy")][1].tuples_produced]
        one = parse_atom(f"t(p{carrier}_0, q{carrier}_0, Z)")
        alone = EvaluationStats()
        want = evaluate_separable(program, db, one, analysis=analysis,
                                  stats=alone)
        tight = Budget(max_iterations=alone.iterations,
                       max_total_tuples=alone.total_relation_size)
        hits = memo.stats()["hits"]
        stats = EvaluationStats()
        got = evaluate_separable(program, db, one, analysis=analysis,
                                 stats=stats, memo=memo, budget=tight)
        assert got == want and memo.stats()["hits"] == hits + 1
        # Reported: all three seeds' relations, over the limit.
        assert stats.total_relation_size > alone.total_relation_size

    def test_a_trip_mid_batch_keeps_what_the_memo_had_answered(self, fan):
        program, db, analysis = fan
        asked = PassThrough()  # no ``peek``: everything is taken to miss
        evaluate_separable(program, db, QUERY, analysis=analysis, memo=asked)
        _, first, *_ = asked.keys  # after t_part's: the seeds, in order
        memo = FullSelectionMemo()
        p, q = first[2]
        evaluate_separable(program, db, parse_atom(f"t({p}, {q}, Z)"),
                           analysis=analysis, memo=memo)
        stats = EvaluationStats()
        with pytest.raises(BudgetExceeded) as trip:
            evaluate_separable(program, db, QUERY, analysis=analysis,
                               stats=stats, memo=memo,
                               budget=Budget(max_iterations=8))
        # The first seed came from the memo before the other two tripped.
        assert trip.value.partial == {
            ("x0", "y0", f"z{i}") for i in range(4)}
        assert trip.value.stats is stats

    def test_reversed_seed_orders_do_not_wait_on_each_other(self, fan):
        """Two queries that lead each other's seeds: neither ``compute``
        may wait on the memo, or both would wait forever."""
        program, db, analysis = fan
        db.add_fact("a", ("x1", "y1", "p2_0", "q2_0"))
        db.add_fact("a", ("x1", "y1", "p1_0", "q1_0"))
        db.add_fact("a", ("x1", "y1", "p0_0", "q0_0"))
        memo = FullSelectionMemo()
        queries = [QUERY, parse_atom("t(x1, Y, Z)")]
        results: dict = {}
        barrier = threading.Barrier(2)

        def run(query):
            barrier.wait()
            results[query] = evaluate_separable(
                program, db, query, analysis=analysis, memo=memo)

        threads = [threading.Thread(target=run, args=(q,), daemon=True)
                   for q in queries]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for query in queries:
            assert results[query] == oracle_answers(program, db, query)

    def test_an_incremental_service_reads_the_union_off_its_view(self):
        """Through an incremental service a partial selection and its
        seeds are each one lookup on the view (dirty ones with the new
        fact, clean ones unchanged, no carry loop and no memo entry
        either way); asked for by strategy, the same union runs as the
        batch through the fingerprint-scoped memo."""
        program = paper.example_2_4_program()
        service = QueryService(
            program, fan_database(),
            ServiceConfig(workers=1, incremental=True),
        )

        def probes() -> int:
            return service.metrics_dict()["view_probes"]

        def seed(j: int):
            result = service.query(f"t(p{j}_0, q{j}_0, Z)?")
            assert result.ok and result.stats.iterations == 0
            return result.answers

        try:
            first = service.query("t(x0, Y, Z)?")
            assert first.ok and len(first.answers) == 4
            assert first.strategy == "view" and probes() == 1
            clean = seed(1)

            # A new exit fact under seed 0's chain: seed 0 and the
            # union answer with the new fact, seed 1 as before.
            service.mutate(
                lambda db: db.add_fact("t0", ("p0_2", "q0_2", "w")))
            assert ("p0_0", "q0_0", "w") in seed(0)
            assert seed(1) == clean
            again = service.query("t(x0, Y, Z)?")
            assert again.answers == oracle_answers(
                program, service.edb, again.query)
            assert ("x0", "y0", "w") in again.answers
            assert probes() == 5
            assert service.memo.stats()["size"] == 0

            batched = service.query("t(x0, Y, Z)?", strategy="separable")
            assert batched.answers == again.answers
            assert batched.stats.iterations > 0
            stats = service.memo.stats()
            assert (stats["misses"], stats["size"]) == (4, 4)  # t_part + 3
            assert probes() == 5
        finally:
            service.close()
