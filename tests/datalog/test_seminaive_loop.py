"""The semi-naive flavour of the generated loop, at its edges.

``tests/property/test_property_seminaive.py`` diffs whole evaluations
against ``naive_evaluate``; these tests pin what a diff of extents
cannot see: which relation a bound probe reads once a write has dropped
shared index buckets, what a budget trip leaves behind, and that an
untraced run asks no relation its size.
"""

import pytest

from repro.budget import Budget, BudgetExceeded
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import seminaive_evaluate, seminaive_stratum
from repro.maintenance import MaintainedView
from repro.observability import Tracer
from repro.stats import EvaluationStats
from repro.storage import resolve_backend

NONLINEAR = parse_program(
    "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, W) & tc(W, Y)."
).program
LINEAR = parse_program(
    "tc(X, Y) :- tc(X, W) & e(W, Y).\ntc(X, Y) :- e(X, Y)."
).program
RIGHT = parse_program(
    "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
).program


def stratum(program):
    [scc] = program.evaluation_order
    return [r for r in program.rules if r.head.predicate in scc], scc


def chain(n):
    return [(i, i + 1) for i in range(n)]


def assert_indexes_hold(rel):
    """Every index of ``rel`` finds exactly the facts it should."""
    facts = set(rel)
    for positions in list(rel._indexes):
        for fact in facts:
            key = tuple(fact[p] for p in positions)
            assert fact in rel.lookup(positions, key)
        assert sum(map(len, rel._indexes[positions].values())) == len(facts)


class TestSharedIndexes:
    def test_a_probed_member_drops_borrowed_buckets_before_it_grows(self):
        """``tc`` is both probed (nonlinear rule) and written by the
        loop, and its index buckets are shared with a snapshot
        (``adopt_indexes``): the first write gives them up, so a probe
        bound to them beforehand would read stale buckets for the rest
        of the run."""
        edb = Database.from_facts({"e": chain(6)})
        db = seminaive_evaluate(NONLINEAR, edb)
        tc = db.relation("tc")
        frozen = tc.snapshot()
        for positions in ((0,), (1,)):
            frozen.lookup(positions, (0,))
        db.add_fact("e", (6, 7))
        tc.adopt_indexes(frozen)
        assert tc._borrowed and frozen._borrowed
        held = {p: {k: list(b) for k, b in index.items()}
                for p, index in frozen._indexes.items()}

        rules, scc = stratum(NONLINEAR)
        added = seminaive_stratum(rules, scc, db, NONLINEAR,
                                  initial_deltas={"tc": [(6, 7)]})
        edb.add_fact("e", (6, 7))
        want = seminaive_evaluate(NONLINEAR, edb).tuples("tc")
        assert tc.tuples() == want
        assert added == {"tc": {(i, 7) for i in range(7)}}
        assert_indexes_hold(tc)
        # ... and the snapshot's own buckets were never patched.
        assert {p: {k: list(b) for k, b in index.items()}
                for p, index in frozen._indexes.items()} == held


class TestBudgetTrip:
    @pytest.mark.parametrize("traced", [False, True])
    def test_a_trip_between_rounds_leaves_stats_and_indexes_whole(
            self, traced):
        """``max_relation_tuples`` trips at the top of a round, inside
        the generated function: everything earlier rounds counted has
        reached ``stats``, and every fact they installed is in every
        index (a retry or a rebuild starts from a consistent relation)."""
        db = Database.from_facts({"e": chain(40)})
        db.ensure("tc", 2).lookup((0,), (0,))  # a live index to patch
        rules, scc = stratum(LINEAR)
        stats = EvaluationStats()
        budget = Budget(max_relation_tuples=55)
        with pytest.raises(BudgetExceeded) as trip:
            seminaive_stratum(rules, scc, db, LINEAR, stats=stats,
                              budget=budget,
                              tracer=Tracer() if traced else None)
        assert trip.value.limit == "relation_tuples"
        assert trip.value.stats is stats
        tc = db.relation("tc")
        # Round 0 installs the 40 edges, round 1 the 39 paths of length
        # two: the check before round 2 sees 79 > 55.
        assert len(tc) == 79 and stats.iterations == 2
        assert stats.relation_sizes["tc"] == 79
        assert stats.tuples_produced == 79
        assert stats.tuples_examined > 0
        assert_indexes_hold(tc)
        # The relation is a valid place to resume from.
        seminaive_stratum(rules, scc, db, LINEAR)
        assert len(tc) == 40 * 41 // 2


class TestNoSizeAskedUntraced:
    """DESIGN.md: ``tracer=None`` is zero overhead.  On SQLite a size is
    a ``SELECT COUNT(*)`` whenever the relation has been written since
    it was last asked."""

    @staticmethod
    def counting(db, statements):
        for name in db.predicates():
            db.relation(name)._conn.set_trace_callback(statements.append)

    def restart(self, tracer):
        edb = Database.from_facts({"e": chain(5)},
                                  backend=resolve_backend("sqlite"))
        view = MaintainedView(RIGHT, edb)
        view.db.add_fact("e", (5, 6))
        len(view.db.relation("e"))  # what planning reads: asked before
        statements: list[str] = []
        self.counting(view.db, statements)
        rules, scc = stratum(RIGHT)
        added = seminaive_stratum(rules, scc, view.db, RIGHT,
                                  tracer=tracer,
                                  initial_deltas={"tc": [(5, 6)]})
        assert added == {"tc": {(i, 6) for i in range(6)}}
        return [s for s in statements if "COUNT(*)" in s]

    def test_an_untraced_restart_counts_no_rows(self):
        assert self.restart(None) == []

    def test_a_traced_restart_still_records_its_sizes(self):
        tracer = Tracer()
        assert self.restart(tracer)  # initial= and final= are sizes
        span, = [s for s in tracer.spans() if s.name == "seminaive.scc"]
        assert span.attrs["initial"] == {"tc": 15}
        assert span.attrs["final"] == {"tc": 21}
        assert sum(span.series["delta:tc"]) == 6
