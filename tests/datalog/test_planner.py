"""Unit tests for the cost-based join planner.

The contract under test: :func:`cost_permutation` picks orders from
System-R style cardinality estimates (sizes, per-column distincts,
sampled containment), deterministically, and ``order="cost"`` computes
exactly the sets the greedy order does.
"""

import pytest

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.joins import EQ, evaluate_body
from repro.datalog.plan_cache import ORDERS, PlanCache, compile_join_plan
from repro.datalog.planner import (
    DP_MAX_ATOMS,
    cost_permutation,
    size_signature,
)
from repro.datalog.terms import Variable
from repro.observability import Tracer

from ..interpreter import evaluate_body_interpreted


def binding_set(results):
    return frozenset(frozenset(b.items()) for b in results)


@pytest.fixture
def skewed_db():
    """a(X,Y) selective, big(X,Z) fans out 8 per X, sel(Y,Z) selective."""
    n, f = 8, 8
    return Database.from_facts({
        "a": [(f"x{i}", f"y{i}") for i in range(n)],
        "big": [(f"x{i}", f"z{j}") for i in range(n) for j in range(f)],
        "sel": [(f"y{i}", f"z{i}") for i in range(n)],
    })


class TestCostPermutation:
    def test_defers_fanout_atom(self, skewed_db):
        # Greedy-by-size runs a (8) then big (64): quadratic fanout.
        # The cost model sees that a ⋈ sel keeps ~n rows and big joins
        # last on two bound columns.
        body = (atom("a", "X", "Y"), atom("big", "X", "Z"),
                atom("sel", "Y", "Z"))
        perm, est = cost_permutation(body, frozenset(), skewed_db)
        assert perm.index(1) == 2  # big goes last
        assert est > 0

    def test_deterministic_across_calls(self, skewed_db):
        body = (atom("a", "X", "Y"), atom("big", "X", "Z"),
                atom("sel", "Y", "Z"))
        results = {
            cost_permutation(body, frozenset(), skewed_db)
            for _ in range(5)
        }
        assert len(results) == 1

    def test_symmetric_atoms_break_ties_lexicographically(self):
        db = Database.from_facts({
            "p": [("a", "b"), ("c", "d")],
            "q": [("a", "b"), ("c", "d")],
        })
        body = (atom("p", "X", "Y"), atom("q", "X", "Y"))
        perm, _ = cost_permutation(body, frozenset(), db)
        assert perm == (0, 1)  # exact tie -> smaller permutation tuple

    def test_bound_vars_change_the_order(self):
        db = Database.from_facts({
            "sel": [(f"y{i}", f"z{i}") for i in range(50)],
            "big": [(f"x{i}", f"z{j}")
                    for i in range(10) for j in range(10)],
        })
        body = (atom("sel", "Y", "Z"), atom("big", "X", "Z"))
        free_perm, _ = cost_permutation(body, frozenset(), db)
        bound_perm, _ = cost_permutation(
            body, frozenset({Variable("X")}), db
        )
        # Unbound, sel (50 rows) beats big (100); with X bound, big
        # keeps ~100/10 = 10 rows and leads instead.
        assert free_perm == (0, 1)
        assert bound_perm == (1, 0)

    def test_eq_atoms_excluded_from_permutation(self, skewed_db):
        body = (Atom(EQ, (Variable("X"), Variable("W"))),
                atom("a", "X", "Y"), atom("sel", "Y", "Z"))
        perm, _ = cost_permutation(body, frozenset(), skewed_db)
        assert set(perm) == {1, 2}

    def test_empty_body(self):
        assert cost_permutation((), frozenset(), None) == ((), 0.0)

    def test_cross_products_deferred(self):
        db = Database.from_facts({
            "tiny": [("a",)],
            "p": [(f"u{i}", f"v{i}") for i in range(10)],
            "q": [(f"v{i}", f"w{i}") for i in range(10)],
        })
        # tiny shares no variable with p ⋈ q: the connected pair must
        # run as a unit even though tiny is the smallest relation.
        body = (atom("p", "X", "Y"), atom("tiny", "T"),
                atom("q", "Y", "Z"))
        perm, _ = cost_permutation(body, frozenset(), db)
        assert perm.index(1) != 1  # tiny never splits the join pair

    def test_greedy_sweep_past_dp_cutoff(self):
        # DP_MAX_ATOMS + 2 chained atoms: exercises the sweep fallback
        # and still yields a valid full permutation.
        k = DP_MAX_ATOMS + 2
        facts = {
            f"r{i}": [(f"c{i}_{j}", f"c{i + 1}_{j}") for j in range(3)]
            for i in range(k)
        }
        db = Database.from_facts(facts)
        body = tuple(
            atom(f"r{i}", f"V{i}", f"V{i + 1}") for i in range(k)
        )
        perm, est = cost_permutation(body, frozenset(), db)
        assert sorted(perm) == list(range(k))
        assert est > 0


class TestSizeSignature:
    def test_log_buckets(self):
        db = Database.from_facts({
            "p": [(f"t{i}",) for i in range(5)],
            "q": [(f"t{i}",) for i in range(100)],
        })
        body = (atom("p", "X"), Atom(EQ, (Variable("X"), Variable("Y"))),
                atom("q", "Y"))
        assert size_signature(body, db) == (3, -1, 7)

    def test_insensitive_within_bucket(self):
        db = Database.from_facts({"p": [(f"t{i}",) for i in range(9)]})
        body = (atom("p", "X"),)
        before = size_signature(body, db)
        for i in range(9, 15):  # 9..15 share bit_length 4
            db.add_fact("p", (f"t{i}",))
        assert size_signature(body, db) == before
        db.add_fact("p", ("t16",))
        assert size_signature(body, db) != before

    def test_missing_relation_is_zero(self):
        db = Database()
        assert size_signature((atom("ghost", "X"),), db) == (0,)


class TestCostOrderEquivalence:
    def test_all_orders_same_bindings(self, skewed_db):
        body = (atom("a", "X", "Y"), atom("big", "X", "Z"),
                atom("sel", "Y", "Z"))
        reference = binding_set(
            evaluate_body_interpreted(skewed_db, body)
        )
        for order in ORDERS:
            assert binding_set(
                evaluate_body(skewed_db, body, order=order)
            ) == reference, order

    def test_eq_before_binders_deferred(self):
        # The PR 4 regression shape: rectification can emit eq/2 ahead
        # of every atom that could bind its sides.
        db = Database.from_facts({"edge": [("a", "a"), ("a", "b")]})
        body = (Atom(EQ, (Variable("X"), Variable("Y"))),
                atom("edge", "X", "Y"))
        results = list(evaluate_body(db, body, order="cost"))
        assert binding_set(results) == binding_set(
            [{Variable("X"): "a", Variable("Y"): "a"}]
        )

    def test_never_bindable_eq_still_raises(self, skewed_db):
        body = (Atom(EQ, (Variable("A"), Variable("B"))),
                atom("a", "X", "Y"))
        with pytest.raises(ValueError, match="both sides unbound"):
            list(evaluate_body(skewed_db, body, order="cost"))

    def test_unknown_order_rejected(self, skewed_db):
        for order in ("bogus", "adaptive"):
            with pytest.raises(ValueError, match="unknown join order"):
                list(evaluate_body(skewed_db, (atom("a", "X", "Y"),),
                                   order=order))


class TestCostPlanCaching:
    BODY = (atom("a", "X", "Y"), atom("big", "X", "Z"),
            atom("sel", "Y", "Z"))

    def test_same_bucket_no_recompile(self, skewed_db):
        cache = PlanCache()
        cache.plan_for(self.BODY, frozenset(), "cost", skewed_db)
        skewed_db.add_fact("a", ("x0b", "y0b"))  # 8 -> 9: same bucket
        cache.plan_for(self.BODY, frozenset(), "cost", skewed_db)
        assert cache.stats()["compiles"] == 1
        assert cache.stats()["hits"] == 1

    def test_bucket_shift_same_perm_hits_compile_cache(self, skewed_db):
        # Crossing a power of two re-plans (new memo key) but the
        # chosen permutation is unchanged, so the compiled plan is
        # reused -- the O(1)-compiles-per-body guarantee.
        cache = PlanCache()
        cache.plan_for(self.BODY, frozenset(), "cost", skewed_db)
        for i in range(70):
            skewed_db.add_fact("big", (f"x{i % 8}", f"zz{i}"))  # 64 -> 134
        cache.plan_for(self.BODY, frozenset(), "cost", skewed_db)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["compiles"] == 1  # same permutation

    def test_estimate_reported_to_tracer(self, skewed_db):
        cache = PlanCache()
        tracer = Tracer()
        cache.plan_for(self.BODY, frozenset(), "cost", skewed_db,
                       tracer=tracer)
        assert tracer.counter_total("plan_est_rows") >= 1

    def test_compile_join_plan_cost_order(self, skewed_db):
        plan = compile_join_plan(self.BODY, db=skewed_db, order="cost")
        assert plan.atom_order()[-1] == "big"
