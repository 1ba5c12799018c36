"""Unit tests for the compiled join kernel and its plan cache.

The contract under test: :func:`evaluate_body` (which now runs through
:class:`repro.datalog.plan_cache.JoinPlan`) stays observably identical
to the interpreted join, while plans are compiled O(1) times per
(rule body, binding signature) -- never per tuple, per round, or per
database size.
"""

import pytest

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.joins import (
    EQ,
    evaluate_body,
    evaluate_body_into,
    evaluate_body_project,
)
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import (
    PLAN_CACHE,
    PlanCache,
    compile_join_plan,
    greedy_permutation,
)
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.terms import Constant, Variable
from repro.engine import Engine
from repro.workloads.generators import chain

from ..interpreter import evaluate_body_interpreted

TC_TEXT = "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."


def binding_set(results):
    return frozenset(frozenset(b.items()) for b in results)


@pytest.fixture
def db():
    return Database.from_facts(
        {
            "edge": [("a", "b"), ("b", "c"), ("b", "d")],
            "color": [("a", "red"), ("c", "blue"), ("d", "blue")],
        }
    )


class TestCompileExecute:
    def test_plan_matches_interpreter(self, db):
        body = (atom("edge", "X", "Y"), atom("color", "Y", "C"))
        plan = compile_join_plan(body, db=db)
        assert binding_set(plan.execute(db, {})) == binding_set(
            evaluate_body_interpreted(db, body)
        )

    def test_repeated_variable_checked(self):
        db = Database.from_facts({"p": [("a", "a"), ("a", "b")]})
        plan = compile_join_plan((atom("p", "X", "X"),), db=db)
        assert len(list(plan.execute(db, {}))) == 1

    def test_initial_bindings_preloaded(self, db):
        body = (atom("edge", "X", "Y"),)
        x = Variable("X")
        plan = compile_join_plan(body, bound_vars=frozenset({x}), db=db)
        results = list(plan.execute(db, {x: "b"}))
        assert {b[Variable("Y")] for b in results} == {"c", "d"}
        assert all(b[x] == "b" for b in results)

    def test_eq_const_const_false_is_always_empty(self, db):
        plan = compile_join_plan(
            (Atom(EQ, (Constant("a"), Constant("b"))),
             atom("edge", "X", "Y")),
            db=db,
        )
        assert plan.always_empty
        assert list(plan.execute(db, {})) == []

    def test_eq_arity_checked(self, db):
        with pytest.raises(ValueError, match="arity 2"):
            compile_join_plan((Atom(EQ, (Variable("X"),)),), db=db)

    def test_atom_order_follows_sizes(self, db):
        # color (3 tuples) vs edge (3 tuples): with X pre-bound, the
        # bound-variable count dominates and edge(X, Y) goes first.
        body = (atom("color", "Y", "C"), atom("edge", "X", "Y"))
        perm = greedy_permutation(
            body, frozenset({Variable("X")}), db=db
        )
        assert perm[0] == 1


class TestExecuteProject:
    def test_matches_execute_plus_instantiate(self, db):
        body = (atom("edge", "X", "Y"), atom("color", "Y", "C"))
        output = (Variable("C"), Constant("tag"), Variable("X"))
        facts = set(evaluate_body_project(db, body, output))
        expected = {
            (b[Variable("C")], "tag", b[Variable("X")])
            for b in evaluate_body(db, body)
        }
        assert facts == expected

    def test_falls_back_for_prebound_only_variable(self, db):
        # Z never occurs in the body, so it has no register; the
        # projection falls back to the dict path and reads it from the
        # initial bindings.
        z = Variable("Z")
        facts = set(
            evaluate_body_project(
                db,
                (atom("edge", "b", "Y"),),
                (z, Variable("Y")),
                initial_bindings={z: "seed"},
            )
        )
        assert facts == {("seed", "c"), ("seed", "d")}

    def test_unbound_output_variable_raises(self, db):
        with pytest.raises(KeyError):
            list(
                evaluate_body_project(
                    db, (atom("edge", "X", "Y"),), (Variable("Nope"),)
                )
            )

    def test_unbound_output_variable_raises_at_the_call(self, db):
        # Outside-the-body outputs are kernel arguments, resolved when
        # the call is made: no row has to be pulled, and the join need
        # not have a solution.
        nope = (Variable("Nope"),)
        with pytest.raises(KeyError):
            evaluate_body_project(db, (atom("edge", "X", "Y"),), nope)
        with pytest.raises(KeyError):
            evaluate_body_project(db, (atom("edge", "zz", "Y"),), nope)
        with pytest.raises(KeyError):
            evaluate_body_into(db, (atom("edge", "zz", "Y"),), nope, set())
        # ...but an empty body relation ends the run before that.
        db.ensure("hollow", 1)
        assert list(evaluate_body_project(
            db, (atom("hollow", "X"),), nope)) == []

    def test_empty_body_projects_initial_bindings(self, db):
        z = Variable("Z")
        facts = list(
            evaluate_body_project(
                db, (), (z,), initial_bindings={z: "v"}
            )
        )
        assert facts == [("v",)]


class TestLeftToRightEqDeferral:
    """Regression: rectification can place eq/2 before its binders.

    ``order="left_to_right"`` used to raise ``ValueError: both sides
    unbound`` on such bodies; the eq atom must instead wait until a
    later atom binds one side.  Both the compiled and the interpreted
    paths defer.
    """

    BODY = (
        Atom(EQ, (Variable("X"), Variable("Y"))),
        atom("edge", "X", "Y"),
    )

    def test_compiled_defers(self):
        db = Database.from_facts({"edge": [("a", "a"), ("a", "b")]})
        results = list(
            evaluate_body(db, self.BODY, order="left_to_right")
        )
        assert binding_set(results) == binding_set(
            [{Variable("X"): "a", Variable("Y"): "a"}]
        )

    def test_interpreted_defers(self):
        db = Database.from_facts({"edge": [("a", "a"), ("a", "b")]})
        results = list(
            evaluate_body_interpreted(
                db, self.BODY, order="left_to_right"
            )
        )
        assert len(results) == 1

    def test_assign_form_defers(self, db):
        # eq(Z, Y) first: Z is assigned from Y once edge binds it.
        body = (Atom(EQ, (Variable("Z"), Variable("Y"))),
                atom("edge", "a", "Y"))
        results = list(evaluate_body(db, body, order="left_to_right"))
        assert [b[Variable("Z")] for b in results] == ["b"]

    def test_never_bindable_eq_still_raises(self, db):
        for evaluator in (evaluate_body, evaluate_body_interpreted):
            with pytest.raises(ValueError, match="both sides unbound"):
                list(
                    evaluator(
                        db,
                        (Atom(EQ, (Variable("A"), Variable("B"))),
                         atom("edge", "X", "Y")),
                        order="left_to_right",
                    )
                )


class TestPlanCacheKeying:
    def test_hit_on_repeat(self, db):
        cache = PlanCache()
        body = (atom("edge", "X", "Y"),)
        cache.plan_for(body, frozenset(), "greedy", db)
        cache.plan_for(body, frozenset(), "greedy", db)
        assert cache.stats() == {
            "size": 1, "hits": 1, "misses": 1, "compiles": 1,
            "evictions": 0, "orders": {"greedy": 2},
        }

    def test_size_growth_with_same_rank_hits(self):
        # p stays smaller than q: the greedy walk's comparisons -- and
        # therefore the plan -- cannot change, so no recompile.
        cache = PlanCache()
        db = Database.from_facts(
            {"p": [("a", "b")], "q": [(f"x{i}", f"y{i}") for i in range(5)]}
        )
        body = (atom("p", "X", "Y"), atom("q", "Y", "Z"))
        cache.plan_for(body, frozenset(), "greedy", db)
        db.add_fact("p", ("c", "d"))
        db.add_fact("q", ("y", "z"))
        cache.plan_for(body, frozenset(), "greedy", db)
        assert cache.stats()["compiles"] == 1
        assert cache.stats()["hits"] == 1

    def test_rank_flip_compiles_new_plan(self):
        cache = PlanCache()
        db = Database.from_facts(
            {"p": [("a", "b")], "q": [("x", "y"), ("u", "v")]}
        )
        body = (atom("p", "X", "Y"), atom("q", "Y", "Z"))
        first = cache.plan_for(body, frozenset(), "greedy", db)
        for i in range(5):  # now p is the bigger relation
            db.add_fact("p", (f"g{i}", f"h{i}"))
        second = cache.plan_for(body, frozenset(), "greedy", db)
        assert cache.stats()["compiles"] == 2
        assert first.atom_order() != second.atom_order()

    def test_fifo_eviction(self, db):
        cache = PlanCache(maxsize=2)
        bodies = [
            (atom("edge", "X", "Y"),),
            (atom("color", "X", "C"),),
            (atom("edge", "X", "Y"), atom("color", "Y", "C")),
        ]
        for body in bodies:
            cache.plan_for(body, frozenset(), "greedy", db)
        assert len(cache) == 2
        cache.plan_for(bodies[0], frozenset(), "greedy", db)  # evicted
        assert cache.stats()["compiles"] == 4


class TestPlanCompilesAreSizeIndependent:
    """The ISSUE's acceptance property: compiles depend on the program,
    never on the database size or the fixpoint round count."""

    @staticmethod
    def _seminaive_compiles(n):
        PLAN_CACHE.clear()
        program = parse_program(TC_TEXT).program
        seminaive_evaluate(program, Database.from_facts({"e": chain(n)}))
        return PLAN_CACHE.stats()["compiles"]

    def test_seminaive_round_count_does_not_compile(self):
        # chain(48) runs ~6x the fixpoint rounds of chain(8) over the
        # same rule bodies: every extra round must hit the cache.
        compiles = {self._seminaive_compiles(n) for n in (8, 48)}
        assert len(compiles) == 1
        assert compiles.pop() > 0

    def test_separable_engine_compiles_flat_across_sizes(self):
        counts = set()
        for n in (8, 48):
            PLAN_CACHE.clear()
            parsed = parse_program(TC_TEXT)
            engine = Engine(
                parsed.program, Database.from_facts({"e": chain(n)})
            )
            result = engine.query("tc(a0, Y)?", strategy="separable")
            assert len(result.answers) == n - 1
            counts.add(PLAN_CACHE.stats()["compiles"])
        assert len(counts) == 1


class TestPlanCacheThreadSafety:
    """The cache is shared by the query service's worker threads: its
    counters must stay consistent and its eviction must never drop the
    entry just inserted, no matter the interleaving."""

    @staticmethod
    def _bodies(k):
        return [
            (atom("edge", "X", f"Y{i}"), atom("edge", f"Y{i}", "Z"))
            for i in range(k)
        ]

    def test_concurrent_lookups_keep_counters_consistent(self):
        import threading

        cache = PlanCache(maxsize=64)
        db = Database.from_facts({"edge": [("a", "b"), ("b", "c")]})
        bodies = self._bodies(6)
        lookups_per_thread = 50
        threads = []

        def worker(seed):
            for i in range(lookups_per_thread):
                body = bodies[(seed + i) % len(bodies)]
                plan = cache.plan_for(body, frozenset(), "greedy", db)
                assert plan.body == body

        for seed in range(8):
            threads.append(threading.Thread(target=worker, args=(seed,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        stats = cache.stats()
        # Every lookup was counted exactly once, as a hit or a miss.
        assert stats["hits"] + stats["misses"] == 8 * lookups_per_thread
        # Racing misses may compile duplicates (compilation runs outside
        # the lock by design), but never lose an insert.
        assert stats["compiles"] >= len(bodies)
        assert stats["size"] == len(bodies)

    def test_eviction_under_contention_never_drops_fresh_entry(self):
        import threading

        cache = PlanCache(maxsize=2)
        db = Database.from_facts({"edge": [("a", "b")]})
        bodies = self._bodies(8)
        failures = []

        def worker(seed):
            for i in range(60):
                body = bodies[(seed * 7 + i) % len(bodies)]
                plan = cache.plan_for(body, frozenset(), "greedy", db)
                if plan.body != body:
                    failures.append((seed, i))

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not failures
        assert cache.stats()["size"] <= 2
