"""The pickle contracts of ``Database``, ``Relation`` and
``BudgetExceeded``.

A pickled database must arrive as the same data (aliasing included)
with none of the sender's live wiring (observers, caches), and a budget
trip must keep its structured context.
"""

import pickle

from repro.datalog.database import Database, Relation
from repro.errors import BudgetExceeded
from repro.stats import EvaluationStats


class TestRelationPickle:
    def test_tuples_survive_and_observers_do_not(self):
        rel = Relation("a", 2, [("x", "y"), ("y", "z")])
        events = []
        rel.observe(lambda r, fact, sign: events.append((fact, sign)))

        clone = pickle.loads(pickle.dumps(rel))

        assert clone.name == "a" and clone.arity == 2
        assert set(clone) == {("x", "y"), ("y", "z")}
        assert clone._observers == ()
        # Mutating the clone must not feed the parent's observer.
        clone.add_all([("z", "w")])
        assert events == []

    def test_indexes_rebuild_on_the_receiving_side(self):
        rel = Relation("a", 2, [(f"x{i}", f"x{i + 1}") for i in range(8)])
        # Force a secondary index in the parent, then ship.
        assert rel.lookup((0,), ("x3",)) == [("x3", "x4")]
        clone = pickle.loads(pickle.dumps(rel))
        assert clone._indexes == {}
        assert clone.lookup((0,), ("x3",)) == [("x3", "x4")]
        assert clone.lookup((1,), ("x1",)) == [("x0", "x1")]


class TestDatabasePickle:
    def test_aliased_mounts_stay_aliased(self):
        shared = Relation("edge", 2, [("a", "b")])
        db = Database()
        db.attach(shared, "edge")
        db.attach(shared, "alias")

        clone = pickle.loads(pickle.dumps(db))

        assert clone.relation("edge") is clone.relation("alias")
        clone.add_fact("edge", ("b", "c"))
        assert ("b", "c") in clone.relation("alias")
        # ... and the clone is a private snapshot of the original.
        assert ("b", "c") not in shared

    def test_observers_stay_behind(self):
        db = Database()
        db.ensure("edge", 2)
        events = []
        db.observe(lambda rel, fact, sign: events.append(fact))
        db.add_fact("edge", ("a", "b"))
        assert len(events) == 1

        clone = pickle.loads(pickle.dumps(db))
        assert clone._observers == []
        assert clone.relation("edge")._observers == ()
        clone.add_fact("edge", ("b", "c"))
        assert len(events) == 1


class TestExceptionPickle:
    def test_budget_exceeded_keeps_structured_context(self):
        stats = EvaluationStats()
        stats.bump_produced()
        partial = frozenset({("a", "b")})
        exc = BudgetExceeded(
            "tuples exhausted", stats=stats, limit="total_tuples",
            partial=partial,
        )

        clone = pickle.loads(pickle.dumps(exc))

        assert isinstance(clone, BudgetExceeded)
        assert str(clone) == "tuples exhausted"
        assert clone.limit == "total_tuples"
        assert clone.partial == partial
        assert clone.stats.tuples_produced == 1
