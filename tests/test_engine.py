"""Tests for the top-level Engine: strategy dispatch, auto-selection,
base-predicate materialization, cross-strategy agreement."""

import pytest

from repro.budget import Budget
from repro.datalog.database import Database
from repro.datalog.errors import (
    ArityError,
    BudgetExceeded,
    NotFullSelectionError,
    NotSeparableError,
    UnknownPredicateError,
)
from repro.datalog.parser import parse_program
from repro.engine import STRATEGIES, Engine
from repro.observability import Tracer
from repro.workloads.generators import chain, cycle
from repro.workloads.paper import section_5_nonseparable_program

from .conftest import oracle_answers


@pytest.fixture
def ex11_engine(example_1_1):
    program, db = example_1_1
    return Engine(program, db), program, db


class TestAutoSelection:
    def test_separable_query_uses_separable(self, ex11_engine):
        engine, _, _ = ex11_engine
        result = engine.query("buys(tom, Y)?")
        assert result.strategy == "separable"
        assert result.report is not None and result.report.separable

    def test_all_free_query_falls_back_to_magic(self, ex11_engine):
        engine, _, _ = ex11_engine
        result = engine.query("buys(X, Y)?")
        assert result.strategy == "magic"

    def test_nonseparable_falls_back_to_magic(self):
        program = section_5_nonseparable_program()
        db = Database.from_facts(
            {
                "a": [("c", "m")],
                "b": [("u", "v")],
                "t0": [("m", "u")],
            }
        )
        engine = Engine(program, db)
        result = engine.query("t(c, Y)?")
        assert result.strategy == "magic"
        assert result.answers == {("c", "v")}
        assert not result.report.separable


class TestJoinOrderSelection:
    def test_constructor_rejects_unknown_order(self, example_1_1):
        program, db = example_1_1
        with pytest.raises(ValueError, match="unknown join order"):
            Engine(program, db, order="bogus")

    def test_query_rejects_unknown_order(self, ex11_engine):
        engine, _, _ = ex11_engine
        with pytest.raises(ValueError, match="unknown join order"):
            engine.query("buys(tom, Y)?", order="bogus")
        with pytest.raises(ValueError, match=r"choose from \('greedy', "
                                             r"'left_to_right', 'cost'\)"):
            engine.query("buys(tom, Y)?", order="adaptive")
        with pytest.raises(TypeError, match="unexpected keyword"):
            engine.query("buys(tom, Y)?", parallel=2)

    @pytest.mark.parametrize("order", ["left_to_right", "cost"])
    def test_engine_order_preserves_answers(self, example_1_1, order):
        program, db = example_1_1
        reference = Engine(program, db).query(
            "buys(tom, Y)?", strategy="seminaive"
        ).answers
        got = Engine(program, db, order=order).query(
            "buys(tom, Y)?", strategy="seminaive"
        ).answers
        assert got == reference

    def test_per_query_order_overrides_engine_default(self, ex11_engine):
        engine, _, _ = ex11_engine
        from repro.datalog.plan_cache import PLAN_CACHE

        PLAN_CACHE.clear()
        default = engine.query("buys(tom, Y)?", strategy="seminaive")
        overridden = engine.query(
            "buys(tom, Y)?", strategy="seminaive", order="cost"
        )
        assert overridden.answers == default.answers
        assert PLAN_CACHE.stats()["orders"].get("cost", 0) > 0

    def test_join_plan_stats_reports_order_mix(self, ex11_engine):
        engine, _, _ = ex11_engine
        from repro.datalog.plan_cache import PLAN_CACHE

        PLAN_CACHE.clear()
        engine.query("buys(tom, Y)?", strategy="seminaive")
        stats = engine.join_plan_stats()
        assert set(stats) >= {
            "size", "hits", "misses", "compiles", "evictions", "orders",
        }
        assert stats["orders"].get("greedy", 0) > 0


class TestAllStrategiesAgree:
    @pytest.mark.parametrize(
        "strategy", [s for s in STRATEGIES if s != "auto"]
    )
    @pytest.mark.parametrize(
        "query", ["buys(tom, Y)?", "buys(X, camera)?"]
    )
    def test_example_1_1(self, ex11_engine, strategy, query):
        from repro.rewriting.counting import CountingNotApplicable
        from repro.rewriting.selection_push import StablePushNotApplicable

        engine, program, db = ex11_engine
        try:
            result = engine.query(query, strategy=strategy)
        except (CountingNotApplicable, StablePushNotApplicable) as exc:
            pytest.skip(f"{strategy} not applicable: {exc}")
        from repro.datalog.parser import parse_query

        assert result.answers == oracle_answers(
            program, db, parse_query(query)
        )
        assert result.strategy == strategy

    @pytest.mark.parametrize("strategy", ["separable", "magic", "seminaive"])
    def test_cyclic_data(self, example_1_1, strategy):
        program, db = example_1_1
        db = db.copy()
        db.add_fact("friend", ("joe", "tom"))
        engine = Engine(program, db)
        from repro.datalog.parser import parse_query

        query = parse_query("buys(tom, Y)?")
        assert engine.query(query, strategy=strategy).answers == (
            oracle_answers(program, db, query)
        )


class TestBaseMaterialization:
    PROGRAM = """
    link(X, Y) :- wire(X, Y).
    link(X, Y) :- wire(Y, X).
    conn(X, Y) :- link(X, W) & conn(W, Y).
    conn(X, Y) :- link(X, Y).
    """

    def test_idb_base_predicates_materialized(self):
        parsed = parse_program(self.PROGRAM)
        db = Database.from_facts({"wire": [("a", "b"), ("c", "b")]})
        engine = Engine(parsed.program, db)
        result = engine.query("conn(a, Y)?", strategy="separable")
        assert result.answers == {("a", "b"), ("a", "c"), ("a", "a")}

    def test_materialization_cached(self):
        parsed = parse_program(self.PROGRAM)
        db = Database.from_facts({"wire": [("a", "b")]})
        engine = Engine(parsed.program, db)
        engine.query("conn(a, Y)?", strategy="separable")
        first = engine._base_db["conn"]
        engine.query("conn(b, Y)?", strategy="separable")
        assert engine._base_db["conn"] is first

    def test_report_cached(self, ex11_engine):
        engine, _, _ = ex11_engine
        assert engine.report("buys") is engine.report("buys")

    def test_cache_invalidated_on_edb_mutation(self):
        """Regression: the base-IDB cache used to survive EDB updates,
        so answers computed after an ``add_fact`` reflected the stale
        materialization."""
        parsed = parse_program(self.PROGRAM)
        db = Database.from_facts({"wire": [("a", "b")]})
        engine = Engine(parsed.program, db)
        before = engine.query("conn(a, Y)?", strategy="separable").answers
        assert ("a", "c") not in before
        db.add_fact("wire", ("b", "c"))
        after = engine.query("conn(a, Y)?", strategy="separable").answers
        assert ("a", "c") in after

    def test_cache_invalidated_for_every_strategy(self):
        parsed = parse_program(self.PROGRAM)
        db = Database.from_facts({"wire": [("a", "b")]})
        # counting is excluded: the symmetric link rules make the data
        # cyclic, which that method rejects by design.
        for strategy in ("magic", "seminaive", "naive"):
            engine = Engine(parsed.program, db.copy())
            engine.query("conn(a, Y)?", strategy=strategy)
            engine.edb.add_fact("wire", ("b", "c"))
            answers = engine.query(
                "conn(a, Y)?", strategy=strategy
            ).answers
            assert ("a", "c") in answers, strategy

    def test_cache_kept_when_edb_unchanged(self):
        parsed = parse_program(self.PROGRAM)
        db = Database.from_facts({"wire": [("a", "b")]})
        engine = Engine(parsed.program, db)
        engine.query("conn(a, Y)?", strategy="separable")
        first = engine._base_db["conn"]
        # A duplicate insert is a no-op and must not bust the cache.
        db.add_fact("wire", ("a", "b"))
        engine.query("conn(b, Y)?", strategy="separable")
        assert engine._base_db["conn"] is first

    def test_fingerprint_tracks_mutation(self):
        db = Database.from_facts({"wire": [("a", "b")]})
        fp = db.fingerprint()
        assert db.fingerprint() == fp
        db.add_fact("wire", ("a", "b"))  # duplicate: no change
        assert db.fingerprint() == fp
        db.add_fact("wire", ("b", "c"))
        assert db.fingerprint() != fp


class TestDatabaseSharing:
    def test_nothing_to_materialize_joins_on_the_edb_itself(self, example_1_1):
        """No base IDB: no private copy, so the indexes the joins build
        stay with the EDB's relations (a second engine finds them) and
        a later mutation is still seen."""
        program, db = example_1_1
        engine = Engine(program, db)
        cold = Tracer()
        before = engine.query(
            "buys(tom, Y)?", strategy="separable", tracer=cold
        ).answers
        assert engine._base_db["buys"] is db

        def indexes_of(p) -> dict:  # plain and projected together
            rel = db.relation(p)
            return {**rel._indexes, **rel._projected}

        built = {p: indexes_of(p) for p in db.predicates()}
        assert any(built.values())
        assert any(db.relation(p)._projected for p in db.predicates())
        warm = Tracer()
        again = Engine(program, db).query(
            "buys(tom, Y)?", strategy="separable", tracer=warm
        )
        assert again.answers == before
        # Only the query's own carry/seen relations are indexed anew.
        assert warm.counter_total("index_builds") \
            < cold.counter_total("index_builds")
        for p, indexes in built.items():
            now = indexes_of(p)
            assert now.keys() == indexes.keys()
            assert all(now[k] is indexes[k] for k in indexes)
        db.add_fact("perfectFor", ("tom", "brand_new"))
        after = engine.query("buys(tom, Y)?", strategy="separable").answers
        assert after == before | {("tom", "brand_new")}

    def test_materialization_still_gets_a_private_copy(self):
        parsed = parse_program(TestBaseMaterialization.PROGRAM)
        db = Database.from_facts({"wire": [("a", "b")]})
        engine = Engine(parsed.program, db)
        engine.query("conn(a, Y)?", strategy="separable")
        assert engine._base_db["conn"] is not db
        assert "link" not in db

    @staticmethod
    def _count_copies(monkeypatch) -> list:
        from repro.storage import SQLiteRelation

        copies: list = []
        real = SQLiteRelation.copy

        def counted(self):
            copies.append(self.name)
            return real(self)

        monkeypatch.setattr(SQLiteRelation, "copy", counted)
        return copies

    def test_temporary_sqlite_edb_is_read_in_place(
            self, example_1_1, monkeypatch):
        """Temporary mode is private by construction: like a memory EDB
        it is joined on directly -- frozen snapshot or live -- and keeps
        the SQL indexes the joins asked for."""
        program, db = example_1_1
        engine = Engine(program, db, backend="sqlite")
        snapshot = engine.edb.snapshot()
        copies = self._count_copies(monkeypatch)
        want = Engine(program, db).query("buys(tom, Y)?").answers
        for edb in (engine.edb, snapshot):
            reader = engine.with_edb(edb)
            cold, warm = Tracer(), Tracer()
            assert reader.query("buys(tom, Y)?", tracer=cold).answers == want
            assert reader._base_db["buys"] is edb
            assert engine.with_edb(edb).query(
                "buys(tom, Y)?", tracer=warm).answers == want
            assert warm.counter_total("index_builds") \
                < cold.counter_total("index_builds")
        assert copies == []

    def test_durable_sqlite_edb_keeps_the_scratch_copy(
            self, example_1_1, tmp_path):
        program, db = example_1_1
        engine = Engine(program, db, backend=f"sqlite:{tmp_path / 'e.db'}")
        for edb in (engine.edb, engine.edb.snapshot()):
            reader = engine.with_edb(edb)
            assert reader.query("buys(tom, Y)?").answers \
                == Engine(program, db).query("buys(tom, Y)?").answers
            assert reader._base_db["buys"] is not edb
            assert not any(rel._indexed for rel in
                           map(edb.relation, edb.predicates()))

    def test_sqlite_materialization_still_gets_a_private_copy(
            self, monkeypatch):
        parsed = parse_program(TestBaseMaterialization.PROGRAM)
        db = Database.from_facts({"wire": [("a", "b"), ("c", "b")]})
        engine = Engine(parsed.program, db, backend="sqlite")
        copies = self._count_copies(monkeypatch)
        result = engine.query("conn(a, Y)?", strategy="separable")
        assert result.answers == {("a", "b"), ("a", "c"), ("a", "a")}
        assert copies == ["wire"]
        assert engine._base_db["conn"] is not engine.edb
        assert engine.edb.predicates() == {"wire"}

    def test_sibling_engine_shares_the_analysis_not_the_data(
            self, example_1_1):
        program, db = example_1_1
        engine = Engine(program, db, order="cost")
        first = engine.query("buys(tom, Y)?")
        other_db = Database.from_facts({
            "friend": [("ann", "bob")], "idol": [],
            "perfectFor": [("bob", "kite")],
        })
        sibling = engine.with_edb(other_db)
        assert sibling.edb is other_db and sibling.order == "cost"
        assert sibling.report("buys") is engine.report("buys")
        result = sibling.query("buys(ann, Y)?")
        assert result.answers == {("ann", "kite")}
        assert result.plan is first.plan
        assert engine.query("buys(tom, Y)?").answers == first.answers


class TestErrors:
    def test_unknown_predicate(self, ex11_engine):
        engine, _, _ = ex11_engine
        with pytest.raises(UnknownPredicateError):
            engine.query("nothing(tom, Y)?")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_wrong_arity_under_every_strategy(self, ex11_engine, strategy):
        engine, _, _ = ex11_engine
        with pytest.raises(ArityError, match="buys used with arity 1 and 2"):
            engine.query("buys(tom)?", strategy=strategy)
        with pytest.raises(ArityError):
            engine.advise("buys(tom, Y, Z)?")

    def test_unknown_strategy(self, ex11_engine):
        engine, _, _ = ex11_engine
        with pytest.raises(ValueError, match="unknown strategy"):
            engine.query("buys(tom, Y)?", strategy="quantum")

    def test_separable_strategy_on_nonseparable(self):
        program = section_5_nonseparable_program()
        engine = Engine(program, Database())
        with pytest.raises(NotSeparableError):
            engine.query("t(c, Y)?", strategy="separable")

    def test_nodedup_requires_full_selection(self, example_2_4):
        program, db = example_2_4
        engine = Engine(program, db)
        with pytest.raises(NotFullSelectionError):
            engine.query("t(c, Y, Z)?", strategy="nodedup")

    def test_budget_propagates(self):
        program = parse_program(
            "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
        ).program
        db = Database.from_facts({"e": chain(60)})
        engine = Engine(program, db, budget=Budget(max_relation_tuples=5))
        with pytest.raises(BudgetExceeded):
            engine.query("tc(a0, Y)?", strategy="separable")


class TestQueryResult:
    def test_sorted_and_len(self, ex11_engine):
        engine, _, _ = ex11_engine
        result = engine.query("buys(tom, Y)?")
        assert len(result) == len(result.answers)
        assert result.sorted() == sorted(result.answers, key=repr)

    def test_accepts_atom_or_text(self, ex11_engine):
        engine, _, _ = ex11_engine
        from repro.datalog.parser import parse_query

        by_text = engine.query("buys(tom, Y)?")
        by_atom = engine.query(parse_query("buys(tom, Y)?"))
        assert by_text.answers == by_atom.answers

    def test_stats_strategy_recorded(self, ex11_engine):
        engine, _, _ = ex11_engine
        result = engine.query("buys(tom, Y)?", strategy="magic")
        assert result.stats.strategy == "magic"
