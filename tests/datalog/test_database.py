"""Unit tests for relations and databases (storage + lazy indexes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import atom
from repro.datalog.database import Database, Relation
from repro.datalog.errors import ArityError


class TestRelation:
    def test_add_and_contains(self):
        r = Relation("p", 2)
        assert r.add(("a", "b"))
        assert ("a", "b") in r
        assert len(r) == 1

    def test_add_duplicate_returns_false(self):
        r = Relation("p", 2, [("a", "b")])
        assert not r.add(("a", "b"))
        assert len(r) == 1

    def test_arity_enforced(self):
        r = Relation("p", 2)
        with pytest.raises(ArityError):
            r.add(("a",))

    def test_add_all_counts_new(self):
        r = Relation("p", 1)
        assert r.add_all([("a",), ("b",), ("a",)]) == 2

    def test_add_all_patches_live_indexes_once(self):
        r = Relation("p", 2, [("a", "b")])
        r.lookup((0,), ("a",))  # force index build
        assert r.add_all([("a", "z"), ("b", "c"), ("a", "b")]) == 2
        assert sorted(r.lookup((0,), ("a",))) == [("a", "b"), ("a", "z")]
        assert r.lookup((0,), ("b",)) == [("b", "c")]

    def test_add_all_arity_enforced(self):
        r = Relation("p", 2)
        with pytest.raises(ArityError):
            r.add_all([("a", "b"), ("c",)])

    def test_bulk_load_of_an_empty_relation(self):
        """Empty, unindexed, unobserved: ``add_all`` (and ``__init__``)
        load the whole batch at once -- same contents, count, version
        and ``ArityError`` as the per-fact path."""
        facts = [("a", "b"), ["c", "d"], ("a", "b")]
        loaded = Relation("p", 2, iter(facts))
        stepwise = Relation("p", 2)
        stepwise.observe(lambda *event: None)  # takes the per-fact path
        assert stepwise.add_all(facts) == 2
        assert loaded.tuples() == stepwise.tuples() \
            == {("a", "b"), ("c", "d")}
        assert loaded.version == stepwise.version == 2
        assert loaded.lookup((0,), ("c",)) == [("c", "d")]
        cleared = Relation("p", 2, [("x", "y")])
        cleared.lookup((0,), ("x",))
        cleared.clear()  # empty again, indexes dropped: bulk path
        assert cleared.add_all(frozenset(facts[:1])) == 1
        assert cleared.version == 3

    @pytest.mark.parametrize("wrap", [list, iter, tuple])
    def test_bulk_load_names_the_first_offending_tuple(self, wrap):
        facts = [("a", "b"), ("c",), ("d", "e", "f")]
        stepwise = Relation("p", 2, [("z", "z")])
        with pytest.raises(ArityError) as expected:
            stepwise.add_all(wrap(facts))
        empty = Relation("p", 2)
        with pytest.raises(ArityError) as caught:
            empty.add_all(wrap(facts))
        assert str(caught.value) == str(expected.value)
        assert "('c',)" in str(caught.value)
        assert len(empty) == 0 and empty.version == 0

    def test_add_all_bumps_version_by_new_count(self):
        r = Relation("p", 1, [("a",)])
        v = r.version
        assert r.add_all([("a",), ("b",), ("c",)]) == 2
        assert r.version == v + 2

    def test_add_all_empty_batch_keeps_version(self):
        r = Relation("p", 1, [("a",)])
        v = r.version
        assert r.add_all([("a",)]) == 0
        assert r.version == v

    def test_lookup_builds_index(self):
        r = Relation("p", 2, [("a", "b"), ("a", "c"), ("x", "y")])
        assert sorted(r.lookup((0,), ("a",))) == [("a", "b"), ("a", "c")]
        assert r.lookup((0,), ("zzz",)) == []

    def test_lookup_multi_column(self):
        r = Relation("p", 3, [("a", "b", "c"), ("a", "b", "d"), ("a", "x", "c")])
        assert sorted(r.lookup((0, 1), ("a", "b"))) == [
            ("a", "b", "c"),
            ("a", "b", "d"),
        ]

    def test_lookup_empty_positions_returns_all(self):
        r = Relation("p", 1, [("a",), ("b",)])
        assert sorted(r.lookup((), ())) == [("a",), ("b",)]

    def test_index_updated_after_add(self):
        r = Relation("p", 2, [("a", "b")])
        r.lookup((0,), ("a",))  # force index build
        r.add(("a", "z"))
        assert sorted(r.lookup((0,), ("a",))) == [("a", "b"), ("a", "z")]

    def test_zero_arity_relation(self):
        r = Relation("p", 0)
        assert r.add(())
        assert () in r
        assert r.lookup((), ()) == [()]

    def test_distinct_values(self):
        r = Relation("p", 2, [("a", "b"), ("b", "c")])
        assert r.distinct_values() == {"a", "b", "c"}

    def test_distinct_values_cached_until_mutation(self):
        r = Relation("p", 2, [("a", "b")])
        first = r.distinct_values()
        assert first is r.distinct_values()  # same frozenset, no rescan
        r.add(("c", "d"))
        assert r.distinct_values() == {"a", "b", "c", "d"}

    def test_distinct_values_cache_survives_clear(self):
        r = Relation("p", 1, [("a",)])
        r.distinct_values()
        r.clear()
        assert r.distinct_values() == frozenset()

    def test_distinct_values_cache_invalidated_by_discard(self):
        # Regression guard for the delete paths: PR 6's in-place index
        # patching must not leave a stale distinct cache behind.
        r = Relation("p", 2, [("a", "b"), ("b", "c")])
        assert r.distinct_values() == {"a", "b", "c"}
        r.discard(("b", "c"))
        assert r.distinct_values() == {"a", "b"}

    def test_distinct_values_cache_invalidated_by_discard_all(self):
        r = Relation("p", 2, [("a", "b"), ("b", "c"), ("c", "d")])
        assert r.distinct_values() == {"a", "b", "c", "d"}
        r.discard_all([("a", "b"), ("c", "d")])
        assert r.distinct_values() == {"b", "c"}

    def test_column_distinct_counts(self):
        r = Relation("p", 2, [("a", "x"), ("a", "y"), ("b", "x")])
        assert r.column_distinct_counts() == (2, 2)

    def test_column_distinct_counts_cached_until_mutation(self):
        r = Relation("p", 2, [("a", "x")])
        first = r.column_distinct_counts()
        assert first is r.column_distinct_counts()
        r.add(("b", "x"))
        assert r.column_distinct_counts() == (2, 1)
        r.discard(("b", "x"))
        assert r.column_distinct_counts() == (1, 1)

    def test_sample_deterministic_and_bounded(self):
        facts = [(f"t{i}", f"u{i}") for i in range(100)]
        r = Relation("p", 2, facts)
        first = r.sample(8)
        assert first is r.sample(8)  # cached per version
        assert len(first) == 8
        assert set(first) <= set(facts)
        # Content-hash ranked: a rebuilt relation samples identically.
        assert Relation("p", 2, facts).sample(8) == first

    def test_sample_small_relation_returns_everything(self):
        r = Relation("p", 1, [("b",), ("a",)])
        assert r.sample(32) == (("a",), ("b",))

    def test_sample_cache_invalidated_by_discard(self):
        facts = [(f"t{i}",) for i in range(50)]
        r = Relation("p", 1, facts)
        before = r.sample(4)
        r.discard_all(before)
        assert not set(r.sample(4)) & set(before)

    def test_clear(self):
        r = Relation("p", 1, [("a",)])
        r.lookup((0,), ("a",))
        r.clear()
        assert len(r) == 0
        assert r.lookup((0,), ("a",)) == []


class TestDatabase:
    def test_from_facts(self):
        db = Database.from_facts({"p": [("a", "b")], "q": [("c",)]})
        assert db.size("p") == 1
        assert db.arity("q") == 1

    def test_missing_relation_reads_empty(self):
        db = Database()
        assert db.tuples("nope") == frozenset()
        assert db.size("nope") == 0
        assert db.arity("nope") is None

    def test_ensure_conflicting_arity(self):
        db = Database.from_facts({"p": [("a", "b")]})
        with pytest.raises(ArityError):
            db.ensure("p", 3)

    def test_add_ground_atom(self):
        db = Database()
        db.add_ground_atom(atom("p", "a", 3))
        assert ("a", 3) in db.tuples("p")

    def test_add_non_ground_atom_rejected(self):
        db = Database()
        with pytest.raises(ValueError):
            db.add_ground_atom(atom("p", "X"))

    def test_copy_is_independent(self):
        db = Database.from_facts({"p": [("a",)]})
        other = db.copy()
        other.add_fact("p", ("b",))
        assert db.size("p") == 1
        assert other.size("p") == 2

    def test_copy_preserves_attach_aliasing(self):
        # Regression: copy() used to clone a relation once per *name*,
        # so a relation attached under two names became two unrelated
        # relations in the copy and writes through one alias vanished
        # from the other.
        db = Database()
        shared = Relation("p", 1, [("a",)])
        db.attach(shared)
        db.attach(shared, "alias")
        other = db.copy()
        assert other.relation("p") is other.relation("alias")
        other.add_fact("alias", ("b",))
        assert other.size("p") == 2
        # ... while the copy still shares nothing with the original.
        assert db.size("p") == 1
        assert shared.tuples() == frozenset({("a",)})

    def test_copy_keeps_distinct_relations_distinct(self):
        db = Database()
        db.attach(Relation("p", 1, [("a",)]))
        db.attach(Relation("q", 1, [("a",)]))
        other = db.copy()
        other.add_fact("p", ("b",))
        assert other.size("q") == 1

    def test_attach_shares_relation(self):
        db = Database()
        shared = Relation("p", 1, [("a",)])
        db.attach(shared)
        shared.add(("b",))
        assert db.size("p") == 2

    def test_attach_under_alias(self):
        db = Database()
        db.attach(Relation("p", 1, [("a",)]), "alias")
        assert db.size("alias") == 1

    def test_distinct_constants(self):
        db = Database.from_facts({"p": [("a", "b")], "q": [("b", "c")]})
        assert db.distinct_constants() == {"a", "b", "c"}

    def test_distinct_constants_cached_until_mutation(self):
        db = Database.from_facts({"p": [("a",)]})
        first = db.distinct_constants()
        assert first is db.distinct_constants()
        db.add_fact("p", ("b",))
        assert db.distinct_constants() == {"a", "b"}

    def test_distinct_constants_cache_sees_alias_mutation(self):
        # The fingerprint key covers mutations made through an attach()
        # alias in another database, same as the engine's caches.
        db = Database.from_facts({"p": [("a",)]})
        assert db.distinct_constants() == {"a"}
        view = Database()
        view.attach(db.relation("p"), "q")
        view.add_fact("q", ("b",))
        assert db.distinct_constants() == {"a", "b"}

    def test_total_tuples(self):
        db = Database.from_facts({"p": [("a",), ("b",)], "q": [("c", "d")]})
        assert db.total_tuples() == 3

    def test_predicates_and_contains(self):
        db = Database.from_facts({"p": [("a",)]})
        assert db.predicates() == {"p"}
        assert "p" in db
        assert "q" not in db


class TestVersioning:
    """Relation.version / Database.fingerprint drive the Engine's
    base-materialization cache invalidation."""

    def test_version_bumps_on_new_fact_only(self):
        rel = Relation("p", 2)
        v0 = rel.version
        assert rel.add(("a", "b"))
        assert rel.version > v0
        v1 = rel.version
        assert not rel.add(("a", "b"))  # duplicate
        assert rel.version == v1

    def test_version_bumps_on_clear(self):
        rel = Relation("p", 1, [("a",)])
        v = rel.version
        rel.clear()
        assert rel.version > v

    def test_fingerprint_is_order_insensitive(self):
        a = Database.from_facts({"p": [("a",)], "q": [("b",)]})
        b = Database()
        b.ensure("q", 1)
        b.ensure("p", 1)
        b.add_fact("q", ("b",))
        b.add_fact("p", ("a",))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_on_mutation(self):
        db = Database.from_facts({"p": [("a",)]})
        fp = db.fingerprint()
        db.add_fact("p", ("b",))
        assert db.fingerprint() != fp

    def test_fingerprint_sees_new_relation(self):
        db = Database.from_facts({"p": [("a",)]})
        fp = db.fingerprint()
        db.ensure("q", 2)
        assert db.fingerprint() != fp

    def test_fingerprint_sees_mutation_through_alias(self):
        # attach() shares the Relation object, so a fact added through
        # the alias bumps the one shared version counter -- and the
        # fingerprint must change under *both* names.
        db = Database.from_facts({"p": [("a", "b")]})
        rel = db.relation("p")
        db.attach(rel, "view")
        fp = db.fingerprint()
        db.add_fact("view", ("c", "d"))
        assert db.fingerprint() != fp
        assert ("c", "d") in db.tuples("p")

    def test_fingerprint_sees_alias_mutated_in_other_database(self):
        # The sharing crosses Database objects too: a view database
        # mutating an attached relation invalidates the owner's
        # fingerprint (this is what keeps Engine caches honest when
        # evaluators build _with_pseudo-style views).
        owner = Database.from_facts({"p": [("a",)]})
        view = Database()
        view.attach(owner.relation("p"), "q")
        fp = owner.fingerprint()
        view.add_fact("q", ("b",))
        assert owner.fingerprint() != fp


class TestAliasCacheInvalidation:
    """Engine base-IDB caches must notice mutations made through an
    attach() alias of an EDB relation."""

    def test_engine_recomputes_after_alias_mutation(self):
        from repro.datalog.parser import parse_program
        from repro.engine import Engine

        parsed = parse_program(
            "tc(X, Y) :- e(X, Y).\n"
            "tc(X, Y) :- e(X, W) & tc(W, Y).\n"
            "e(a, b)."
        )
        engine = Engine(parsed.program, parsed.database)
        first = engine.query("tc(a, Y)?", strategy="seminaive")
        assert first.answers == frozenset({("a", "b")})

        alias = Database()
        alias.attach(parsed.database.relation("e"), "edges")
        alias.add_fact("edges", ("b", "c"))

        second = engine.query("tc(a, Y)?", strategy="seminaive")
        assert second.answers == frozenset({("a", "b"), ("a", "c")})


class TestDiscard:
    def test_discard_removes_and_reports(self):
        rel = Relation("p", 2, [("a", "b"), ("c", "d")])
        assert rel.discard(("a", "b"))
        assert ("a", "b") not in rel
        assert len(rel) == 1

    def test_discard_absent_is_a_noop(self):
        rel = Relation("p", 2, [("a", "b")])
        v = rel.version
        assert not rel.discard(("x", "y"))
        assert rel.version == v

    def test_discard_enforces_arity(self):
        rel = Relation("p", 2)
        with pytest.raises(ArityError):
            rel.discard(("a",))

    def test_discard_bumps_version(self):
        rel = Relation("p", 1, [("a",)])
        v = rel.version
        rel.discard(("a",))
        assert rel.version > v

    def test_discard_patches_live_indexes(self):
        rel = Relation("p", 2, [("a", "b"), ("a", "c"), ("d", "e")])
        assert sorted(rel.lookup((0,), ("a",))) == [
            ("a", "b"), ("a", "c"),
        ]
        rel.discard(("a", "b"))
        # Same index object, no rebuild: the bucket was patched.
        assert rel.lookup((0,), ("a",)) == [("a", "c")]
        rel.discard(("a", "c"))
        assert rel.lookup((0,), ("a",)) == []
        assert rel.lookup((0,), ("d",)) == [("d", "e")]

    def test_discard_all_counts_present_only(self):
        rel = Relation("p", 1, [("a",), ("b",)])
        assert rel.discard_all([("a",), ("z",), ("b",)]) == 2
        assert len(rel) == 0

    def test_discard_all_bumps_version_once_per_batch(self):
        # Mirrors add_all: one += len(removed) batch increment, so the
        # fingerprint arithmetic matches a per-fact discard loop without
        # paying per-fact observer/index walks.
        rel = Relation("p", 1, [("a",), ("b",), ("c",)])
        v = rel.version
        assert rel.discard_all([("a",), ("z",), ("b",)]) == 2
        assert rel.version == v + 2
        assert rel.discard_all([("q",)]) == 0
        assert rel.version == v + 2

    def test_discard_all_patches_live_indexes_once(self):
        rel = Relation("p", 2, [("a", "b"), ("a", "c"), ("d", "e")])
        rel.lookup((0,), ("a",))  # force index build
        assert rel.discard_all([("a", "b"), ("a", "c"), ("x", "y")]) == 2
        assert rel.lookup((0,), ("a",)) == []
        assert rel.lookup((0,), ("d",)) == [("d", "e")]

    def test_discard_all_fires_observer_per_removed_fact(self):
        rel = Relation("p", 1, [("a",), ("b",)])
        events = []
        rel.observe(lambda r, f, s: events.append((f, s)))
        rel.discard_all([("a",), ("z",), ("b",)])
        assert events == [(("a",), -1), (("b",), -1)]

    def test_discard_all_arity_enforced(self):
        rel = Relation("p", 2)
        with pytest.raises(ArityError):
            rel.discard_all([("a", "b"), ("a",)])

    def test_database_remove_fact(self):
        db = Database.from_facts({"p": [("a",)]})
        assert db.remove_fact("p", ("a",))
        assert not db.remove_fact("p", ("a",))
        assert not db.remove_fact("missing", ("a",))


class TestAdoptIndexes:
    """``adopt_indexes``: a near-copy inherits indexes, patched by the
    difference, sharing every untouched bucket."""

    FACTS = [("a", "b"), ("a", "c"), ("d", "e"), ("f", "e"), ("g", "h")] \
        + [(f"s{i}", f"t{i}") for i in range(15)]

    def _indexed(self) -> Relation:
        old = Relation("p", 2, self.FACTS)
        old.lookup((0,), ("a",))
        old.lookup((1,), ("e",))
        return old

    @staticmethod
    def _as_sets(index: dict) -> dict:
        return {k: sorted(v) for k, v in index.items()}

    def test_patched_indexes_equal_fresh_ones(self):
        old = self._indexed()
        new = old.copy()
        new.discard(("a", "b"))      # bucket shrinks
        new.discard(("g", "h"))      # bucket disappears
        new.add(("a", "z"))          # bucket grows
        new.add(("x", "y"))          # bucket appears
        new.adopt_indexes(old)
        fresh = Relation("p", 2, new.tuples())
        for positions in ((0,), (1,)):
            fresh.lookup(positions, ("?",))
            assert self._as_sets(new._indexes[positions]) == \
                self._as_sets(fresh._indexes[positions])
        # ... and the lender's are what they were.
        assert sorted(old.lookup((0,), ("a",))) == [("a", "b"), ("a", "c")]
        assert old.lookup((0,), ("g",)) == [("g", "h")]
        assert old.lookup((0,), ("x",)) == []

    def test_untouched_buckets_are_shared_and_nothing_is_rebuilt(self):
        from repro.observability import Tracer

        old = self._indexed()
        new = old.copy()
        new.add(("a", "z"))
        new.adopt_indexes(old)
        assert new._indexes[(0,)][("d",)] is old._indexes[(0,)][("d",)]
        assert new._indexes[(0,)][("a",)] is not old._indexes[(0,)][("a",)]
        tracer = Tracer()
        assert sorted(new.lookup((0,), ("a",), tracer)) == [
            ("a", "b"), ("a", "c"), ("a", "z"),
        ]
        assert tracer.counter_total("index_builds") == 0

    @pytest.mark.parametrize("who", ["adopter", "lender"])
    def test_mutation_after_sharing_never_patches_a_shared_bucket(self, who):
        old = self._indexed()
        new = old.copy()
        new.adopt_indexes(old)
        mutated, other = (new, old) if who == "adopter" else (old, new)
        mutated.add(("d", "q"))
        mutated.discard(("f", "e"))
        assert sorted(mutated.lookup((0,), ("d",))) == [("d", "e"), ("d", "q")]
        assert mutated.lookup((1,), ("e",)) == [("d", "e")]
        assert other.lookup((0,), ("d",)) == [("d", "e")]
        assert sorted(other.lookup((1,), ("e",))) == [("d", "e"), ("f", "e")]
        # Its indexes are its own again: the next patch is in place.
        bucket = mutated.lookup((0,), ("d",))
        mutated.add(("d", "r"))
        assert mutated.lookup((0,), ("d",)) is bucket

    def test_bulk_mutation_after_sharing(self):
        old = self._indexed()
        new = old.copy()
        new.adopt_indexes(old)
        new.add_all([("d", "q"), ("d", "r")])
        new.discard_all([("d", "e")])
        assert sorted(new.lookup((0,), ("d",))) == [("d", "q"), ("d", "r")]
        assert old.lookup((0,), ("d",)) == [("d", "e")]

    def test_mostly_different_or_other_arity_adopts_nothing(self):
        old = self._indexed()
        other = Relation("p", 2, [("a", "b"), ("u", "v"), ("w", "x")])
        other.adopt_indexes(old)
        assert other._indexes == {} and not old._borrowed
        unary = Relation("p", 1, [("a",)])
        unary.adopt_indexes(old)
        assert unary._indexes == {}


class TestProjectedLookup:
    """``lookup_projected(P, C, k)`` is ``{project_C(f) for f in
    lookup(P, k)}``, kept so by every mutation and copy."""

    #: (positions, cols) signatures of an arity-3 relation, each
    #: determining the fact; cols may reorder, repeat and overlap.
    SIGNATURES = [
        ((0,), (1, 2)), ((0,), (2, 1)), ((1, 2), (0,)), ((2,), (0, 1, 0)),
        ((0, 1, 2), ()), ((1,), (0, 1, 2)), ((), (2, 0, 1)),
    ]
    VALUES = range(3)
    FACT = st.tuples(*[st.sampled_from(VALUES)] * 3)
    OPS = st.lists(st.one_of(
        st.tuples(st.sampled_from(["add", "discard"]), FACT),
        st.tuples(st.sampled_from(["add_all", "discard_all"]),
                  st.lists(FACT, max_size=5)),
        st.tuples(st.sampled_from(
            ["clear", "copy", "snapshot", "adopt", "read"]),
            st.none()),
    ), max_size=14)

    @classmethod
    def check(cls, rel: Relation, model: set) -> None:
        import itertools

        assert rel.tuples() == model
        for positions, cols in cls.SIGNATURES:
            for key in itertools.product(cls.VALUES, repeat=len(positions)):
                rows = rel.lookup_projected(positions, cols, key)
                assert rows == {
                    tuple(f[c] for c in cols)
                    for f in rel.lookup(positions, key)
                } == {
                    tuple(f[c] for c in cols) for f in model
                    if tuple(f[p] for p in positions) == key
                }
                assert len(rows) == len(rel.lookup(positions, key))

    @settings(max_examples=150, deadline=None)
    @given(initial=st.lists(FACT, max_size=27), ops=OPS)
    def test_every_interleaving_keeps_the_law(self, initial, ops):
        rel, model = Relation("p", 3, initial), set(initial)
        others = []  # what a copy or an adoption left behind
        for op, arg in ops:
            if op in ("add", "discard"):
                assert getattr(rel, op)(arg) == (
                    (arg in model) == (op == "discard"))
                (model.add if op == "add" else model.discard)(arg)
            elif op == "add_all":
                assert rel.add_all(arg) == len(set(arg) - model)
                model |= set(arg)
            elif op == "discard_all":
                assert rel.discard_all(arg) == len(set(arg) & model)
                model -= set(arg)
            elif op == "clear":
                rel.clear()
                model.clear()
            elif op == "read":
                self.check(rel, model)  # builds every index
            else:
                others.append((rel, set(model)))
                if op == "adopt":
                    self.check(rel, model)  # there are indexes to adopt
                    gone = min(model, default=(2, 1, 0))
                    new = rel.copy()
                    new.discard(gone)
                    new.add((0, 1, 2))
                    new.adopt_indexes(rel)
                    model = (model - {gone}) | {(0, 1, 2)}
                    rel = new
                else:
                    rel = getattr(rel, op)()
                    assert not rel._projected
        for each, expected in others + [(rel, model)]:
            self.check(each, expected)

    def test_build_is_lazy_counted_and_shares_equal_rows(self):
        from repro.observability import Tracer

        rel = Relation("p", 3, [("a", "x", "y"), ("b", "x", "y"),
                                ("b", "u", "v")])
        tracer = Tracer()
        a = rel.lookup_projected((0,), (1, 2), ("a",), tracer)
        b = rel.lookup_projected((0,), (1, 2), ("b",), tracer)
        assert tracer.counter_total("index_builds") == 1
        assert tracer.counter_total("index_tuples") == 3
        assert not rel._indexes  # the plain index is not needed for it
        (row,) = a
        assert any(row is other for other in b)  # one object, two buckets
        assert rel.lookup_projected((0,), (1, 2), ("zz",)) == set()
        assert rel.lookup_projected((), (2, 0, 1), (), tracer) == {
            ("y", "a", "x"), ("y", "b", "x"), ("v", "b", "u")}
        assert tracer.counter_total("full_scans") == 1

    def test_a_projection_that_loses_a_column_is_refused(self):
        rel = Relation("p", 3, [("a", "x", "y")])
        with pytest.raises(ValueError, match="do not determine the fact"):
            rel.lookup_projected((0,), (1,), ("a",))
        assert not rel._projected

    def test_mutations_patch_the_projected_index_in_place(self):
        rel = Relation("p", 2, [("a", "b"), ("a", "c"), ("d", "e")])
        bucket = rel.lookup_projected((0,), (1,), ("a",))
        rel.add(("a", "z"))
        rel.discard(("a", "b"))
        rel.add_all([("a", "y"), ("q", "r")])
        rel.discard_all([("a", "c"), ("d", "e")])
        assert rel.lookup_projected((0,), (1,), ("a",)) is bucket
        assert bucket == {("z",), ("y",)}
        assert rel._projected[(0,), (1,)].keys() == {("a",), ("q",)}

    @pytest.mark.parametrize("who", ["adopter", "lender"])
    def test_mutation_after_sharing_never_patches_a_shared_bucket(self, who):
        """The fault case of ``adopt_indexes``: a write on either side
        between the adoption and the next read."""
        facts = TestAdoptIndexes.FACTS
        old = Relation("p", 2, facts)
        old.lookup_projected((0,), (1,), ("a",))
        old.lookup((1,), ("e",))
        new = old.copy()
        new.add(("a", "z"))
        new.discard(("s0", "t0"))
        new.discard(("a", "b"))
        new.adopt_indexes(old)
        shared = new._projected[(0,), (1,)]
        assert shared[("d",)] is old._projected[(0,), (1,)][("d",)]
        assert shared[("a",)] == {("c",), ("z",)} and ("s0",) not in shared
        assert old._projected[(0,), (1,)][("a",)] == {("b",), ("c",)}
        assert old._projected[(0,), (1,)][("s0",)] == {("t0",)}
        mutated, other = (new, old) if who == "adopter" else (old, new)
        buckets = dict(other._projected[(0,), (1,)])
        contents = {k: set(v) for k, v in buckets.items()}
        mutated.add(("d", "q"))
        mutated.discard(("f", "e"))
        mutated.add_all([("d", "r"), ("n", "m")])
        mutated.discard_all([("g", "h")])
        after = other._projected[(0,), (1,)]
        assert after.keys() == buckets.keys()
        assert all(after[k] is buckets[k] for k in buckets)
        assert {k: set(v) for k, v in after.items()} == contents
        assert mutated.lookup_projected((0,), (1,), ("d",)) == {
            ("e",), ("q",), ("r",)}
        assert mutated.lookup_projected((0,), (1,), ("g",)) == set()
        assert other.lookup_projected((0,), (1,), ("d",)) == {("e",)}
        assert other.lookup_projected((0,), (1,), ("g",)) == {("h",)}
        assert sorted(other.lookup((1,), ("e",))) == [("d", "e"), ("f", "e")]


class TestObservers:
    def test_add_discard_clear_events(self):
        rel = Relation("p", 1)
        events = []
        rel.observe(lambda r, f, s: events.append((r.name, f, s)))
        rel.add(("a",))
        rel.add(("a",))            # duplicate: no event
        rel.discard(("a",))
        rel.discard(("a",))        # absent: no event
        rel.clear()
        assert events == [
            ("p", ("a",), 1), ("p", ("a",), -1), ("p", None, 0),
        ]

    def test_add_all_fires_per_new_fact(self):
        rel = Relation("p", 1, [("a",)])
        events = []
        rel.observe(lambda r, f, s: events.append((f, s)))
        rel.add_all([("a",), ("b",), ("c",)])
        assert events == [(("b",), 1), (("c",), 1)]

    def test_unobserve_bound_method_by_equality(self):
        # A bound method is a fresh object on every attribute access;
        # unobserve must match by equality or detach silently fails.
        class Sink:
            def __init__(self):
                self.events = []

            def on_event(self, rel, fact, sign):
                self.events.append((fact, sign))

        sink = Sink()
        rel = Relation("p", 1)
        rel.observe(sink.on_event)
        rel.add(("a",))
        rel.unobserve(sink.on_event)
        rel.add(("b",))
        assert sink.events == [(("a",), 1)]

    def test_database_observe_covers_future_relations(self):
        db = Database.from_facts({"p": [("a",)]})
        events = []
        db.observe(lambda r, f, s: events.append((r.name, f, s)))
        db.add_fact("p", ("b",))
        db.add_fact("q", ("x",))   # relation created after observe()
        assert events == [("p", ("b",), 1), ("q", ("x",), 1)]

    def test_database_attach_emits_reset(self):
        db = Database.from_facts({"p": [("a",)]})
        events = []
        db.observe(lambda r, f, s: events.append(s))
        db.attach(Relation("q", 1, [("x",)]), "q")
        assert 0 in events  # a mounted foreign extent is not a delta

    def test_copy_does_not_inherit_observers(self):
        db = Database.from_facts({"p": [("a",)]})
        events = []
        db.observe(lambda r, f, s: events.append(s))
        clone = db.copy()
        clone.add_fact("p", ("b",))
        assert events == []


class TestFingerprintCache:
    """The cached fingerprint must be indistinguishable from a fresh
    recomputation after arbitrary mutation sequences."""

    @staticmethod
    def _recompute(db):
        return tuple(
            (name, rel.arity, rel.version)
            for name, rel in sorted(db._relations.items())
        )

    def test_cached_equals_recomputed_after_mutations(self):
        db = Database.from_facts({"p": [("a",)], "q": [("x", "y")]})
        steps = [
            lambda: db.add_fact("p", ("b",)),
            lambda: db.remove_fact("p", ("a",)),
            lambda: db.add_fact("r", ("z",)),          # new relation
            lambda: db.relation("q").clear(),
            lambda: db.add_fact("q", ("x", "y")),
            lambda: db.ensure("s", 3),                 # empty relation
            lambda: db.attach(Relation("t", 1, [("w",)]), "t"),
            lambda: db.remove_fact("r", ("z",)),
        ]
        for step in steps:
            step()
            assert db.fingerprint() == self._recompute(db), step
            # And again: the second read is the cached path.
            assert db.fingerprint() == self._recompute(db)

    def test_repeated_reads_hit_the_cache(self):
        db = Database.from_facts({"p": [("a",)]})
        first = db.fingerprint()
        assert db.fingerprint() is first  # same cached tuple object

    def test_ensure_existing_does_not_invalidate(self):
        db = Database.from_facts({"p": [("a",)]})
        first = db.fingerprint()
        db.ensure("p", 1)
        assert db.fingerprint() is first

    def test_discard_is_visible_through_the_cache(self):
        # discard bumps the version, so the version-sum check must
        # reject the cached tuple even though membership shrank.
        db = Database.from_facts({"p": [("a",), ("b",)]})
        fp = db.fingerprint()
        db.remove_fact("p", ("b",))
        assert db.fingerprint() != fp
