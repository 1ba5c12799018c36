"""Backend conformance: every storage backend, one behavioural contract.

Each test runs against every registered backend (the in-memory
reference and SQLite) through the same ``RelationStorage`` surface the
evaluators use.  The point is byte-level interchangeability: versions,
observer events and planner statistics must be identical no
matter where the tuples live, because the differential oracle and the
bench gates compare them across backends.
"""

import pytest

from repro.datalog.database import Database, Relation
from repro.datalog.errors import ArityError
from repro.observability import Tracer
from repro.storage import (
    BACKENDS,
    MemoryBackend,
    ReadOnlyRelationError,
    RelationStorage,
    StorageBackend,
    resolve_backend,
)


@pytest.fixture(params=list(BACKENDS))
def backend(request):
    return resolve_backend(request.param)


@pytest.fixture(params=["memory", "sqlite", "sqlite:path"])
def store(request, tmp_path):
    """Every backend *mode*: the two registered ones plus a durable file."""
    spec = request.param
    if spec == "sqlite:path":
        spec = f"sqlite:{tmp_path / 'relations.db'}"
    return resolve_backend(spec)


def make(backend, name="p", arity=2, tuples=()):
    return backend.make_relation(name, arity, tuples)


class TestProtocol:
    def test_backend_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_relation_satisfies_protocol(self, backend):
        assert isinstance(make(backend), RelationStorage)

    def test_memory_backend_makes_plain_relations(self):
        rel = MemoryBackend().make_relation("p", 2, [("a", "b")])
        assert type(rel) is Relation


class TestMutation:
    def test_add_contains_len(self, backend):
        rel = make(backend)
        assert rel.add(("a", "b"))
        assert not rel.add(("a", "b"))
        assert ("a", "b") in rel
        assert ("b", "a") not in rel
        assert len(rel) == 1 and bool(rel)

    def test_discard(self, backend):
        rel = make(backend, tuples=[("a", "b"), ("c", "d")])
        assert rel.discard(("a", "b"))
        assert not rel.discard(("a", "b"))
        assert rel.tuples() == frozenset([("c", "d")])

    def test_clear(self, backend):
        rel = make(backend, tuples=[("a", "b")])
        rel.clear()
        assert len(rel) == 0 and not bool(rel)

    def test_bulk_counts_effective_rows_only(self, backend):
        rel = make(backend, arity=1, tuples=[("a",)])
        assert rel.add_all([("a",), ("b",), ("c",), ("b",)]) == 2
        assert rel.discard_all([("b",), ("z",), ("c",)]) == 2
        assert rel.tuples() == frozenset([("a",)])

    def test_arity_enforced_everywhere(self, backend):
        rel = make(backend)
        for op in (rel.add, rel.discard):
            with pytest.raises(ArityError):
                op(("a",))
        for op in (rel.add_all, rel.discard_all):
            with pytest.raises(ArityError):
                op([("a", "b"), ("a",)])

    def test_iteration_snapshot(self, backend):
        rel = make(backend, arity=1, tuples=[("a",), ("b",)])
        assert sorted(rel) == [("a",), ("b",)]
        assert rel.tuples() == frozenset([("a",), ("b",)])


class TestVersioning:
    def test_single_ops_bump_once_noops_not_at_all(self, backend):
        rel = make(backend, arity=1)
        v = rel.version
        rel.add(("a",))
        assert rel.version == v + 1
        rel.add(("a",))
        assert rel.version == v + 1
        rel.discard(("a",))
        assert rel.version == v + 2
        rel.discard(("a",))
        assert rel.version == v + 2
        rel.clear()
        assert rel.version == v + 3

    def test_bulk_ops_bump_by_effective_count(self, backend):
        # One version bump per effective row, applied as a single batch
        # increment -- Database.fingerprint() sums versions, so both
        # backends must agree on the arithmetic, not just monotonicity.
        rel = make(backend, arity=1, tuples=[("a",)])
        v = rel.version
        rel.add_all([("a",), ("b",), ("c",)])
        assert rel.version == v + 2
        rel.add_all([])
        assert rel.version == v + 2
        rel.discard_all([("b",), ("c",), ("z",)])
        assert rel.version == v + 4

    def test_fingerprint_identical_across_backends(self, backend):
        facts = {"e": [("a", "b"), ("b", "c")], "v": [("a",)]}
        reference = Database.from_facts(facts)
        db = Database.from_facts(facts, backend=backend)
        assert db.fingerprint() == reference.fingerprint()
        db.add_fact("e", ("c", "d"))
        reference.add_fact("e", ("c", "d"))
        assert db.fingerprint() == reference.fingerprint()


class TestObservers:
    def test_event_stream_matches_reference_semantics(self, backend):
        rel = make(backend, arity=1)
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

    def test_bulk_ops_fire_per_effective_fact(self, backend):
        rel = make(backend, arity=1, tuples=[("a",)])
        events = []
        rel.observe(lambda r, f, s: events.append((f, s)))
        rel.add_all([("a",), ("b",), ("c",)])
        rel.discard_all([("c",), ("z",)])
        assert events == [(("b",), 1), (("c",), 1), (("c",), -1)]

    def test_unobserve_bound_method_by_equality(self, backend):
        class Sink:
            def __init__(self):
                self.events = []

            def on_event(self, rel, fact, sign):
                self.events.append((fact, sign))

        sink = Sink()
        rel = make(backend, arity=1)
        rel.observe(sink.on_event)
        rel.add(("a",))
        rel.unobserve(sink.on_event)
        rel.add(("b",))
        assert sink.events == [(("a",), 1)]


class TestLookup:
    def test_lookup_matches_projection(self, backend):
        rel = make(backend, tuples=[("a", "b"), ("a", "c"), ("d", "e")])
        assert sorted(rel.lookup((0,), ("a",))) == [("a", "b"), ("a", "c")]
        assert rel.lookup((1,), ("e",)) == [("d", "e")]
        assert rel.lookup((0, 1), ("d", "e")) == [("d", "e")]
        assert rel.lookup((0,), ("zz",)) == []

    def test_empty_positions_full_scan(self, backend):
        rel = make(backend, tuples=[("a", "b"), ("c", "d")])
        tracer = Tracer()
        assert sorted(rel.lookup((), ())) == [("a", "b"), ("c", "d")]
        rel.lookup((), (), tracer=tracer)
        assert tracer.counter_total("full_scans") == 1
        assert tracer.counter_total("index_builds") == 0

    def test_index_built_lazily_once_per_column_set(self, backend):
        rel = make(backend, tuples=[("a", "b"), ("c", "d"), ("a", "e")])
        tracer = Tracer()
        rel.lookup((0,), ("a",), tracer=tracer)
        assert tracer.counter_total("index_builds") == 1
        assert tracer.counter_total("index_tuples") == 3
        rel.lookup((0,), ("c",), tracer=tracer)
        assert tracer.counter_total("index_builds") == 1  # cached
        rel.lookup((1,), ("d",), tracer=tracer)
        assert tracer.counter_total("index_builds") == 2

    def test_lookup_sees_mutations_after_index_build(self, backend):
        rel = make(backend, tuples=[("a", "b")])
        rel.lookup((0,), ("a",))
        rel.add_all([("a", "z"), ("q", "r")])
        rel.discard(("a", "b"))
        assert rel.lookup((0,), ("a",)) == [("a", "z")]
        assert rel.lookup((0,), ("q",)) == [("q", "r")]


class TestProjectedLookup:
    """``lookup_projected(P, C, k) == {project_C(f) for f in lookup(P,
    k)}`` wherever the tuples live."""

    FACTS = [("a", "x", 1), ("a", "y", 2), ("b", "x", 1), ("c", "z", 3)]
    SIGNATURES = [((0,), (1, 2)), ((0,), (2, 1)), ((1, 2), (0,)),
                  ((2,), (0, 1, 0)), ((0, 1, 2), ()), ((), (2, 0, 1))]

    @classmethod
    def check(cls, rel, facts) -> None:
        for positions, cols in cls.SIGNATURES:
            for key in {tuple(f[p] for p in positions)
                        for f in cls.FACTS} | {("nope",) * len(positions)}:
                rows = rel.lookup_projected(positions, cols, key)
                assert isinstance(rows, set)
                assert rows == {
                    tuple(f[c] for c in cols)
                    for f in rel.lookup(positions, key)
                } == {
                    tuple(f[c] for c in cols) for f in facts
                    if tuple(f[p] for p in positions) == key
                }

    def test_law_holds_through_mutations_and_snapshots(self, store):
        rel = make(store, arity=3, tuples=self.FACTS)
        facts = set(self.FACTS)
        self.check(rel, facts)
        rel.add(("q", "r", 9))
        rel.add_all([("a", "z", 3), ("a", "x", 1)])
        rel.discard(("b", "x", 1))          # empties the bucket of b
        rel.discard_all([("a", "y", 2), ("never", "there", 0)])
        facts = (facts | {("q", "r", 9), ("a", "z", 3)}) \
            - {("b", "x", 1), ("a", "y", 2)}
        self.check(rel, facts)
        frozen = rel.snapshot()             # read-only on a durable file
        rel.add(("late", "x", 1))
        self.check(frozen, facts)
        self.check(rel.copy(), facts | {("late", "x", 1)})
        rel.clear()
        self.check(rel, set())

    def test_one_lazy_index_build_reported(self, store):
        rel = make(store, arity=3, tuples=self.FACTS)
        tracer = Tracer()
        rel.lookup_projected((0,), (1, 2), ("a",), tracer)
        rel.lookup_projected((0,), (1, 2), ("b",), tracer)
        assert tracer.counter_total("index_builds") == 1
        assert tracer.counter_total("index_tuples") == 4
        rel.lookup_projected((), (2, 0, 1), (), tracer)
        assert tracer.counter_total("full_scans") == 1
        assert tracer.counter_total("index_builds") == 1

    def test_only_projections_that_determine_the_fact(self, store):
        rel = make(store, arity=3, tuples=self.FACTS)
        with pytest.raises(ValueError):
            rel.lookup_projected((0,), (1,), ("a",))

    def test_arity_zero(self, store):
        rel = make(store, name="flag", arity=0)
        assert rel.lookup_projected((), (), ()) == set()
        rel.add(())
        assert rel.lookup_projected((), (), ()) == {()}


class TestPlannerStatistics:
    FACTS = [(f"x{i % 7}", f"y{i}") for i in range(40)]

    def test_statistics_identical_across_backends(self, backend):
        rel = make(backend, tuples=self.FACTS)
        reference = Relation("p", 2, self.FACTS)
        assert rel.distinct_values() == reference.distinct_values()
        assert rel.column_distinct_counts() \
            == reference.column_distinct_counts()
        # The crc32-minwise sample must be byte-identical: sampled
        # join-containment estimates feed the cost planner, and the
        # differential oracle runs it on both backends.
        assert rel.sample(8) == reference.sample(8)
        assert rel.sample(64) == reference.sample(64)

    def test_statistics_cached_per_version(self, backend):
        rel = make(backend, tuples=[("a", "b")])
        assert rel.sample() is rel.sample()
        first = rel.column_distinct_counts()
        assert rel.column_distinct_counts() is first
        rel.add(("c", "d"))
        assert rel.column_distinct_counts() == (2, 2)
        assert rel.distinct_values() == frozenset(["a", "b", "c", "d"])


class TestCopiesAndPickles:
    def test_copy_is_independent(self, backend):
        rel = make(backend, tuples=[("a", "b")])
        clone = rel.copy()
        clone.add(("c", "d"))
        rel.discard(("a", "b"))
        assert clone.tuples() == frozenset([("a", "b"), ("c", "d")])
        assert rel.tuples() == frozenset()

    def test_snapshot_reads_current_state(self, backend):
        rel = make(backend, tuples=[("a", "b")])
        snap = rel.snapshot()
        assert snap.tuples() == frozenset([("a", "b")])
        assert snap.version == rel.version

    def test_database_copy_preserves_aliasing(self, backend):
        db = Database.from_facts({"e": [("a", "b")]}, backend=backend)
        db.attach(db.relation("e"), "alias")
        clone = db.copy()
        clone.add_fact("alias", ("c", "d"))
        assert ("c", "d") in clone.tuples("e")
        assert ("c", "d") not in db.tuples("e")

    def test_with_backend_round_trip(self, backend):
        db = Database.from_facts({"e": [("a", "b")], "v": [("x",)]})
        db.attach(db.relation("e"), "alias")
        moved = db.with_backend(backend)
        assert moved.backend_name == backend.name
        assert moved.tuples("e") == db.tuples("e")
        assert moved.tuples("v") == db.tuples("v")
        moved.add_fact("alias", ("c", "d"))
        assert ("c", "d") in moved.tuples("e")
        back = moved.with_backend(None)
        assert back.backend_name == "memory"
        assert back.tuples("e") == moved.tuples("e")


class TestSnapshotReads:
    """A snapshot is read like its source -- same answers, same tracer
    accounting -- whether it is a copy that owns its rows (memory,
    temporary SQLite) or a ``mode=ro`` connection on a durable file."""

    FACTS = TestProjectedLookup.FACTS

    def test_answers_identical_to_source(self, store):
        rel = make(store, arity=3, tuples=self.FACTS)
        snap = rel.snapshot()
        assert snap.version == rel.version
        for _ in range(2):      # built, then from the cached probe
            TestProjectedLookup.check(snap, set(self.FACTS))
            for positions in [(0,), (1, 2), (0, 1, 2), ()]:
                for fact in self.FACTS + [("nope",) * 3]:
                    key = tuple(fact[p] for p in positions)
                    assert sorted(snap.lookup(positions, key)) \
                        == sorted(rel.lookup(positions, key))

    def test_index_and_scan_accounting(self, store):
        rel = make(store, arity=3, tuples=self.FACTS)
        snap = rel.snapshot()
        tracer = Tracer()
        for _ in range(3):
            snap.lookup((0,), ("a",), tracer)
        # A durable file's read-only connection creates no index.
        owned = 0 if getattr(store, "path", None) else 1
        assert tracer.counter_total("index_builds") == owned
        assert tracer.counter_total("index_tuples") == 4 * owned
        # The projected index is its own structure in memory, the same
        # SQL index (new text, nothing built) on SQLite.
        snap.lookup_projected((0,), (1, 2), ("a",), tracer)
        snap.lookup_projected((0,), (2, 1), ("a",), tracer)
        built = tracer.counter_total("index_builds")
        assert built == (owned if store.name == "sqlite" else 3)
        for _ in range(3):
            snap.lookup((0,), ("b",), tracer)
            snap.lookup_projected((0,), (1, 2), ("b",), tracer)
        assert tracer.counter_total("index_builds") == built
        # Unkeyed calls are full scans every time, cached text or not.
        for n in range(1, 4):
            snap.lookup((), (), tracer)
            snap.lookup_projected((), (2, 0, 1), (), tracer)
            assert tracer.counter_total("full_scans") == 2 * n

    def test_snapshot_rejects_every_mutator(self, store):
        rel = make(store, tuples=[("a", "b")])
        snap = rel.snapshot()
        snap.lookup((0,), ("a",))     # indexable all the same
        if store.name == "memory":
            # A plain private copy: writing it cannot reach the source.
            snap.clear()
            assert rel.tuples() == frozenset([("a", "b")])
            return
        for mutate in (lambda: snap.add(("c", "d")),
                       lambda: snap.add_all([("c", "d")]),
                       lambda: snap.discard(("a", "b")),
                       lambda: snap.discard_all([("a", "b")]),
                       snap.clear):
            with pytest.raises(ReadOnlyRelationError):
                mutate()
        assert snap.tuples() == rel.tuples() == frozenset([("a", "b")])

    def test_unchanged_relation_is_its_previous_snapshot(self, store):
        held = [("a", "b"), ("a", "c")] + [(f"x{i}", "y") for i in range(8)]
        rel = make(store, tuples=held)
        first = rel.snapshot()
        first.lookup((0,), ("a",))
        again = rel.snapshot(first)
        # A durable file pins a new connection per snapshot (a shared
        # one would hold its WAL read transaction open across writes).
        assert (again is first) == (getattr(store, "path", None) is None)
        rel.add(("b", "c"))
        moved = rel.snapshot(again)
        assert moved is not again and moved.version == rel.version
        assert again.tuples() == frozenset(held)
        tracer = Tracer()
        assert sorted(moved.lookup((0,), ("a",), tracer)) \
            == [("a", "b"), ("a", "c")]
        assert moved.lookup((0,), ("b",), tracer) == [("b", "c")]
        # In memory the fresh copy adopted the old indexes, patched
        # (the write moved less than a quarter of the relation).
        if store.name == "memory":
            assert tracer.counter_total("index_builds") == 0
