"""SQLite-backend specifics: durability, snapshots, spec resolution.

The conformance suite (``test_conformance.py``) pins the shared
protocol; these tests pin what only the out-of-core backend does --
the durable WAL file, pinned read-only snapshots, a frozen relation's
read-through probe buckets, the page copy of a temporary-mode
relation, the schema registry that makes reopening a file discover
its relations, and end-to-end answer equality through the engine.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import _probe
from repro.engine import Engine
from repro.service import QueryService, ServiceConfig
from repro.storage import (
    MemoryBackend,
    ReadOnlyRelationError,
    SQLiteBackend,
    SQLiteRelation,
    ensure_backend,
    resolve_backend,
)


class TestSpecResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_backend(None), MemoryBackend)
        assert isinstance(resolve_backend("memory"), MemoryBackend)
        assert isinstance(resolve_backend("sqlite"), SQLiteBackend)
        assert resolve_backend("sqlite").path is None

    def test_path_qualified_spec(self, tmp_path):
        target = tmp_path / "facts.db"
        backend = resolve_backend(f"sqlite:{target}")
        assert backend.path == str(target)

    def test_backend_objects_pass_through(self):
        backend = SQLiteBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("postgres")
        with pytest.raises(ValueError):
            resolve_backend(42)

    def test_ensure_backend_memory_is_a_noop(self):
        db = Database.from_facts({"e": [("a", "b")]})
        assert ensure_backend(db, None) is db
        assert ensure_backend(db, "memory") is db

    def test_ensure_backend_migrates_and_back(self):
        db = Database.from_facts({"e": [("a", "b")]})
        moved = ensure_backend(db, "sqlite")
        assert moved is not db and moved.backend_name == "sqlite"
        assert moved.tuples("e") == db.tuples("e")
        assert ensure_backend(moved, "sqlite") is moved
        back = ensure_backend(moved, "memory")
        assert back.backend_name == "memory"
        assert back.tuples("e") == db.tuples("e")


class TestDurability:
    def test_facts_survive_reopening_the_file(self, tmp_path):
        target = str(tmp_path / "facts.db")
        db = ensure_backend(
            Database.from_facts({"e": [("a", "b")], "unit": [()]}),
            f"sqlite:{target}",
        )
        db.add_fact("e", ("b", "c"))
        del db

        reopened = ensure_backend(Database(), f"sqlite:{target}")
        # The repro_schema registry remounts relations the incoming
        # (empty) database never mentioned -- including the arity-0
        # one, which the column count alone could not identify.
        assert reopened.tuples("e") == frozenset([("a", "b"), ("b", "c")])
        assert reopened.tuples("unit") == frozenset([()])
        assert reopened.relation("unit").arity == 0

        # The same through the service: ``backend="sqlite:<path>"`` is
        # the durable deployment (what ``db_path`` used to spell), so a
        # restarted service answers from the facts the last one wrote.
        program = parse_program("tc(X, Y) :- e(X, Y).").program
        config = ServiceConfig(workers=1, backend=f"sqlite:{target}")
        with QueryService(program, Database(), config) as service:
            service.add_fact("e", ("c", "d"))
        with QueryService(program, Database(), config) as service:
            assert service.edb.backend_name == "sqlite"
            assert service.query("tc(X, Y)?").answers == frozenset(
                [("a", "b"), ("b", "c"), ("c", "d")])

    def test_existing_relations_registry(self, tmp_path):
        target = str(tmp_path / "facts.db")
        backend = SQLiteBackend(target)
        backend.make_relation("e", 2, [("a", "b")])
        backend.make_relation("unit", 0)
        assert SQLiteBackend(target).existing_relations() == [
            ("e", 2), ("unit", 0),
        ]
        assert SQLiteBackend().existing_relations() == []

    def test_scratch_leaves_the_durable_file_alone(self, tmp_path):
        # Evaluator copies derive relations on a scratch backend; the
        # shared file must never see them.
        target = str(tmp_path / "facts.db")
        db = ensure_backend(
            Database.from_facts({"e": [("a", "b")]}), f"sqlite:{target}"
        )
        copy = db.copy()
        copy.add_fact("derived", ("x", "y"))
        copy.add_fact("e", ("zz", "ww"))
        assert db.tuples("e") == frozenset([("a", "b")])
        names = [n for n, _ in SQLiteBackend(target).existing_relations()]
        assert names == ["e"]


class TestSnapshots:
    def test_temp_mode_snapshot_is_frozen(self):
        rel = SQLiteBackend().make_relation("p", 2, [("a", "b")])
        snap = rel.snapshot()
        with pytest.raises(ReadOnlyRelationError):
            snap.add(("c", "d"))
        with pytest.raises(ReadOnlyRelationError):
            snap.discard_all([("a", "b")])
        with pytest.raises(ReadOnlyRelationError):
            snap.clear()
        assert snap.tuples() == frozenset([("a", "b")])

    def test_wal_snapshot_is_isolated_from_later_commits(self, tmp_path):
        target = str(tmp_path / "facts.db")
        rel = SQLiteBackend(target).make_relation("p", 2, [("a", "b")])
        snap = rel.snapshot()
        rel.add(("c", "d"))
        rel.discard(("a", "b"))
        # The pinned read transaction still sees the snapshot state
        # while the live relation has moved on -- no tuples copied.
        assert snap.tuples() == frozenset([("a", "b")])
        assert rel.tuples() == frozenset([("c", "d")])
        assert snap.lookup((0,), ("a",)) == [("a", "b")]
        with pytest.raises(ReadOnlyRelationError):
            snap.add(("e", "f"))

    def test_database_snapshot_over_durable_backend(self, tmp_path):
        target = str(tmp_path / "facts.db")
        db = ensure_backend(
            Database.from_facts({"e": [("a", "b")]}), f"sqlite:{target}"
        )
        snap = db.snapshot()
        db.add_fact("e", ("b", "c"))
        assert snap.tuples("e") == frozenset([("a", "b")])
        assert db.tuples("e") == frozenset([("a", "b"), ("b", "c")])

        # A service on the file serves from exactly such snapshots:
        # read-only WAL connections, not tuple-set copies.
        program = parse_program("tc(X, Y) :- e(X, Y).").program
        config = ServiceConfig(workers=1, backend=f"sqlite:{target}")
        with QueryService(program, Database(), config) as service:
            served = service._snapshot().db
            service.add_fact("e", ("c", "d"))
            assert served.tuples("e") == frozenset([("a", "b"), ("b", "c")])
            with pytest.raises(ReadOnlyRelationError):
                served.relation("e").add(("x", "y"))
            assert ("c", "d") in service.query("tc(X, Y)?").answers


def selects(rel) -> list:
    """The SELECTs run on ``rel``'s connection from here on, each with
    its key expanded into its text."""
    ran: list[str] = []
    rel._conn.set_trace_callback(
        lambda sql: sql.startswith("SELECT") and ran.append(sql))
    return ran


class TestFrozenProbes:
    """A frozen relation -- a temporary-mode snapshot or a pinned WAL
    connection -- runs each keyed probe's SELECT once per key."""

    FACTS = [("a", "b", "c"), ("a", "b", "d"), ("a", "x", "c"),
             ("b", "b", "b")]
    #: ``(positions, cols)``: ``lookup``, projections, all columns
    #: keyed, and ``cols=()`` (nothing selected).
    PROBES = [((0,), None), ((0,), (1, 2)), ((0,), (2, 1)),
              ((1, 2), (0,)), ((0, 1, 2), None), ((0, 1, 2), ()),
              ((0, 1), (2,))]

    def frozen(self, facts=FACTS, arity=3):
        rel = SQLiteBackend().make_relation("p", arity, facts)
        return rel, rel.snapshot()

    @staticmethod
    def read(rel, positions, cols, key):
        return (sorted(rel.lookup(positions, key)) if cols is None
                else rel.lookup_projected(positions, cols, key))

    def test_repeated_keyed_probe_runs_one_select(self):
        _, snap = self.frozen()
        ran = selects(snap)
        reader = _probe(snap, (0,), (1, 2), None)
        for _ in range(3):
            snap.lookup((0,), ("a",))
            snap.lookup_projected((0,), (1, 2), ("a",))
            reader(("a",))
            reader(("nope",))
        assert len(ran) == 3  # (0,)->all on a; (0,)->(1, 2) on a, nope
        assert any("'nope'" in sql for sql in ran)
        # Unkeyed calls are one full scan each, every time.
        del ran[:]
        for n in range(1, 4):
            snap.lookup((), ())
            snap.lookup_projected((), (2, 0, 1), ())
            assert len(ran) == 2 * n

    def test_answers_equal_the_live_relation(self):
        rel, snap = self.frozen()
        for _ in range(2):      # asked, then from the bucket
            for positions, cols in self.PROBES:
                reader = _probe(snap, positions, cols, None)
                for fact in self.FACTS + [("nope",) * 3]:
                    key = tuple(fact[p] for p in positions)
                    want = self.read(rel, positions, cols, key)
                    assert self.read(snap, positions, cols, key) == want
                    if cols == ():  # a membership test: the relation
                        assert (key in reader) == bool(want)
                        continue
                    got = reader(key)
                    assert (sorted(got) if cols is None else set(got)) \
                        == want
        unit, frozen_unit = self.frozen([()], 0)
        assert frozen_unit.lookup((), ()) == unit.lookup((), ()) == [()]
        assert frozen_unit.lookup_projected((), (), ()) == {()}

    def test_reader_hands_out_immutables_and_methods_copy(self):
        _, snap = self.frozen()
        rows = _probe(snap, (0,), None, None)(("a",))
        projected = _probe(snap, (0,), (1, 2), None)(("a",))
        missing = _probe(snap, (0,), (1, 2), None)(("nope",))
        assert type(rows) is tuple and type(projected) is frozenset
        assert missing == frozenset()
        listed = snap.lookup((0,), ("a",))
        listed.clear()
        got = snap.lookup_projected((0,), (1, 2), ("a",))
        got.clear()
        assert sorted(snap.lookup((0,), ("a",))) == sorted(rows)
        assert snap.lookup_projected((0,), (1, 2), ("a",)) == projected \
            == {("b", "c"), ("b", "d"), ("x", "c")}

    def test_buckets_follow_the_snapshot(self):
        rel, first = self.frozen()
        first.lookup((0,), ("a",))
        again = rel.snapshot(first)
        assert again is first and again._buckets
        rel.add(("a", "y", "y"))
        moved = rel.snapshot(again, {("a", "y", "y"): 1})
        # Adopted, but for the key the write touched: asked anew.
        assert moved is not again and ("a",) not in moved._buckets[
            (0,), None] and moved._buckets[(0,), None] is not \
            again._buckets[(0,), None]
        assert ("a", "y", "y") in moved.lookup((0,), ("a",))
        assert ("a", "y", "y") not in again.lookup((0,), ("a",))
        assert sorted(again.lookup((0,), ("a",))) == self.FACTS[:3]

    MANY = [(f"n{i % 7}", f"n{i % 3}", f"n{i}") for i in range(48)]

    def asked(self, snap, keys):
        """Every probe of ``PROBES`` on every key, as a fresh snapshot
        answers it."""
        return {(positions, cols, key): self.read(snap, positions, cols, key)
                for positions, cols in self.PROBES
                for key in keys[positions]}

    def test_a_written_relation_keeps_the_keys_no_write_touched(self):
        db = Database(backend=SQLiteBackend())
        db.clock.start()
        rel = db.ensure("p", 3)
        rel.add_all(self.MANY)
        snap = rel.snapshot()
        written = [("n1", "x", "y"), ("n2", "n0", "y"), ("n5", "x", "z")]
        every = self.MANY + written + [("nope",) * 3]
        keys = {positions: {tuple(f[p] for p in positions) for f in every}
                for positions, _ in self.PROBES}
        self.asked(snap, keys)  # every bucket full
        writes = [(lambda: rel.add(written[0]), written[:1]),
                  (lambda: rel.discard(self.MANY[0]), self.MANY[:1]),
                  (lambda: rel.add_all(written[1:]), written[1:]),
                  (lambda: rel.discard_all([self.MANY[1], written[0]]),
                   [self.MANY[1], written[0]])]
        for write, facts in writes:
            since = db.fingerprint()
            write()
            moved = rel.snapshot(snap, db.changes(since)["p"])
            assert moved is not snap
            fresh = SQLiteRelation("p", 3, rel).snapshot()
            ran = selects(moved)
            assert self.asked(moved, keys) == self.asked(fresh, keys)
            touched = {(positions, cols, tuple(f[p] for p in positions))
                       for positions, cols in self.PROBES for f in facts}
            assert len(ran) == len(touched)  # an untouched key: no SELECT
            snap = moved

    def test_a_snapshot_adopts_what_its_log_names(self):
        """Through its database a written relation's snapshot adopts its
        predecessor's buckets whenever the write log names the rows
        moved since -- after a clear, a write over a quarter of the
        rows, or from an older snapshot too -- and nothing from a
        snapshot the log no longer reaches or of another database."""
        db = Database(backend=SQLiteBackend())
        db.clock.start()
        rel = db.ensure("p", 3)
        rel.add_all(self.MANY)
        snap = db.snapshot()
        big = [("big", "w", f"w{i}") for i in range(13)]
        every = self.MANY + big + [(f"n{i}", "x", y) for i in range(5)
                                   for y in "yz"]
        keys = {positions: {tuple(f[p] for p in positions) for f in every}
                for positions, _ in self.PROBES}

        def adopted(write, previous=None):
            nonlocal snap
            self.asked(snap.relation("p"), keys)
            write()
            snap = db.snapshot(snap if previous is None else previous)
            frozen = snap.relation("p")
            kept = bool(frozen._buckets)
            assert self.asked(frozen, keys) == self.asked(
                SQLiteRelation("p", 3, rel).snapshot(), keys)
            return kept

        assert adopted(lambda: rel.add(("n1", "x", "y")))
        assert adopted(lambda: rel.add_all(big))  # 13 of 49 rows
        assert adopted(lambda: rel.discard_all(big[:12]))
        older = snap
        assert adopted(lambda: rel.add(("n1", "x", "z")))
        assert adopted(lambda: rel.add(("n2", "x", "z")), older)
        assert adopted(lambda: (rel.clear(), rel.add(("n1", "x", "y"))))
        older = snap
        assert not adopted(lambda: (rel.add(("n3", "x", "y")),
                                    db.clock.cut(db.fingerprint())), older)
        other = Database(backend=SQLiteBackend())
        other.clock.start()
        other.ensure("p", 3).add_all(self.MANY)
        foreign = other.snapshot()
        self.asked(foreign.relation("p"), keys)
        assert not adopted(lambda: rel.add(("n4", "x", "z")), foreign)

    def test_wal_snapshot_stays_pinned(self, tmp_path):
        rel = SQLiteBackend(str(tmp_path / "facts.db")).make_relation(
            "p", 3, self.FACTS)
        snap = rel.snapshot()
        assert snap._buckets == {} and snap._buckets is not rel._buckets
        before = sorted(snap.lookup((0,), ("a",)))
        rel.add(("a", "y", "y"))
        rel.discard(("b", "b", "b"))
        # From the bucket, and from SQL for a probe not asked before.
        assert sorted(snap.lookup((0,), ("a",))) == before
        assert snap.lookup_projected((1,), (0, 2), ("b",)) \
            == {("a", "c"), ("a", "d"), ("b", "b")}
        assert snap.lookup((1,), ("y",)) == []
        moved = rel.snapshot(snap)
        assert moved._buckets == {} and moved._buckets is not snap._buckets
        assert ("a", "y", "y") in moved.lookup((0,), ("a",))

    def test_threads_share_one_frozen_snapshot(self):
        facts = [(f"n{i % 17}", f"n{i % 5}", f"n{i}") for i in range(200)]
        rel, snap = self.frozen(facts)
        keys = sorted({f[0] for f in facts}) + ["nope"]
        want = {k: rel.lookup_projected((0,), (1, 2), (k,)) for k in keys}
        got: list = []

        def probe():
            reader = _probe(snap, (0,), (1, 2), None)
            got.append(all(reader((k,)) == want[k] and
                           snap.lookup_projected((0,), (1, 2), (k,))
                           == want[k] for k in keys * 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [True] * 4


class TestPageCopy:
    @pytest.mark.parametrize("spec", ["sqlite", "sqlite:path"])
    def test_replaced_snapshot_is_freed_without_gc(self, spec, tmp_path):
        # Buckets hold the connection, not the relation: a replaced
        # snapshot is freed by refcount (a durable file's read
        # transaction with it), not by a later cyclic collection.
        if spec == "sqlite:path":
            spec = f"sqlite:{tmp_path / 'facts.db'}"
        parsed = parse_program(TestEngineEquivalence.TEXT)
        config = ServiceConfig(workers=1, backend=spec)
        gc.disable()
        try:
            with QueryService(parsed.program, parsed.database,
                              config) as service:
                assert service.query("tc(a, Y)?").ok
                rel = service._snapshot().db.relation("e")
                assert rel.lookup((0,), ("a",)) == [("a", "b")]
                held, rel = weakref.ref(rel), None
                assert held()._buckets
                service.add_fact("e", ("d", "e"))
                assert ("a", "e") in service.query("tc(a, Y)?").answers
                assert held() is None
        finally:
            gc.enable()

    @staticmethod
    def master(rel, kind):
        return sorted(name for (name,) in rel._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = ?", (kind,)))

    def test_page_copy_equals_its_source(self):
        rel = SQLiteBackend().make_relation(
            "p", 3, TestFrozenProbes.FACTS)
        rel.discard(("b", "b", "b"))
        rel.lookup((0,), ("a",))
        rel.lookup_projected((1, 2), (0,), ("b", "c"))
        copy = rel.copy()
        rows = SQLiteRelation("p", 3, rel)  # what a row copy makes
        assert sorted(copy) == sorted(rel)
        assert copy.version == rows.version == len(rel) == len(copy)
        assert copy._indexed == rel._indexed == {(0,), (1, 2)}
        assert self.master(copy, "index") == self.master(rel, "index") \
            == ["idx_rel_p_0", "idx_rel_p_1_2"]
        assert copy.add(("z", "z", "z")) and ("z", "z", "z") not in rel

    def test_durable_copy_holds_one_table(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "facts.db"))
        rel = backend.make_relation("e", 2, [("a", "b")])
        backend.make_relation("f", 1, [("x",)])
        copy = rel.copy()
        assert self.master(copy, "table") == ["rel_e"]
        assert sorted(copy) == [("a", "b")] and copy.version == 1


class TestEngineEquivalence:
    TEXT = (
        "tc(X, Y) :- e(X, W) & tc(W, Y).\n"
        "tc(X, Y) :- e(X, Y).\n"
        "e(a, b). e(b, c). e(c, d). e(b, d)."
    )

    @pytest.mark.parametrize(
        "strategy", ["seminaive", "separable", "magic"]
    )
    def test_answers_match_memory_reference(self, strategy):
        parsed = parse_program(self.TEXT)
        reference = Engine(parsed.program, parsed.database).query(
            "tc(a, Y)?", strategy=strategy
        )
        parsed_sqlite = parse_program(self.TEXT)
        engine = Engine(
            parsed_sqlite.program, parsed_sqlite.database,
            backend="sqlite",
        )
        assert engine.edb.backend_name == "sqlite"
        result = engine.query("tc(a, Y)?", strategy=strategy)
        assert result.answers == reference.answers

    def test_engine_backend_none_leaves_edb_untouched(self):
        parsed = parse_program(self.TEXT)
        engine = Engine(parsed.program, parsed.database)
        assert engine.edb is parsed.database
