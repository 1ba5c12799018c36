"""SQLite-backend specifics: durability, snapshots, spec resolution.

The conformance suite (``test_conformance.py``) pins the shared
protocol; these tests pin what only the out-of-core backend does --
the durable WAL file, pinned read-only snapshots, the schema registry
that makes reopening a file discover its relations, and end-to-end
answer equality through the engine.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.engine import Engine
from repro.service import QueryService, ServiceConfig
from repro.storage import (
    MemoryBackend,
    ReadOnlyRelationError,
    SQLiteBackend,
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
