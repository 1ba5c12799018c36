"""Incremental maintenance through the service: correctness + repair.

The ``ServiceConfig(incremental=True)`` path must be observably
equivalent to the rebuild-everything path (every answer still matches a
serial oracle on the exact fingerprint served), while the metrics prove
the cheap machinery actually ran: views repaired instead of rebuilt,
snapshots structurally shared, and memo entries surviving or repaired
across mutations instead of being dropped.
"""

from concurrent.futures import wait

from repro.datalog.database import Database
from repro.service import QueryService, ServiceConfig
from repro.workloads import paper

from ..conftest import oracle_answers


def _chain_db(n: int) -> Database:
    return Database.from_facts(
        {
            "friend": [(f"a{i}", f"a{i + 1}") for i in range(1, n)],
            "idol": [(f"a{i}", f"a{i + 1}") for i in range(1, n)],
            "perfectFor": [(f"a{n}", f"b{n}")],
        }
    )


class TestWriteHeavyStress:
    def test_answers_match_oracle_under_write_heavy_load(self):
        """8 workers, 100 queries, 50 mutations (1/3 of all operations,
        inserts *and* deletes): every answer equals a serial oracle on
        the fingerprint it was served against."""
        program = paper.example_1_1_program()
        n = 10
        service = QueryService(
            program, _chain_db(n),
            ServiceConfig(workers=8, incremental=True),
        )
        states: dict[tuple, Database] = {}
        states[service.edb.fingerprint()] = service.edb.copy()

        def mutate_and_record(fn):
            def wrapped(db):
                fn(db)
                states[db.fingerprint()] = db.copy()

            service.mutate(wrapped)

        pending_gifts = []
        futures = []
        try:
            for i in range(100):
                if i % 2 == 0:  # 50 mutations for 100 queries
                    if i % 6 == 4 and pending_gifts:
                        name, fact = pending_gifts.pop(0)
                        mutate_and_record(
                            lambda db, n_=name, f=fact:
                            db.remove_fact(n_, f)
                        )
                    else:
                        fact = (f"a{(i % n) + 1}", f"gift{i}")
                        pending_gifts.append(("perfectFor", fact))
                        mutate_and_record(
                            lambda db, f=fact:
                            db.add_fact("perfectFor", f)
                        )
                futures.append(
                    service.submit(f"buys(a{(i % n) + 1}, Y)?")
                )
            done, not_done = wait(futures, timeout=120)
            assert not not_done
            results = [f.result() for f in futures]
            metrics = service.metrics_dict()
        finally:
            service.close()

        assert all(r.status == "ok" for r in results)
        oracle_cache: dict[tuple, frozenset] = {}
        for result in results:
            assert result.fingerprint in states
            key = (result.fingerprint, str(result.query))
            if key not in oracle_cache:
                oracle_cache[key] = oracle_answers(
                    program, states[result.fingerprint], result.query
                )
            assert result.answers == oracle_cache[key]
        # The incremental path did the serving, not the fallback.
        assert metrics["view_repairs"] == 50
        assert metrics["view_rebuilds"] == 0
        assert metrics["snapshots_repaired"] > 0


class TestMemoSurvival:
    def test_class_confined_mutation_spares_the_other_class(self):
        """Theorem 2.1's independence, observed through the memo: a
        mutation whose IDB damage projects onto one new seed of class 2
        repairs the class-1 entries it dirtied and keeps the other
        class-2 entries verbatim -- ``memo_survived > 0``."""
        program = paper.example_1_2_program()
        edb = paper.example_1_2_database(6)
        service = QueryService(
            program, edb, ServiceConfig(workers=2, incremental=True)
        )
        try:
            # Populate: one class-1 entry (position 0 bound) and two
            # class-2 entries (position 1 bound).
            assert service.query("buys(a1, Y)?").ok
            assert service.query("buys(X, b3)?").ok
            assert service.query("buys(X, b4)?").ok
            before = service.memo.stats()
            assert before["size"] >= 3

            # zz undercuts b6: every buyer of b6 now also buys zz.
            # Changed buys facts are exactly {(a_i, zz)} -- they
            # project onto class 2 as the fresh seed (zz,) only.
            service.mutate(
                lambda db: db.add_fact("cheaper", ("zz", "b6"))
            )
            stats = service.memo.stats()
            assert stats["survived"] >= 2   # (b3,), (b4,) untouched
            assert stats["repaired"] >= 1   # (a1,) absorbed the gain

            # Surviving and repaired entries are served as hits, and
            # the repaired value includes the new product.
            hits_before = stats["hits"]
            for query in ("buys(X, b3)?", "buys(a1, Y)?"):
                result = service.query(query)
                assert result.answers == oracle_answers(
                    program, service.edb, result.query
                )
            assert ("a1", "zz") in service.query("buys(a1, Y)?").answers
            assert service.memo.stats()["hits"] > hits_before
        finally:
            service.close()

    def test_metrics_expose_the_repair_counters(self):
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=2, incremental=True),
        )
        try:
            assert service.query("buys(a1, Y)?").ok
            service.mutate(
                lambda db: db.add_fact("perfectFor", ("a2", "g"))
            )
            # A write that changes nothing is captured and goes no further.
            service.mutate(
                lambda db: db.add_fact("perfectFor", ("a2", "g"))
            )
            text = service.metrics_text()
            phases = service.metrics_dict()["evaluator_phases"]
        finally:
            service.close()
        # What a write costs, phase by phase, off the shared tracer.
        assert {
            name: phase["count"] for name, phase in phases.items()
            if name.startswith("service.mutate.")
        } == {
            "service.mutate.capture": 2,
            "service.mutate.apply": 1,
            "service.mutate.memo": 1,
            "service.mutate.snapshot": 1,
        }
        assert ('repro_service_span_seconds_total'
                '{span="service.mutate.apply"}') in text
        assert 'repro_service_memo_events_total{kind="repaired"}' in text
        assert 'repro_service_memo_events_total{kind="survived"}' in text
        assert "repro_service_view_repairs_total 1" in text
        assert "repro_service_view_rebuilds_total 0" in text
        assert "repro_service_snapshots_repaired_total" in text


class TestIncrementalEquivalence:
    MUTATIONS = [
        ("add", "perfectFor", ("a2", "g0")),
        ("add", "friend", ("a4", "a1")),      # closes a cycle
        ("del", "perfectFor", ("a4", "b4")),
        ("del", "friend", ("a4", "a1")),
        ("add", "perfectFor", ("a1", "g1")),
        ("del", "idol", ("a2", "a3")),
    ]

    def test_incremental_service_matches_plain_service(self):
        program = paper.example_1_1_program()
        plain = QueryService(
            program, _chain_db(4), ServiceConfig(workers=2)
        )
        incremental = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=2, incremental=True),
        )
        queries = [f"buys(a{i}, Y)?" for i in range(1, 5)]
        try:
            for kind, name, fact in self.MUTATIONS:
                for service in (plain, incremental):
                    if kind == "add":
                        service.mutate(
                            lambda db, n=name, f=fact: db.add_fact(n, f)
                        )
                    else:
                        service.mutate(
                            lambda db, n=name, f=fact:
                            db.remove_fact(n, f)
                        )
                for query in queries:
                    a = plain.query(query)
                    b = incremental.query(query)
                    assert a.ok and b.ok
                    assert a.answers == b.answers, (kind, name, query)
        finally:
            plain.close()
            incremental.close()

    def test_deletion_is_absorbed_as_a_repair(self):
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=2, incremental=True),
        )
        try:
            assert ("a1", "b4") in service.query("buys(a1, Y)?").answers
            service.mutate(
                lambda db: db.remove_fact("friend", ("a3", "a4"))
            )
            service.mutate(
                lambda db: db.remove_fact("idol", ("a3", "a4"))
            )
            result = service.query("buys(a1, Y)?")
            assert result.answers == oracle_answers(
                program, service.edb, result.query
            )
            assert ("a1", "b4") not in result.answers
            metrics = service.metrics_dict()
        finally:
            service.close()
        assert metrics["view_repairs"] == 2
        assert metrics["view_rebuilds"] == 0


class TestOverflowFallback:
    def test_clear_falls_back_to_rebuild(self):
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=2, incremental=True),
        )
        try:
            assert service.query("buys(a1, Y)?").ok

            def wipe_friends(db):
                db.relation("friend").clear()

            service.mutate(wipe_friends)
            result = service.query("buys(a1, Y)?")
            assert result.answers == oracle_answers(
                program, service.edb, result.query
            )
            metrics = service.metrics_dict()
        finally:
            service.close()
        assert metrics["view_rebuilds"] == 1

    def test_direct_idb_write_falls_back_to_rebuild(self):
        # A delta protocol over base tables cannot describe a direct
        # write to a derived relation; the guard downgrades it to a
        # rebuild instead of silently corrupting the view.
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=2, incremental=True),
        )
        try:
            service.mutate(
                lambda db: db.add_fact("buys", ("zz", "manual"))
            )
            metrics = service.metrics_dict()
        finally:
            service.close()
        assert metrics["view_rebuilds"] == 1


class TestIndexBackedRepair:
    def test_dirty_entries_are_repaired_off_one_index_build(self):
        """A repair is ``σ_{component = seed}`` of the maintained extent,
        served by the view relation's lazy index: five dirty entries
        cost one ``index_builds`` (not five scans), a later mutation
        none at all -- the index is maintained incrementally -- and
        every repaired value equals a full scan of the extent."""
        program = paper.example_1_1_program()
        n = 8
        service = QueryService(
            program, _chain_db(n),
            ServiceConfig(workers=2, incremental=True),
        )

        def index_builds() -> int:
            counters = service.metrics_dict()["evaluator_counters"]
            return counters.get("index_builds", 0)

        def check_entries_against_full_scan() -> int:
            extent = service._view.db.tuples("buys")
            checked = 0
            for key, (value, _stats) in service.memo._entries.items():
                _fp, _analysis, component, seed, _order = key
                assert component == ("class", 1)  # position 0 bound
                assert value == frozenset(
                    (y,) for x, y in extent if (x,) == seed
                )
                checked += 1
            return checked

        try:
            for i in range(1, 6):
                assert service.query(f"buys(a{i}, Y)?").ok
            before = index_builds()
            # Every a_i reaches a_n, so the new gift dirties all five.
            service.mutate(
                lambda db: db.add_fact("perfectFor", (f"a{n}", "gift"))
            )
            assert service.memo.stats()["repaired"] == 5
            assert index_builds() - before == 1
            assert check_entries_against_full_scan() == 5

            before = index_builds()
            service.mutate(
                lambda db: db.remove_fact("perfectFor", (f"a{n}", "gift"))
            )
            assert service.memo.stats()["repaired"] == 10
            assert index_builds() == before
            assert check_entries_against_full_scan() == 5
            for i in range(1, 6):
                result = service.query(f"buys(a{i}, Y)?")
                assert result.answers == oracle_answers(
                    program, service.edb, result.query
                )
        finally:
            service.close()


class TestWritesReindexNothing:
    def test_snapshot_indexes_survive_a_write(self):
        """After a write the new snapshot shares untouched relations
        (indexes included) with the old one and the mutated relation's
        copy adopts the old indexes patched by the delta, so the misses
        that follow build no index on any EDB relation -- and every
        snapshot's engine shares one analysis of the program."""
        program = paper.example_1_1_program()
        n = 24
        service = QueryService(
            program, _chain_db(n),
            ServiceConfig(workers=1, incremental=True, memo_size=1),
        )

        def indexes_of(rel) -> dict:
            """Plain and projected indexes together (``positions`` and
            ``(positions, cols)`` keys cannot collide)."""
            return {**rel._indexes, **rel._projected}

        def edb_indexes(snap) -> dict:
            return {
                name: indexes_of(snap.db.relation(name))
                for name in snap.db.predicates()
            }

        try:
            assert service.query("buys(a1, Y)?").ok
            assert service.query("buys(X, b%d)?" % n).ok
            old = service._snapshot()
            warm = edb_indexes(old)
            assert warm["friend"] and warm["perfectFor"]
            for step in range(3):
                service.mutate(lambda db: db.add_fact(
                    "friend", (f"new{step}", "a1")))
                snap = service._snapshot()
                assert snap is not old and snap.db is not old.db
                # Untouched relation: the same object, indexes and all.
                assert snap.db.relation("idol") is old.db.relation("idol")
                # Mutated relation: a copy born with every old index.
                friend = snap.db.relation("friend")
                assert friend is not old.db.relation("friend")
                assert indexes_of(friend).keys() == warm["friend"].keys()
                assert friend._projected, "the loops probe it projected"
                assert friend.lookup_projected(
                    (0,), (1,), (f"new{step}",)) == {("a1",)}
                assert snap.engine.report("buys") is old.engine.report("buys")
                result = service.query(f"buys(new{step}, Y)?")
                assert result.answers == oracle_answers(
                    program, service.edb, result.query
                )
                result = service.query("buys(X, b%d)?" % n)
                assert result.answers == oracle_answers(
                    program, service.edb, result.query
                )
                # The misses above indexed nothing that was not indexed.
                assert {k: v.keys() for k, v in edb_indexes(snap).items()} \
                    == {k: v.keys() for k, v in warm.items()}
                old, warm = snap, edb_indexes(snap)
        finally:
            service.close()
