"""Incremental maintenance through the service: correctness + repair.

The ``ServiceConfig(incremental=True)`` path must be observably
equivalent to the rebuild-everything path (every answer still matches a
serial oracle on the exact fingerprint served), while the metrics prove
the cheap machinery actually ran: views repaired instead of rebuilt,
and every ``auto`` read of a derived predicate answered by one lookup
on the view (no snapshot, no memo entry, no carry loop) wherever the
view stands at the live fingerprint -- and evaluated against a
snapshot, as without a view, wherever it does not or a strategy was
named.
"""

import random
from concurrent.futures import wait

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.service import FullSelectionMemo, QueryService, ServiceConfig
from repro.storage import SQLiteRelation
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
        assert metrics["view_probes"] == 100
        assert metrics["snapshots_created"] == 0

    #: Example 2.4 (classes {1, 2} and {3}), Example 1.1 (class {1},
    #: column 2 in no class) and a nonlinear transitive closure.
    PROGRAM = """
        t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).
        t(X, Y, Z) :- t(X, Y, W) & b(W, Z).
        t(X, Y, Z) :- t0(X, Y, Z).
        buys(X, Y) :- friend(X, W) & buys(W, Y).
        buys(X, Y) :- perfectFor(X, Y).
        tc(X, Y) :- b(X, Y).
        tc(X, Y) :- tc(X, W) & tc(W, Y).
    """
    QUERIES = [
        "t(n1, n1, Z)?",      # full selection, class 1
        "t(X, Y, n2)?",       # full selection, class 2
        "t(n0, Y, Z)?",       # partial selection (Example 2.4)
        "t(X, Y, Z)?",        # all free
        "t(X, X, Z)?",        # repeated variable
        "buys(X, n3)?",       # a constant outside every class
        "tc(n0, Y)?",         # non-separable predicate
        "t(nowhere, n0, Z)?",  # a seed the data never mentions
    ]

    @pytest.mark.parametrize("seed", [7, 23])
    def test_every_kind_of_read_is_a_view_read_and_agrees(self, seed):
        """Over a seeded insert/delete stream an incremental service
        reads every kind of ``auto`` query off its view -- no snapshot,
        no memo entry -- and agrees with a plain service on the same
        stream and with a serial oracle on the state its fingerprint
        names."""
        program = parse_program(self.PROGRAM).program
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(4)]

        def fact(name):
            arity = {"a": 4, "t0": 3}.get(name, 2)
            return tuple(rng.choice(nodes) for _ in range(arity))

        names = ["a", "b", "t0", "friend", "perfectFor"]
        facts = {name: {fact(name) for _ in range(5)} for name in names}
        plain = QueryService(program, Database.from_facts(facts),
                             ServiceConfig(workers=1))
        service = QueryService(program, Database.from_facts(facts),
                               ServiceConfig(workers=1, incremental=True))
        states = {}
        reads = 0
        try:
            for _step in range(24):
                name = rng.choice(names)
                present = sorted(service.edb.tuples(name))
                if present and rng.random() < 0.45:
                    gone = rng.choice(present)
                    write = lambda db: db.remove_fact(name, gone)  # noqa
                else:
                    new = fact(name)
                    write = lambda db: db.add_fact(name, new)  # noqa
                plain.mutate(write)
                service.mutate(write)
                states[service.edb.fingerprint()] = service.edb.copy()
                for text in self.QUERIES:
                    want, got = plain.query(text), service.query(text)
                    reads += 1
                    assert want.ok and got.ok
                    assert got.strategy == "view" and got.result is None
                    assert got.stats.iterations == 0
                    assert got.answers == want.answers, text
                    assert got.answers == oracle_answers(
                        program, states[got.fingerprint], got.query), text
            metrics = service.metrics_dict()
            assert metrics["view_probes"] == reads
            assert metrics["snapshots_created"] == 0
            assert len(service.memo) == 0
            assert metrics["view_rebuilds"] == 0
            assert plain.metrics_dict()["view_probes"] == 0
        finally:
            plain.close()
            service.close()


class TestMemoSurvival:
    """Nothing of the memo survives a write, and nothing has to: the
    view answers the reads and a write touches the view only."""

    def test_class_confined_mutation_spares_the_other_class(self):
        """Theorem 2.1's independence, observed through the view: a
        mutation whose IDB damage projects onto one new seed of class 2
        changes the class-1 answers it reaches and leaves the other
        class-2 answers verbatim -- and every read, before or after,
        is an index lookup: no carry loop runs and the memo is never
        asked."""
        program = paper.example_1_2_program()
        edb = paper.example_1_2_database(6)
        service = QueryService(
            program, edb, ServiceConfig(workers=2, incremental=True)
        )
        # One class-1 selection (position 0 bound), two class-2 ones.
        queries = ("buys(a1, Y)?", "buys(X, b3)?", "buys(X, b4)?")

        def read_all() -> dict:
            results = {q: service.query(q) for q in queries}
            for result in results.values():
                assert result.ok and result.stats.iterations == 0
                assert result.answers == oracle_answers(
                    program, service.edb, result.query)
            return results

        try:
            before = read_all()
            assert service.metrics_dict()["view_probes"] == 3

            # zz undercuts b6: every buyer of b6 now also buys zz.
            # Changed buys facts are exactly {(a_i, zz)} -- they
            # project onto class 2 as the fresh seed (zz,) only.
            service.mutate(
                lambda db: db.add_fact("cheaper", ("zz", "b6"))
            )
            after = read_all()
            assert service.metrics_dict()["view_probes"] == 6
            for clean in ("buys(X, b3)?", "buys(X, b4)?"):
                assert after[clean].answers == before[clean].answers
            assert after["buys(a1, Y)?"].answers == (
                before["buys(a1, Y)?"].answers | {("a1", "zz")})
            assert service.memo.stats() == {
                "size": 0, "hits": 0, "misses": 0, "resumed": 0,
                "coalesced": 0, "evictions": 0, "repaired": 0,
                "survived": 0, "absorbed": 0,
            }
        finally:
            service.close()

    def test_direct_edb_write_is_detected_and_repaired(self):
        """A fact added through ``service.edb`` behind ``mutate()``'s
        back: the view does not stand at the new fingerprint, so reads
        evaluate against their snapshot, and the next ``mutate()``
        diffs the view's own copy of the EDB against the live one, so
        it repairs the view by both writes (a view repaired by
        ``mutate``'s write alone would lose ``direct``)."""
        program = parse_program(
            "buys(X,Y) :- friend(X,W) & buys(W,Y).\n"
            "buys(X,Y) :- perfectFor(X,Y)."
        ).program
        edb = Database.from_facts({
            "friend": [("a", "b"), ("b", "c")],
            "perfectFor": [("c", "p0")],
        })
        service = QueryService(
            program, edb, ServiceConfig(workers=1, incremental=True)
        )

        def bought(strategy: str) -> set:
            result = service.query("buys(a, Y)?")
            assert result.ok and result.strategy == strategy
            return {y for _a, y in result.answers}

        try:
            assert bought("view") == {"p0"}
            assert service.metrics_dict()["view_probes"] == 1
            service.edb.add_fact("perfectFor", ("c", "direct"))
            assert bought("separable") == {"p0", "direct"}
            # Not vouched for: the view still stands at the old state.
            assert service.metrics_dict()["view_probes"] == 1
            assert service.memo.stats()["misses"] == 1
            service.mutate(
                lambda db: db.add_fact("perfectFor", ("b", "viamutate")))
            assert bought("view") == {"p0", "direct", "viamutate"}
            result = service.query("buys(X, Y)?")
            assert result.answers == oracle_answers(
                program, service.edb, result.query)
            metrics = service.metrics_dict()
        finally:
            service.close()
        assert metrics["view_rebuilds"] == 0 and metrics["view_repairs"] == 1
        assert metrics["view_probes"] == 3  # repaired: it vouches again

    def test_a_request_holding_an_older_snapshot_evaluates_against_it(self):
        """Snapshot isolation beside the view: the view answers for the
        live fingerprint only, so a reader that captured its snapshot
        before a write gets the *old* state's answers, by an evaluation
        over that snapshot."""
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=1, incremental=True),
        )
        try:
            snap = service._snapshot()
            old_db = service.edb.copy()
            service.mutate(
                lambda db: db.add_fact("perfectFor", ("a4", "late")))
            probes = service.metrics_dict()["view_probes"]
            result = snap.engine.query(
                "buys(a1, Y)?",
                memo=service.memo.scoped(snap.fingerprint),
            )
            assert result.answers == oracle_answers(
                program, old_db, result.query)
            assert ("a1", "late") not in result.answers
            assert result.stats.iterations > 0  # it ran Figure 2
            assert service.metrics_dict()["view_probes"] == probes
            assert service.memo.stats()["misses"] == 1
            # The live state is the view's to answer.
            live = service.query("buys(a1, Y)?")
            assert ("a1", "late") in live.answers
            assert live.stats.iterations == 0
            assert service.metrics_dict()["view_probes"] == probes + 1
        finally:
            service.close()

    def test_a_writes_memo_work_does_not_grow_with_the_seeds_read(self):
        """A write does no memo work at all: ``auto`` reads leave the
        memo empty however many seeds they name, and the entries that
        explicit-strategy reads made stay where they are -- at the old
        fingerprint, where no later request looks."""
        program = paper.example_2_4_program()

        def memo_around_one_write(seeds: int, strategy: str) -> tuple:
            edb = Database.from_facts({
                "a": [("x0", "y0", "p0", "q0")],
                "t0": [(f"p{i}", f"q{i}", "z0") for i in range(seeds)],
                "b": [("z0", "z1")],
            })
            service = QueryService(
                program, edb, ServiceConfig(workers=1, incremental=True))
            try:
                for i in range(seeds):
                    assert len(service.query(
                        f"t(p{i}, q{i}, Z)?", strategy=strategy)) == 2
                before = service.memo.stats()
                service.mutate(lambda db: db.add_fact("b", ("z1", "z2")))
                assert service.memo.stats() == before
                assert len(service.query(
                    "t(p0, q0, Z)?", strategy=strategy)) == 3
                return before["size"], service.memo.stats()["hits"]
            finally:
                service.close()

        assert memo_around_one_write(60, "auto") == (0, 0)
        assert memo_around_one_write(600, "auto") == (0, 0)
        assert memo_around_one_write(60, "separable") == (60, 0)

    def test_a_named_strategy_is_served_as_without_a_view(self):
        """``strategy="separable"`` runs Figure 2 on a snapshot through
        the fingerprint-scoped memo; the next write moves the
        fingerprint, so the entry answers nothing afterwards: the write
        log names the one row added, so the run resumes from it."""
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=1, incremental=True),
        )
        try:
            first = service.query("buys(a1, Y)?", strategy="separable")
            assert first.strategy == "separable"
            assert first.stats.iterations > 0 and first.result is not None
            assert len(service.memo) == 1
            again = service.query("buys(a1, Y)?", strategy="separable")
            assert again.answers == first.answers
            assert service.memo.stats()["hits"] == 1
            service.mutate(
                lambda db: db.add_fact("perfectFor", ("a4", "late")))
            after = service.query("buys(a1, Y)?", strategy="separable")
            assert after.answers == first.answers | {("a1", "late")}
            stats = service.memo.stats()
            assert (stats["hits"], stats["misses"], stats["resumed"]) \
                == (1, 1, 1)
            metrics = service.metrics_dict()
            assert metrics["view_probes"] == 0
            assert metrics["snapshots_created"] == 2
            # An EDB predicate is not the view's to answer either.
            base = service.query("friend(a1, Y)?")
            assert base.status == "error"
            assert "UnknownPredicateError" in base.error
        finally:
            service.close()

    def test_metrics_expose_the_repair_counters(self):
        program = paper.example_1_1_program()
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=2, incremental=True, trace_sample=1.0),
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
        # What a write costs, phase by phase, off the recorded writes.
        assert {
            name: phase["count"] for name, phase in phases.items()
            if name.startswith("service.mutate.")
        } == {
            "service.mutate.capture": 2,
            "service.mutate.apply": 1,
        }
        assert phases["service.view_read"]["count"] == 1
        assert ('repro_service_span_seconds_total'
                '{span="service.mutate.apply"}') in text
        assert 'repro_service_memo_events_total{kind="survived"}' in text
        # Kinds that always read 0 are not exported.
        assert 'kind="repaired"' not in text and 'kind="coalesced"' not in text
        assert "repro_service_view_repairs_total 1" in text
        assert "repro_service_view_rebuilds_total 0" in text
        assert "repro_service_view_probes_total 1" in text
        assert "repro_service_snapshots_repaired_total 0" in text


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


TC = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, W) & tc(W, Y).\n"


@pytest.mark.parametrize("backend", [None, "sqlite"],
                         ids=["memory", "sqlite"])
class TestWritesAreDiffed:
    """A write owes the view the rows the EDB's write log names since
    the view last caught up, each moved once however often it was
    written: whatever ``fn`` did in between, one ``mutate`` leaves
    answers equal to a plain service's and to the oracle's, by a
    repair."""

    FACTS = {"e": [("a", "b"), ("b", "c")]}

    @staticmethod
    def _agree(plain, service, program):
        for query in ("tc(a, Y)?", "tc(X, c)?", "tc(X, Y)?"):
            expected, got = plain.query(query), service.query(query)
            assert got.ok and got.strategy == "view", query
            assert got.answers == expected.answers == oracle_answers(
                program, service.edb, got.query), query

    def _one_mutate(self, backend, write, program_text=TC) -> dict:
        """Apply ``write`` in one ``mutate`` on a plain and on an
        incremental service; the incremental one's metrics."""
        program = parse_program(program_text).program
        plain, service = (
            QueryService(program, Database.from_facts(self.FACTS),
                         ServiceConfig(workers=1, incremental=incremental,
                                       backend=backend))
            for incremental in (False, True))
        try:
            self._agree(plain, service, program)
            for service_ in (plain, service):
                service_.mutate(write)
            self._agree(plain, service, program)
            return service.metrics_dict()
        finally:
            plain.close()
            service.close()

    def test_a_fact_added_then_removed(self, backend):
        def write(db):
            db.add_fact("e", ("c", "d"))
            db.remove_fact("e", ("c", "d"))

        assert self._one_mutate(backend, write)["view_rebuilds"] == 0

    def test_a_fact_removed_then_readded(self, backend):
        def write(db):
            db.remove_fact("e", ("a", "b"))
            db.add_fact("e", ("a", "b"))

        assert self._one_mutate(backend, write)["view_rebuilds"] == 0

    def test_a_present_fact_readded(self, backend):
        metrics = self._one_mutate(
            backend, lambda db: db.add_fact("e", ("a", "b")))
        assert metrics["view_rebuilds"] == 0

    def test_a_write_creating_a_base_relation_the_program_reads(
            self, backend):
        metrics = self._one_mutate(
            backend, lambda db: db.add_fact("f", ("c", "z")),
            TC + "tc(X, Y) :- f(X, Y).\n")
        assert (metrics["view_rebuilds"], metrics["view_repairs"]) == (0, 1)

    def test_a_write_to_two_relations(self, backend):
        def write(db):
            db.add_fact("e", ("c", "d"))
            db.remove_fact("e", ("a", "b"))
            db.add_fact("f", ("d", "a"))

        metrics = self._one_mutate(
            backend, write, TC + "tc(X, Y) :- f(X, Y).\n")
        assert (metrics["view_rebuilds"], metrics["view_repairs"]) == (0, 1)

    def test_a_cleared_base_relation(self, backend):
        metrics = self._one_mutate(
            backend, lambda db: db.relation("e").clear())
        assert (metrics["view_rebuilds"], metrics["view_repairs"]) == (0, 1)

    def test_a_write_to_a_derived_relation_is_rebuilt(self, backend):
        # The diff is taken over base relations only; a row written
        # straight into a derived one is a moved derived relation, and
        # the view is rebuilt rather than repaired around it.
        program = parse_program(TC).program
        service = QueryService(
            program, Database.from_facts(self.FACTS),
            ServiceConfig(workers=1, incremental=True, backend=backend))
        try:
            assert service.query("tc(a, Y)?").strategy == "view"
            service.mutate(lambda db: db.add_fact("tc", ("a", "z")))
            result = service.query("tc(a, Y)?")
            assert result.strategy == "view"
            assert result.answers == oracle_answers(
                program, service.edb, result.query)
            metrics = service.metrics_dict()
        finally:
            service.close()
        assert (metrics["view_rebuilds"], metrics["view_repairs"]) == (1, 0)


class TestUnseenWritesAreRepaired:
    def test_clear_is_repaired(self):
        program = paper.example_1_1_program()
        plain = QueryService(program, _chain_db(4), ServiceConfig(workers=2))
        service = QueryService(
            program, _chain_db(4),
            ServiceConfig(workers=2, incremental=True),
        )
        try:
            assert service.query("buys(a1, Y)?").answers

            def wipe_perfect_for(db):
                db.relation("perfectFor").clear()

            for service_ in (plain, service):
                service_.mutate(wipe_perfect_for)
            result = service.query("buys(a1, Y)?")
            assert result.strategy == "view" and not result.answers
            assert result.answers == plain.query("buys(a1, Y)?").answers \
                == oracle_answers(program, service.edb, result.query)
            metrics = service.metrics_dict()
        finally:
            plain.close()
            service.close()
        assert (metrics["view_rebuilds"], metrics["view_repairs"]) == (0, 1)

    def test_a_raising_mutate_is_repaired(self):
        """``fn`` raising after it wrote is a half-done write: the view
        is repaired by what it wrote before the exception leaves
        ``mutate``, the next read is a plain service's answer, and the
        service keeps answering."""
        program = parse_program(TC).program
        facts = {"e": [("a", "b"), ("b", "c")]}
        plain = QueryService(program, Database.from_facts(facts),
                             ServiceConfig(workers=1))
        service = QueryService(program, Database.from_facts(facts),
                               ServiceConfig(workers=1, incremental=True))

        class Boom(Exception):
            pass

        def write(db):
            db.add_fact("e", ("c", "d"))
            raise Boom

        def agree():
            for query in ("tc(a, Y)?", "tc(X, d)?", "tc(X, Y)?"):
                expected, got = plain.query(query), service.query(query)
                assert got.ok and got.answers == expected.answers \
                    == oracle_answers(program, service.edb, got.query), query

        try:
            agree()
            with pytest.raises(Boom):
                service.mutate(write)
            plain.mutate(lambda db: db.add_fact("e", ("c", "d")))
            agree()
            for service_ in (plain, service):
                service_.mutate(lambda db: db.add_fact("e", ("d", "e")))
            agree()
            metrics = service.metrics_dict()
        finally:
            plain.close()
            service.close()
        assert (metrics["view_rebuilds"], metrics["view_repairs"]) == (0, 2)


class TestOneRecordOfAWrite:
    """A write is recorded once, in the EDB's write log, and the view,
    the snapshot and the memo read their slices of it: a one-row write
    costs its row, not a pass over the relation it wrote."""

    WRITE = staticmethod(lambda db: db.add_fact("perfectFor", ("a3", "late")))

    def test_an_incremental_write_reads_no_relation_whole(self, monkeypatch):
        scans = []
        all_rows = SQLiteRelation._all_rows

        def counted(rel):
            scans.append(rel)
            return all_rows(rel)

        monkeypatch.setattr(SQLiteRelation, "_all_rows", counted)
        with QueryService(paper.example_1_1_program(), _chain_db(40),
                          ServiceConfig(workers=1, incremental=True,
                                        backend="sqlite")) as service:
            assert service.query("buys(a1, Y)?").strategy == "view"
            live = service.edb.relation("perfectFor")
            scans.clear()
            service.mutate(self.WRITE)
            assert not any(rel is live for rel in scans)
            assert ("a1", "late") in service.query("buys(a1, Y)?").answers
            assert service.metrics_dict()["view_repairs"] == 1

    def test_a_plain_write_names_its_one_row_to_the_memo(self, monkeypatch):
        carried = []
        carry = FullSelectionMemo.carry

        def recorded(memo, old, new, written, log=None):
            carried.append(written)
            carry(memo, old, new, written, log)

        monkeypatch.setattr(FullSelectionMemo, "carry", recorded)
        with QueryService(paper.example_1_1_program(), _chain_db(40),
                          ServiceConfig(workers=1,
                                        backend="sqlite")) as service:
            service.query("buys(a1, Y)?")
            service.mutate(self.WRITE)
            assert ("a1", "late") in service.query("buys(a1, Y)?").answers
        assert carried == [{"perfectFor": {("a3", "late"): 1}, "buys": None}]


class TestIndexBackedRepair:
    def test_probes_share_one_index_build(self):
        """A selection is ``σ_{columns = constants}`` of the maintained
        extent, served by the view relation's lazy index: the reads of
        one binding pattern cost one ``index_builds`` between them (not
        one scan each, and no index on any EDB relation -- nothing is
        evaluated), a later mutation none at all -- the index is
        maintained incrementally -- and every answer equals a full scan
        of the extent."""
        program = paper.example_1_1_program()
        n = 8
        service = QueryService(
            program, _chain_db(n),
            ServiceConfig(workers=2, incremental=True, trace_sample=1.0),
        )

        def index_builds() -> int:
            counters = service.metrics_dict()["evaluator_counters"]
            return counters.get("index_builds", 0)

        def check_reads_against_full_scan() -> int:
            extent = service._view.db.tuples("buys")
            for i in range(1, 6):
                result = service.query(f"buys(a{i}, Y)?")
                assert result.ok and result.stats.iterations == 0
                assert result.answers == frozenset(
                    (x, y) for x, y in extent if x == f"a{i}")
                assert result.answers == oracle_answers(
                    program, service.edb, result.query)
            return len(result.answers)

        try:
            # Building the view indexes no column of ``buys``: the first
            # read of each binding pattern builds that pattern's index.
            before = index_builds()
            answers = check_reads_against_full_scan()
            assert index_builds() - before == 1
            for _ in range(3):
                assert len(service.query(f"buys(X, b{n})?")) == n
            assert index_builds() - before == 2
            assert sorted(service._view.db.relation("buys")._indexes) == [
                (0,), (1,)]

            # Every a_i reaches a_n, so the new gift reaches all five.
            before = index_builds()
            service.mutate(
                lambda db: db.add_fact("perfectFor", (f"a{n}", "gift"))
            )
            assert check_reads_against_full_scan() == answers + 1
            service.mutate(
                lambda db: db.remove_fact("perfectFor", (f"a{n}", "gift"))
            )
            assert check_reads_against_full_scan() == answers
            assert index_builds() == before
            assert service.metrics_dict()["view_probes"] == 18
            assert len(service.memo) == 0
        finally:
            service.close()


class TestWritesReindexNothing:
    def test_snapshot_indexes_survive_a_write(self):
        """After a write the new snapshot shares untouched relations
        (indexes included) with the old one and the mutated relation's
        copy adopts the old indexes patched by the delta, so the
        evaluations that follow -- a partial selection's sideways pass,
        its ``t_part`` and its seeds, asked for by strategy so that the
        view does not answer -- build no index on any EDB relation, and
        every snapshot's engine shares one analysis of the program."""
        program = paper.example_2_4_program()
        edb = Database.from_facts({
            "a": [("x", "y", "p0", "q0")]
            + [(f"p{i}", f"q{i}", f"p{i + 1}", f"q{i + 1}")
               for i in range(6)],
            "t0": [("p6", "q6", "z0"), ("x", "y", "z1")],
            "b": [(f"z{i}", f"z{i + 1}") for i in range(4)],
        })
        service = QueryService(
            program, edb, ServiceConfig(workers=1, incremental=True),
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
            assert len(service.query(
                "t(x, Y, Z)?", strategy="separable")) == 5
            old = service._snapshot()
            warm = edb_indexes(old)
            assert warm["a"] and warm["t0"] and warm["b"]
            for step in range(3):
                service.mutate(lambda db: db.add_fact(
                    "a", (f"new{step}", "y", "p0", "q0")))
                snap = service._snapshot()
                assert snap is not old and snap.db is not old.db
                # Untouched relation: the same object, indexes and all.
                assert snap.db.relation("b") is old.db.relation("b")
                # Mutated relation: a copy born with every old index.
                a = snap.db.relation("a")
                assert a is not old.db.relation("a")
                assert indexes_of(a).keys() == warm["a"].keys()
                assert len(a.lookup((0,), (f"new{step}",))) == 1
                assert snap.engine.report("t") is old.engine.report("t")
                # A new fingerprint: t_part is a miss, and the one seed,
                # (p0, q0), the entry the first query filled -- carried
                # over every write, as none met its read set.
                before = service.memo.stats()
                result = service.query(
                    f"t(new{step}, Y, Z)?", strategy="separable")
                after = service.memo.stats()
                assert (after["misses"], after["hits"]) == (
                    before["misses"] + 1, before["hits"] + 1)
                assert result.stats.iterations > 0
                assert len(result.answers) == 5
                assert result.answers == oracle_answers(
                    program, service.edb, result.query
                )
                # The evaluation indexed nothing that was not indexed.
                assert {k: v.keys() for k, v in edb_indexes(snap).items()} \
                    == {k: v.keys() for k, v in warm.items()}
                old, warm = snap, edb_indexes(snap)
        finally:
            service.close()
