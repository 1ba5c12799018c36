"""QueryService: statuses, deadlines, retries, snapshots, metrics, events."""

import gc
import weakref

import pytest

from repro.budget import Budget
from repro.datalog.database import Database
from repro.datalog.errors import DatalogSyntaxError
from repro.observability import JsonlFileSink, read_events
from repro.service import QueryService, ServiceConfig
from repro.workloads import paper

from ..conftest import oracle_answers


@pytest.fixture
def ex11():
    program = paper.example_1_1_program()
    db = Database.from_facts(
        {
            "friend": [("tom", "sue"), ("sue", "ann"), ("ann", "joe")],
            "idol": [("tom", "ann"), ("joe", "kim")],
            "perfectFor": [
                ("ann", "camera"),
                ("kim", "tent"),
                ("sue", "boat"),
            ],
        }
    )
    return program, db


@pytest.fixture
def ex24():
    """Example 2.4 data where ``t(x0, Y, Z)?`` is a partial selection."""
    program = paper.example_2_4_program()
    n = 8
    db = Database.from_facts(
        {
            "a": [
                (f"x{i}", f"y{i}", f"x{i + 1}", f"y{i + 1}")
                for i in range(n)
            ],
            "b": [(f"w{i}", f"w{i + 1}") for i in range(n)],
            "t0": [(f"x{i}", f"y{i}", "w0") for i in range(n + 1)],
        }
    )
    return program, db


class TestServing:
    def test_ok_result_matches_oracle(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            result = service.query("buys(tom, Y)?")
        from repro.datalog.parser import parse_query

        assert result.ok and result.status == "ok"
        assert result.strategy == "separable"
        assert result.answers == oracle_answers(
            program, db, parse_query("buys(tom, Y)?")
        )
        assert result.attempts == 1
        assert result.stats is not None
        assert result.latency_s >= 0.0

    def test_batch_preserves_submission_order(self, ex11):
        program, db = ex11
        queries = ["buys(tom, Y)?", "buys(sue, Y)?", "buys(tom, Y)?"]
        with QueryService(program, db) as service:
            results = service.batch(queries)
        assert [str(r.query) for r in results] == [
            "buys(tom, Y)", "buys(sue, Y)", "buys(tom, Y)",
        ]
        assert results[0].answers == results[2].answers

    def test_repeats_hit_the_memo(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            service.batch(["buys(tom, Y)?"] * 10)
            stats = service.memo.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 9

    def test_submit_after_close_raises(self, ex11):
        program, db = ex11
        service = QueryService(program, db)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit("buys(tom, Y)?")

    def test_malformed_query_fails_in_caller(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            with pytest.raises(DatalogSyntaxError):
                service.submit("buys(tom Y")

    def test_unknown_predicate_is_an_error_result(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            result = service.query("nope(tom, Y)?")
        assert result.status == "error"
        assert not result.answers
        assert "UnknownPredicateError" in result.error


    @pytest.mark.parametrize("incremental", [False, True])
    def test_wrong_arity_is_an_error_result(self, ex11, incremental):
        program, db = ex11
        config = ServiceConfig(workers=1, incremental=incremental)
        with QueryService(program, db, config) as service:
            for strategy in ("auto", "separable", "magic"):
                result = service.query("buys(tom)?", strategy=strategy)
                assert result.status == "error" and not result.answers
                assert "ArityError" in result.error
            assert service.metrics.in_flight == 0
            assert service.query("buys(tom, Y)?").ok

    @pytest.mark.parametrize("incremental", [False, True])
    def test_an_escaping_exception_closes_the_request(
            self, ex11, incremental, tmp_path, monkeypatch):
        """Whatever leaks out of an evaluation reaches the caller through
        the future -- and the request is still accounted for: counted,
        logged, and no longer in flight."""
        from repro.engine import Engine

        program, db = ex11
        path = tmp_path / "events.jsonl"
        sink = JsonlFileSink(path)
        config = ServiceConfig(workers=1, incremental=incremental)
        with QueryService(program, db, config, sink=sink) as service:
            def boom(self, *args, **kwargs):
                raise RuntimeError("boom")

            with monkeypatch.context() as patch:
                patch.setattr(Engine, "query", boom)
                with pytest.raises(RuntimeError, match="boom"):
                    service.query("buys(tom, Y)?", strategy="magic")
            assert service.metrics.in_flight == 0
            assert service.metrics.queue_depth == 0
            assert service.metrics_dict()["by_status"] == {"error": 1}
            assert service.query("buys(tom, Y)?").ok
        sink.close()
        requests = [e for e in read_events(path)
                    if e["type"] == "service_request"]
        assert [e["status"] for e in requests] == ["error", "ok"]


class TestSnapshots:
    @pytest.mark.parametrize("gone", ["snapshot_cache_size", "db_path"])
    def test_removed_config_fields_are_ordinary_errors(self, gone):
        with pytest.raises(TypeError, match=gone):
            ServiceConfig(**{gone: 1})

    def test_mutation_changes_fingerprint_and_answers(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            before = service.query("buys(tom, Y)?")
            service.add_fact("perfectFor", ("joe", "kayak"))
            after = service.query("buys(tom, Y)?")
        assert before.fingerprint != after.fingerprint
        assert after.answers > before.answers
        assert ("tom", "kayak") in after.answers

    def test_snapshots_are_shared_per_fingerprint(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            service.batch(["buys(tom, Y)?", "buys(sue, Y)?"] * 3)
            metrics = service.metrics_dict()
        assert metrics["snapshots_created"] == 1

    @pytest.mark.parametrize("incremental", [False, True])
    def test_one_current_snapshot_and_readers_keep_theirs(
            self, ex11, incremental):
        """Relation versions only grow, so an older fingerprint cannot
        recur: a write replaces the one snapshot the service holds, and
        a request that already took the old one finishes on it."""
        program, db = ex11
        config = ServiceConfig(workers=1, incremental=incremental)
        with QueryService(program, db, config) as service:
            started = service._snapshot()  # a request dequeued here ...
            earlier = []
            for i in range(6):
                assert service.query("buys(tom, Y)?").ok
                earlier.append(weakref.ref(service._snapshot().db))
                service.add_fact("perfectFor", ("sue", f"item{i}"))
            latest = service.query("buys(tom, Y)?")
            # ... still answers from the state it started on.
            old = started.engine.query("buys(tom, Y)?")
            assert not any("item" in str(y) for _, y in old.answers)
            assert {("tom", f"item{i}") for i in range(6)} <= latest.answers
            assert service._snapshot().fingerprint == latest.fingerprint
            del started, old
            gc.collect()
            assert [ref() for ref in earlier] == [None] * 6

    def test_memo_is_scoped_to_the_snapshot(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            before = service.query("buys(tom, Y)?")
            service.add_fact("perfectFor", ("sue", "kayak"))
            after = service.query("buys(tom, Y)?")
        # Same query, new fingerprint: a fresh miss, never a stale hit.
        assert service.memo.stats()["misses"] == 2
        assert ("tom", "kayak") in after.answers
        assert ("tom", "kayak") not in before.answers


@pytest.fixture(params=["memory", "sqlite", "sqlite:path"])
def backend_spec(request, tmp_path):
    spec = request.param
    return f"sqlite:{tmp_path / 'edb.db'}" if spec == "sqlite:path" else spec


class TestSnapshotSharing:
    """A snapshot after a write shares what the write left alone, on
    every backend."""

    @staticmethod
    def service(ex11, backend_spec, **config):
        program, db = ex11
        return QueryService(program, db, ServiceConfig(
            workers=1, backend=backend_spec, **config))

    def test_unwritten_relations_are_the_same_objects(
            self, ex11, backend_spec):
        with self.service(ex11, backend_spec) as service:
            assert service.query("buys(tom, Y)?").ok
            held = service._snapshot()
            service.add_fact("perfectFor", ("joe", "kayak"))
            after = service.query("buys(tom, Y)?")
            assert ("tom", "kayak") in after.answers
            now = service._snapshot()
            assert now is not held and now.db is not held.db
            assert now.db.relation("perfectFor") \
                is not held.db.relation("perfectFor")
            # A durable file pins new connections instead (nothing copied).
            shares = not backend_spec.startswith("sqlite:")
            for name in ("friend", "idol"):
                assert (now.db.relation(name)
                        is held.db.relation(name)) == shares
            # The request that took the older snapshot finishes on it.
            old = held.engine.query("buys(tom, Y)?")
            assert ("tom", "kayak") not in old.answers
            assert old.answers == after.answers - {("tom", "kayak")}
            assert service.metrics_dict()["snapshots_created"] == 2

    def test_add_delete_cycle_answers_like_a_fresh_service(
            self, ex11, backend_spec):
        """16 states, each compared with a service built on that state."""
        program, db = ex11
        pool = [("friend", (f"new{i}", "sue")) for i in range(4)] \
            + [("perfectFor", ("joe", f"gift{i}")) for i in range(4)]
        writes = [("add", w) for w in pool] \
            + [("del", w) for w in reversed(pool)]
        queries = ["buys(tom, Y)?", "buys(new1, Y)?", "buys(X, gift2)?",
                   "buys(X, camera)?"]
        facts = {name: set(db.tuples(name)) for name in db.predicates()}
        with self.service(ex11, backend_spec) as service:
            for op, (name, fact) in writes:
                if op == "add":
                    service.add_fact(name, fact)
                    facts[name].add(fact)
                else:
                    service.mutate(lambda d: d.remove_fact(name, fact))
                    facts[name].discard(fact)
                with QueryService(program, Database.from_facts(facts),
                                  ServiceConfig(workers=1)) as fresh:
                    for query in queries:
                        got, want = service.query(query), fresh.query(query)
                        assert got.ok and want.ok
                        assert got.answers == want.answers, (op, fact, query)
            assert service.metrics_dict()["snapshots_created"] == 16

    def test_a_readers_engine_leaves_a_durable_file_unindexed(
            self, ex11, tmp_path):
        import sqlite3

        path = tmp_path / "edb.db"
        with self.service(ex11, f"sqlite:{path}") as service:
            assert service.query("buys(tom, Y)?").ok
            service.add_fact("perfectFor", ("joe", "kayak"))
            assert service.query("buys(X, kayak)?").ok
        conn = sqlite3.connect(path)
        try:
            assert conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND name LIKE 'idx_rel_%'").fetchall() == []
        finally:
            conn.close()

    @pytest.mark.parametrize("incremental", [False, True])
    def test_indexes_survive_a_write_in_memory(self, ex11, incremental):
        """The written relation's copy adopts the previous snapshot's
        indexes and the others are shared, so a small write makes no
        request rebuild one -- with or without the maintained view."""
        program, db = ex11
        for i in range(12):     # a one-fact write moves < 1/4 of each
            db.add_fact("friend", (f"p{i}", "tom"))
            db.add_fact("perfectFor", (f"p{i}", f"thing{i}"))
        config = ServiceConfig(workers=1, incremental=incremental,
                               trace_sample=1.0)
        with QueryService(program, db, config) as service:
            service.query("buys(p1, Y)?", strategy="separable")

            def builds():
                return service.metrics_dict()["evaluator_counters"].get(
                    "index_builds", 0)

            before = builds()
            assert before > 0
            service.add_fact("perfectFor", ("joe", "kayak"))
            after = service.query("buys(p2, Y)?", strategy="separable")
            assert ("p2", "kayak") in after.answers
            assert builds() == before
            metrics = service.metrics_dict()
            # A view changes nothing about a request that names a
            # strategy: no write captures a snapshot, each read's does.
            assert (metrics["snapshots_repaired"],
                    metrics["snapshots_created"]) == (0, 2)


class TestDegradation:
    def test_partial_result_carries_completed_branches(self, ex24):
        program, db = ex24
        config = ServiceConfig(budget=Budget(max_total_tuples=24))
        with QueryService(program, db, config) as service:
            result = service.query("t(x0, Y, Z)?")
        assert result.status == "partial"
        assert result.limit == "total_tuples"
        assert result.partial is not None
        assert result.answers == result.partial.answers
        assert result.answers  # the t_part branch completed
        assert result.stats is not None and result.stats.tuples_produced > 0
        assert result.attempts == 1  # tuple trips are not retryable

    def test_budget_error_without_partial(self, ex24):
        program, db = ex24
        config = ServiceConfig(budget=Budget(max_total_tuples=5))
        with QueryService(program, db, config) as service:
            result = service.query("t(x0, Y, Z)?")
        assert result.status in ("partial", "error")
        if result.status == "error":
            assert not result.answers
        assert result.limit == "total_tuples"

    def test_deadline_trips_and_retries(self):
        # Counting on Example 1.1 builds an Omega(2^n) count relation:
        # effectively divergent at n=26, so every attempt trips its wall
        # clock until the deadline is spent.
        program = paper.example_1_1_program()
        db = paper.example_1_1_database(26)
        # A per-attempt wall limit (no overall deadline) retries until
        # max_retries is spent -- there is always "time remaining".
        config = ServiceConfig(
            max_retries=1,
            retry_backoff_s=0.01,
            budget=Budget(max_wall_seconds=0.05),
        )
        with QueryService(program, db, config) as service:
            result = service.query("buys(a1, Y)?", strategy="counting")
            metrics = service.metrics_dict()
        assert result.status == "error"
        assert result.limit == "wall_clock"
        assert result.attempts == 2  # initial + one retry
        assert metrics["retries"] == 1
        assert metrics["deadline_trips"] == 2

    def test_default_deadline_from_config(self):
        program = paper.example_1_1_program()
        db = paper.example_1_1_database(26)
        config = ServiceConfig(default_deadline_s=0.1, max_retries=0)
        with QueryService(program, db, config) as service:
            result = service.query("buys(a1, Y)?", strategy="counting")
        assert result.status == "error"
        assert result.limit == "wall_clock"
        assert result.attempts == 1


class TestObservability:
    def test_metrics_text_exposition(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            service.batch(["buys(tom, Y)?"] * 4)
            text = service.metrics_text()
        assert 'repro_service_requests_total{status="ok"} 4' in text
        assert "repro_service_latency_seconds_count 4" in text
        assert 'repro_service_memo_events_total{kind="hits"} 3' in text
        assert "repro_service_snapshots_total 1" in text
        # Evaluator counters aggregate through the shared MetricsTracer
        # under the same names the offline trace exporter uses.
        assert "repro_iterations_total" in text

    def test_metrics_dict_shape(self, ex11):
        program, db = ex11
        with QueryService(program, db) as service:
            service.query("buys(tom, Y)?")
            snap = service.metrics_dict()
        assert snap["requests_submitted"] == 1
        assert snap["by_status"] == {"ok": 1}
        assert snap["queue_depth"] == 0 and snap["in_flight"] == 0
        assert snap["latency_s"]["count"] == 1
        assert snap["memo"]["misses"] == 1
        assert "iterations" in snap["evaluator_counters"]

    def test_event_stream_is_replayable(self, ex11, tmp_path):
        program, db = ex11
        path = tmp_path / "service_events.jsonl"
        sink = JsonlFileSink(path)
        try:
            with QueryService(program, db, sink=sink) as service:
                service.batch(["buys(tom, Y)?", "buys(sue, Y)?"])
        finally:
            sink.close()
        events = read_events(path)
        assert events[0]["type"] == "trace_start"
        requests = [e for e in events if e["type"] == "service_request"]
        assert len(requests) == 2
        assert all(e["status"] == "ok" for e in requests)
        assert all("latency_s" in e and "queue_depth" in e for e in requests)
