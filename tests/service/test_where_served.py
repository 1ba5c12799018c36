"""Where a request runs: a view read on the caller's thread, everything
that can evaluate on a ``repro-service`` worker -- and the parse memo
in front of both.

An ``auto`` read of a derived predicate in an incremental service is
one lookup on the maintained view; it is answered where it arrives,
with no hand-off and (through ``query``) no future.  The request around
it -- trace id, sampling, slowlog, events, accounting -- is the one a
worker would have served.
"""

import sys
import threading

import pytest

import repro.service.service as service_module
from repro.datalog.database import Database
from repro.datalog.errors import DatalogSyntaxError
from repro.engine import Engine
from repro.maintenance import MaintainedView
from repro.observability import RingBufferSink
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


def _service(incremental: bool = True, **config) -> QueryService:
    config.setdefault("workers", 2)
    return QueryService(
        paper.example_1_1_program(), _chain_db(6),
        ServiceConfig(incremental=incremental, **config),
    )


@pytest.fixture
def threads_seen(monkeypatch):
    """``(select, evaluate)``: the names of the threads that read the
    view and that ran ``Engine.query``, in call order."""
    select, evaluate = MaintainedView.select, Engine.query
    seen = ([], [])

    def recording_select(self, *args, **kwargs):
        seen[0].append(threading.current_thread().name)
        return select(self, *args, **kwargs)

    def recording_query(self, *args, **kwargs):
        seen[1].append(threading.current_thread().name)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(MaintainedView, "select", recording_select)
    monkeypatch.setattr(Engine, "query", recording_query)
    return seen


def _on_a_worker(names) -> bool:
    return bool(names) and all(n.startswith("repro-service") for n in names)


class TestWhereARequestRuns:
    def test_a_view_read_runs_on_the_calling_thread(self, threads_seen):
        selects, evaluations = threads_seen
        caller = threading.current_thread().name
        with _service() as service:
            result = service.query("buys(a1, Y)?")
            future = service.submit("buys(a2, Y)?")
            assert future.done()
            assert future.result().strategy == result.strategy == "view"
            assert service.metrics_dict()["view_probes"] == 2
        assert selects == [caller, caller]
        assert evaluations == []

    @pytest.mark.parametrize("incremental,text,strategy", [
        (True, "buys(a1, Y)?", "separable"),   # a named strategy
        (True, "friend(a1, Y)?", "auto"),      # an EDB predicate
        (False, "buys(a1, Y)?", "auto"),       # no view at all
    ])
    def test_a_request_that_can_evaluate_runs_on_a_worker(
            self, threads_seen, incremental, text, strategy):
        selects, evaluations = threads_seen
        with _service(incremental) as service:
            service.query(text, strategy=strategy)
            service.submit(text, strategy=strategy).result(timeout=60)
            assert service.metrics_dict()["view_probes"] == 0
        assert selects == []
        assert len(evaluations) == 2 and _on_a_worker(evaluations)

    def test_a_stale_view_hands_the_read_to_a_worker(self, threads_seen):
        """A direct ``service.edb`` write leaves the view behind: the
        read evaluates on a worker and still gives the oracle's
        answer."""
        selects, evaluations = threads_seen
        with _service() as service:
            service.edb.add_fact("perfectFor", ("a3", "direct"))
            result = service.query("buys(a1, Y)?")
            again = service.submit("buys(a1, Y)?").result(timeout=60)
            assert result.strategy == again.strategy == "separable"
            assert ("a1", "direct") in result.answers
            assert result.answers == oracle_answers(
                service.program, service.edb, result.query)
            assert service.metrics_dict()["view_probes"] == 0
        assert selects == []
        assert len(evaluations) == 2 and _on_a_worker(evaluations)


class TestInlineReadsUnderConcurrency:
    def test_four_clients_beside_a_writer_match_the_serial_oracle(
            self, threads_seen):
        """4 client threads read while a fifth writes through
        ``mutate()``: every answer is the serial answer on the
        fingerprint it reports, every read was a view read on its own
        client's thread, and no request is left queued or in flight."""
        selects, _ = threads_seen
        service = _service(workers=2)
        program = service.program
        states = {service.edb.fingerprint(): service.edb.copy()}
        reads_per_client, writes = 60, 30
        results: dict[str, list] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(5)

        def record(fn):
            def wrapped(db):
                fn(db)
                states[db.fingerprint()] = db.copy()

            service.mutate(wrapped)

        def client(k: int) -> None:
            name = threading.current_thread().name
            got = results[name] = []
            try:
                start.wait(timeout=30)
                for i in range(reads_per_client):
                    got.append(service.query(f"buys(a{(i + k) % 6 + 1}, Y)?"))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        def writer() -> None:
            try:
                start.wait(timeout=30)
                for i in range(writes):  # add a gift, then take it back
                    fact = (f"a{i // 2 % 6 + 1}", f"gift{i // 2}")
                    how = "remove_fact" if i % 2 else "add_fact"
                    record(lambda db, f=fact, how=how:
                           getattr(db, how)("perfectFor", f))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,),
                                    name=f"client-{k}") for k in range(4)]
        threads.append(threading.Thread(target=writer, name="writer"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            metrics = service.metrics_dict()
        finally:
            sys.setswitchinterval(interval)
            service.close()

        assert errors == []
        served = [r for got in results.values() for r in got]
        assert len(served) == 4 * reads_per_client
        oracle: dict[tuple, frozenset] = {}
        for result in served:
            assert result.ok and result.strategy == "view"
            assert result.fingerprint in states
            key = (result.fingerprint, str(result.query))
            if key not in oracle:
                oracle[key] = oracle_answers(
                    program, states[result.fingerprint], result.query)
            assert result.answers == oracle[key], str(result.query)
        assert sorted(set(selects)) == sorted(results)
        assert metrics["in_flight"] == metrics["queue_depth"] == 0
        assert metrics["view_probes"] == len(served)
        assert metrics["view_repairs"] == writes
        assert metrics["view_rebuilds"] == 0


class TestInlineReadTelemetry:
    @pytest.mark.parametrize("config", [
        {"trace_sample": 1.0},
        {"slow_query_threshold_s": 0.0},
    ])
    def test_an_inline_read_lands_its_slowlog_record(self, config):
        with _service(**config) as service:
            result = service.query("buys(a1, Y)?")
            assert result.strategy == "view"
            (record,) = service.slowlog()
            phases = service.metrics_dict()["evaluator_phases"]
        assert record["schema"] == "repro-slowlog/1"
        assert record["trace_id"] == result.trace_id
        assert record["strategy"] == "view"
        # The request's one span is the lookup.
        assert record["spans"] == 1
        assert phases["service.view_read"]["count"] == 1

    def test_an_escaping_exception_still_completes_the_request(
            self, monkeypatch):
        def broken(self, *args, **kwargs):
            raise RuntimeError("select broke")

        monkeypatch.setattr(MaintainedView, "select", broken)
        sink = RingBufferSink()
        service = QueryService(
            paper.example_1_1_program(), _chain_db(6),
            ServiceConfig(workers=1, incremental=True), sink=sink)

        def requests() -> list:
            return [e for e in sink.events
                    if e.get("type") == "service_request"]

        try:
            with pytest.raises(RuntimeError, match="select broke"):
                service.query("buys(a1, Y)?")
            assert service.metrics.in_flight == 0
            assert [e["status"] for e in requests()] == ["error"]
            future = service.submit("buys(a1, Y)?")
            assert future.done()
            with pytest.raises(RuntimeError, match="select broke"):
                future.result()
            assert service.metrics.in_flight == 0
            assert service.metrics.queue_depth == 0
            assert [e["status"] for e in requests()] == ["error", "error"]
        finally:
            service.close()


class TestParseMemo:
    def test_one_text_is_parsed_once(self, monkeypatch):
        parses = []
        parse = service_module.parse_query

        def counting(text):
            parses.append(text)
            return parse(text)

        monkeypatch.setattr(service_module, "parse_query", counting)
        with _service(incremental=False) as service:
            first = service.query("buys(a1, Y)?")
            second = service.submit("buys(a1, Y)?").result(timeout=60)
        assert first.query is second.query
        assert parses == ["buys(a1, Y)?"]

    def test_a_malformed_text_raises_every_time_and_is_not_kept(self):
        with _service() as service:
            for _ in range(2):
                with pytest.raises(DatalogSyntaxError):
                    service.submit("buys(a1 Y")
            memo = service._parse.cache_info()
            assert (memo.misses, memo.currsize) == (2, 0)
            assert service.metrics_dict()["requests_submitted"] == 0

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(service_module, "PARSE_MEMO_SIZE", 4)
        with _service() as service:
            for i in range(1, 7):
                assert service.query(f"buys(a{i}, Y)?").ok
                assert service._parse.cache_info().currsize <= 4
            # The four latest texts stay; the first is parsed anew.
            service.query("buys(a6, Y)?")
            service.query("buys(a1, Y)?")
            memo = service._parse.cache_info()
        assert (memo.hits, memo.misses, memo.currsize) == (1, 7, 4)
