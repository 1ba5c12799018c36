"""Where a request runs: every ``query()`` on the thread that asks,
every ``submit()`` on a ``repro-service`` worker -- and the parse memo
in front of both.

``query()`` serves its request where it arrives, whatever it turns out
to be -- one lookup on the maintained view or an evaluation on a
snapshot -- with no hand-off and no future; ``submit()`` always
enqueues.  The request around it -- trace id, sampling, slowlog, events,
accounting -- is the same either way.
"""

import sys
import threading
import time
from collections import Counter

import pytest

import repro.core.api as api_module
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


def _stale(service: QueryService) -> None:
    """Leave the view behind: a write straight to ``service.edb``."""
    service.edb.add_fact("perfectFor", ("a3", "direct"))


#: ``(incremental, text, strategy, stale, served by)``: every kind of
#: request, and what answers it.
KINDS = [
    (True, "buys(a1, Y)?", "auto", False, "view"),         # a view read
    (True, "buys(a1, Y)?", "separable", False, "engine"),  # named strategy
    (True, "friend(a1, Y)?", "auto", False, "engine"),     # EDB predicate
    (False, "buys(a1, Y)?", "auto", False, "engine"),      # plain service
    (True, "buys(a1, Y)?", "auto", True, "engine"),        # a stale view
]


class TestWhereARequestRuns:
    @pytest.mark.parametrize("incremental,text,strategy,stale,by", KINDS)
    def test_every_query_runs_on_the_calling_thread(
            self, threads_seen, incremental, text, strategy, stale, by):
        selects, evaluations = threads_seen
        caller = threading.current_thread().name
        with _service(incremental) as service:
            if stale:
                _stale(service)
            handed = []
            service._executor.submit = lambda *a, **k: handed.append(a)
            result = service.query(text, strategy=strategy)
            assert handed == []
            # An EDB predicate is refused, but refused right here.
            assert result.ok == (result.query.predicate == "buys")
            if result.ok:
                assert result.answers == oracle_answers(
                    service.program, service.edb, result.query)
            probes = service.metrics_dict()["view_probes"]
        served = selects if by == "view" else evaluations
        assert served == [caller]
        assert len(selects) + len(evaluations) == 1
        assert probes == (by == "view")

    def test_a_view_read_runs_on_the_calling_thread(self, threads_seen):
        selects, evaluations = threads_seen
        caller = threading.current_thread().name
        with _service() as service:
            first = service.query("buys(a1, Y)?")
            second = service.query("buys(a2, Y)?")
            assert first.strategy == second.strategy == "view"
            assert service.metrics_dict()["view_probes"] == 2
        assert selects == [caller, caller]
        assert evaluations == []

    def test_a_submitted_view_read_runs_on_a_worker(self, threads_seen):
        """The hand-off is what ``submit()`` is for, even where the
        request is one lookup."""
        selects, evaluations = threads_seen
        with _service() as service:
            result = service.submit("buys(a1, Y)?").result(timeout=60)
            assert result.strategy == "view"
        assert _on_a_worker(selects) and len(selects) == 1
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
            service.submit(text, strategy=strategy).result(timeout=60)
            service.batch([text], strategy=strategy)
            assert service.metrics_dict()["view_probes"] == 0
        assert selects == []
        assert len(evaluations) == 2 and _on_a_worker(evaluations)

    def test_a_stale_view_hands_the_read_to_a_worker(self, threads_seen):
        """A direct ``service.edb`` write leaves the view behind: a
        submitted read evaluates on a worker (a ``query()`` evaluates
        where it is asked) and both give the oracle's answer."""
        selects, evaluations = threads_seen
        caller = threading.current_thread().name
        with _service() as service:
            _stale(service)
            again = service.submit("buys(a1, Y)?").result(timeout=60)
            result = service.query("buys(a1, Y)?")
            assert result.strategy == again.strategy == "separable"
            assert ("a1", "direct") in again.answers
            assert result.answers == again.answers == oracle_answers(
                service.program, service.edb, result.query)
            assert service.metrics_dict()["view_probes"] == 0
        assert selects == []
        assert _on_a_worker(evaluations[:1]) and evaluations[1:] == [caller]


def _race(service: QueryService):
    """4 client threads ``query()`` while a fifth writes through
    ``mutate()``, every answer checked against the serial oracle on the
    fingerprint it reports; ``(served, writes, metrics, per_client)``:
    every result, the number of writes, the service metrics at the end
    and the reads each client thread made, by name."""
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
        assert result.ok
        assert result.fingerprint in states
        key = (result.fingerprint, str(result.query))
        if key not in oracle:
            oracle[key] = oracle_answers(
                service.program, states[result.fingerprint], result.query)
        assert result.answers == oracle[key], str(result.query)
    assert metrics["in_flight"] == metrics["queue_depth"] == 0
    return served, writes, metrics, Counter(
        {name: reads_per_client for name in results})


class TestInlineReadsUnderConcurrency:
    def test_four_clients_beside_a_writer_match_the_serial_oracle(
            self, threads_seen):
        """4 client threads read while a fifth writes through
        ``mutate()``: every answer is the serial answer on the
        fingerprint it reports, every read was a view read on its own
        client's thread, and no request is left queued or in flight."""
        selects, evaluations = threads_seen
        served, writes, metrics, per_client = _race(_service(workers=2))
        assert all(result.strategy == "view" for result in served)
        assert Counter(selects) == per_client and evaluations == []
        assert metrics["view_probes"] == len(served)
        assert metrics["view_repairs"] == writes
        assert metrics["view_rebuilds"] == 0

    def test_a_plain_service_evaluates_on_each_client_thread(
            self, threads_seen):
        """The same race without a view: every read is an evaluation,
        run on the thread of the client that asked for it."""
        selects, evaluations = threads_seen
        served, _, metrics, per_client = _race(
            _service(incremental=False, workers=2))
        assert all(result.strategy == "separable" for result in served)
        assert Counter(evaluations) == per_client and selects == []
        assert metrics["view_probes"] == 0


class TestCoalescing:
    def test_callers_asking_at_once_share_one_run_and_one_answer_set(
            self, monkeypatch):
        """K = 4 callers ask for one first-seen full selection: the
        first evaluates (held in ``execute_plan`` until the others wait
        on it), the other three coalesce onto its run, and all four
        return the memo entry's answer set itself."""
        with _service(incremental=False, workers=1) as twin:
            twin.query("buys(a1, Y)?")
            loops_for_one = twin.metrics.tracer.counter_total(
                "span:separable.loop")
        assert loops_for_one > 0

        execute, release = api_module.execute_plan, threading.Event()

        def held(*args, **kwargs):
            assert release.wait(timeout=60)
            return execute(*args, **kwargs)

        monkeypatch.setattr(api_module, "execute_plan", held)
        k = 4
        results: list = [None] * k
        start = threading.Barrier(k)
        with _service(incremental=False, workers=1) as service:
            def client(i: int) -> None:
                start.wait(timeout=30)
                results[i] = service.query("buys(a1, Y)?")

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(k)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            while (service.memo.stats()["coalesced"] < k - 1
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            release.set()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            loops = service.metrics.tracer.counter_total(
                "span:separable.loop")
            memo = service.memo.stats()
            (entry, _branch), = service.memo._entries.values()
        assert (memo["misses"], memo["coalesced"], memo["hits"]) == (
            1, k - 1, 0)
        assert loops == loops_for_one
        assert all(r.ok for r in results)
        assert all(r.answers is entry for r in results)


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
            with pytest.raises(RuntimeError, match="select broke"):
                future.result(timeout=60)
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
