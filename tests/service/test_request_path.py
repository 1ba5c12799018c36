"""One request, one pass through the service, engine and memo layers.

A warmed memo hit and a view read through ``QueryService.query(text)``
are held to a budget of Python-level calls (``sys.setprofile``
``"call"`` events: every function, method, property and generated
``__init__`` the request enters) -- what the path costs, counted rather
than timed, so the bound holds on any machine and interpreter.  And a
serial stream of every kind of request leaves the counts, trace ids and
results a request has always left.
"""

import sys

import pytest

from repro.datalog.errors import BudgetExceeded
from repro.datalog.parser import parse_query_memo as _atom
from repro.engine import Engine
from repro.service import FullSelectionMemo, QueryService, ServiceConfig
from repro.stats import EvaluationStats
from repro.workloads import paper

from ..conftest import oracle_answers

#: Python-level calls of one warmed request of each kind, as served
#: once its shape's query form, snapshot and memo entry (or view index)
#: exist.  56 for a memo hit and 31 for a view read before the request
#: path took each fixed cost once.
MEMO_HIT_CALLS = 36
VIEW_READ_CALLS = 20

TEXT = "buys(a1, Y)?"


def _service(**config) -> QueryService:
    return QueryService(paper.example_1_1_program(),
                        paper.example_1_1_database(8),
                        ServiceConfig(workers=1, **config))


def _calls(service: QueryService, text: str) -> list[str]:
    """The functions ``service.query(text)`` enters, in call order."""
    called: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = service.query(text)
    finally:
        sys.setprofile(None)
    assert result.ok
    return called


def test_a_memo_hit_stays_within_its_call_budget():
    with _service() as service:
        for _ in range(2):
            service.query(TEXT)
        hits = service.memo.stats()["hits"]
        called = _calls(service, TEXT)
        assert service.memo.stats()["hits"] == hits + 1
    assert len(called) <= MEMO_HIT_CALLS, called


def test_a_view_read_stays_within_its_call_budget():
    with _service(incremental=True) as service:
        for _ in range(2):
            service.query(TEXT)
        called = _calls(service, TEXT)
        assert service.metrics_dict()["view_probes"] == 3
    assert len(called) <= VIEW_READ_CALLS, called


def test_a_serial_stream_keeps_its_accounting(monkeypatch):
    """Memo misses and hits, a view read, a wall-clock trip retried, an
    unknown predicate and a memo that raises a non-``ReproError``: the
    counts, trace ids and results of each."""
    program, db = paper.example_1_1_program(), paper.example_1_1_database(8)
    want = {text: oracle_answers(program, db, _atom(text))
            for text in ("buys(a1, Y)?", "buys(a5, Y)?")}
    query, tripped = Engine.query, []

    def trip_once(self, *args, **kwargs):
        if not tripped:
            tripped.append(1)
            raise BudgetExceeded("wall clock exceeded", limit="wall_clock")
        return query(self, *args, **kwargs)

    def raising(self, key, compute):
        raise RuntimeError("memo down")

    with QueryService(program, db, ServiceConfig(
            workers=1, incremental=True, retry_backoff_s=0.0)) as service:
        fingerprint = service.edb.fingerprint()
        results = [service.query(text, strategy="separable") for text in (
            "buys(a1, Y)?", "buys(a1, Y)?", "buys(a5, Y)?", "buys(a5, Y)?")]
        results.append(service.query("buys(a1, Y)?"))  # the view
        with monkeypatch.context() as patch:
            patch.setattr(Engine, "query", trip_once)
            results.append(service.query("buys(a5, Y)?",
                                         strategy="separable"))
        results.append(service.query("nope(a1, Y)?"))
        with monkeypatch.context() as patch:
            patch.setattr(FullSelectionMemo, "get_or_run", raising)
            with pytest.raises(RuntimeError, match="memo down"):
                service.query("buys(a3, Y)?", strategy="separable")
        last = service.query("buys(a1, Y)?", strategy="separable")
        metrics = service.metrics_dict()
        memo = service.memo.stats()

    assert {key: metrics[key] for key in (
        "requests_submitted", "requests_completed", "queue_depth",
        "in_flight", "by_status", "deadline_trips", "retries")} == {
        "requests_submitted": 9, "requests_completed": 9, "queue_depth": 0,
        "in_flight": 0, "by_status": {"ok": 7, "error": 2},
        "deadline_trips": 1, "retries": 1}
    assert metrics["latency_s"]["count"] == 9
    assert metrics["view_probes"] == 1
    assert (memo["hits"], memo["misses"]) == (4, 2)
    ids = [r.trace_id for r in results] + [last.trace_id]
    # The request that raised took req-00000008.
    assert ids == [f"req-{n:08x}" for n in (1, 2, 3, 4, 5, 6, 7, 9)]

    def fields(result) -> dict:
        return {name: getattr(result, name) for name in (
            "query", "strategy", "status", "answers", "stats", "fingerprint",
            "attempts", "error", "limit", "partial", "trace_id")}

    evaluated = [0, 1, 2, 3, 5]
    for i in evaluated:
        result = results[i]
        text = str(result.query) + "?"
        assert fields(result) == {
            "query": _atom(text), "strategy": "separable", "status": "ok",
            "answers": want[text], "stats": result.result.stats,
            "fingerprint": fingerprint, "attempts": 1 + (i == 5),
            "error": None, "limit": None, "partial": None,
            "trace_id": ids[i]}
        assert (result.result.query, result.result.answers,
                result.result.strategy) == (_atom(text), want[text],
                                            "separable")
    # A hit reports the work of the miss that made its entry.
    assert results[1].stats == results[0].stats
    assert results[3].stats == results[2].stats == results[5].stats
    assert fields(results[4]) == {
        "query": _atom(TEXT), "strategy": "view", "status": "ok",
        "answers": want[TEXT], "stats": EvaluationStats(strategy="view"),
        "fingerprint": fingerprint, "attempts": 1, "error": None,
        "limit": None, "partial": None, "trace_id": ids[4]}
    assert results[4].result is None
    assert fields(results[6]) == {
        "query": _atom("nope(a1, Y)?"), "strategy": "auto",
        "status": "error", "answers": frozenset(), "stats": None,
        "fingerprint": fingerprint, "attempts": 1,
        "error": "UnknownPredicateError: nope is not defined by the program",
        "limit": None, "partial": None, "trace_id": ids[6]}
    # The next request after the one that raised still answers.
    assert last.ok and last.answers == want[TEXT]
