"""Query forms: a query shape is compiled once, a request binds its
constants.

What is pinned here: a second request of a form runs no classification,
rewrite choice or plan compilation; a warm form answers and reports
exactly what a cold engine does; errors are never kept; the form table
is bounded by the program and shared by ``with_edb`` siblings but not
by a new ``Engine``; concurrent first requests all answer correctly;
and one parse memo serves every entry point given query text.
"""

import sys
import threading

import pytest

from repro.core.compiler import query_form
from repro.datalog.database import Database
from repro.datalog.errors import (
    ArityError,
    DatalogSyntaxError,
    NotFullSelectionError,
    NotSeparableError,
    UnknownPredicateError,
)
from repro.datalog.parser import parse_atom, parse_program, parse_query_memo
from repro.datalog.plan_cache import ORDERS
from repro.differential.oracle import _span_rows
from repro.engine import Engine
from repro.observability import Tracer
from repro.service import QueryService, ServiceConfig
from repro.stats import EvaluationStats
from repro.workloads import paper

from ..conftest import oracle_answers

#: What a form prepares once and a request must never run again.
PREPARED = ("classify_selection", "compile_plan", "choose_rewrite_class")


@pytest.fixture
def prepared(monkeypatch):
    """The names of the ``PREPARED`` functions called from now on,
    wherever in ``repro`` they are called from."""
    calls: list[str] = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for fn in PREPARED:
            original = getattr(module, fn, None)
            if original is None:
                continue

            def spy(*args, _fn=fn, _original=original, **kwargs):
                calls.append(_fn)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, fn, spy)
    return calls


def ex11_db() -> Database:
    return Database.from_facts({
        "friend": [("tom", "sue"), ("sue", "ann"), ("bob", "ann")],
        "idol": [("tom", "ann"), ("ann", "zoe")],
        "perfectFor": [("ann", "camera"), ("zoe", "kite"), ("sue", "cup")],
    })


def ex12_db() -> Database:
    return Database.from_facts({
        "friend": [("tom", "sue"), ("sue", "ann"), ("bob", "sue")],
        "cheaper": [("cup", "tent"), ("spork", "cup"), ("pin", "canoe")],
        "perfectFor": [("sue", "tent"), ("ann", "canoe")],
    })


def ex24_db() -> Database:
    return Database.from_facts({
        "a": [("c", "d", "m", "n"), ("m", "n", "g", "h"),
              ("c", "e", "g", "h"), ("k", "d", "m", "n")],
        "b": [("w0", "w1"), ("w1", "w2"), ("w2", "w0")],
        "t0": [("c", "d", "w0"), ("g", "h", "w0"), ("m", "n", "w1"),
               ("k", "k", "w2"), ("g", "g", "w1")],
    })


def lemma41():
    program = parse_program(
        "t(X1, X2, X3) :- a(X1, W1) & t(W1, X2, X3).\n"
        "t(X1, X2, X3) :- t0(X1, X2, X3).\n").program
    consts = [f"c{i}" for i in range(4)]
    db = Database.from_facts({
        "a": [(x, y) for x in consts for y in consts if x != y],
        "t0": [(x, y, z) for x in consts for y in consts for z in consts
               if (x, y, z) != ("c1", "c2", "c3")],
    })
    return program, db


#: (program, database, first request, a second of the same form).
CASES = {
    "full": (paper.example_1_2_program, ex12_db,
             "buys(tom, Y)?", "buys(bob, Y)?"),
    "partial": (paper.example_2_4_program, ex24_db,
                "t(c, Y, Z)?", "t(m, Y, Z)?"),
    "persistent": (paper.example_1_1_program, ex11_db,
                   "buys(X, camera)?", "buys(X, kite)?"),
    "residual": (paper.example_1_1_program, ex11_db,
                 "buys(tom, camera)?", "buys(sue, cup)?"),
    "repeated": (paper.example_2_4_program, ex24_db,
                 "t(k, Y, Y)?", "t(g, Y, Y)?"),
    "lemma41": (lambda: lemma41()[0], lambda: lemma41()[1],
                "t(c0, Y, Z)?", "t(c1, Y, Z)?"),
}


class TestPreparedOnce:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_second_request_prepares_nothing(self, case, prepared):
        program, db, first, second = CASES[case]
        program, db = program(), db()
        engine = Engine(program, db)
        engine.query(first)
        assert prepared, "the first request prepares its form"
        del prepared[:]
        result = engine.query(second)
        assert prepared == []
        assert result.answers == oracle_answers(program, db,
                                                parse_atom(second[:-1]))

    def test_the_plan_comes_from_the_form(self, prepared):
        engine = Engine(paper.example_1_2_program(), ex12_db())
        first = engine.query("buys(tom, Y)?")
        del prepared[:]
        second = engine.query("buys(bob, Y)?")
        assert prepared == []
        assert second.plan is first.plan is engine.plan_for("buys(sue, Y)?")
        assert engine.query("buys(X, tent)?").plan is not first.plan


def _run(engine, text, order, tracer):
    stats = EvaluationStats()
    result = engine.query(text, stats=stats, order=order, tracer=tracer)
    return result.answers, stats, _span_rows(tracer)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_answers_stats_and_spans(self, case, order):
        make_program, make_db, first, second = CASES[case]
        program, db = make_program(), make_db()
        warm = Engine(program, db)
        warm.query(first, order=order)
        got = _run(warm, second, order, Tracer())
        # A fresh engine: a new analysis, so no forms -- over the same
        # relations, so the same indexes.
        cold = Engine(program, db)
        assert cold.report(program.rules[0].head.predicate) \
            .analysis.query_forms == {}
        want = _run(cold, second, order, Tracer())
        assert got == want
        assert got[0] == oracle_answers(program, db, parse_atom(second[:-1]))


class TestErrorsAreNeverKept:
    def test_every_call_raises(self):
        program = paper.example_2_4_program()
        engine = Engine(program, ex24_db())
        engine.query("t(c, Y, Z)?")
        analysis = engine.report("t").analysis
        forms = dict(analysis.query_forms)
        bad = [
            (UnknownPredicateError, "nope(c, Y)?", "auto"),
            (ArityError, "t(c, Y)?", "separable"),
            (NotFullSelectionError, "t(c, Y, Z)?", "nodedup"),
            (NotFullSelectionError, "t(X, Y, Z)?", "separable"),
            (ValueError, "t(c, Y, Z)?", "adaptive"),
        ]
        for error, text, strategy in bad:
            for _ in range(2):
                with pytest.raises(error):
                    engine.query(text, strategy=strategy)
        for _ in range(2):
            with pytest.raises(ValueError):
                engine.query("t(c, Y, Z)?", order="adaptive")
            with pytest.raises(ValueError):
                query_form(analysis, parse_atom("s(c, Y, Z)"))
            with pytest.raises(ValueError):
                query_form(analysis, parse_atom("t(c, Y)"))
        kept = set(analysis.query_forms) - set(forms)
        # Only the all-free form was prepared: it runs nothing, and a
        # Separable request of it raises every time.
        assert len(kept) == 1
        assert query_form(analysis, parse_atom("t(X, Y, Z)")).plan is None

    def test_not_separable_raises_every_time(self):
        program = paper.section_5_nonseparable_program()
        engine = Engine(program, Database.from_facts(
            {"a": [("c", "d")], "b": [("d", "e")], "t0": [("d", "d")]}))
        for strategy in ("separable", "nodedup", "separable"):
            with pytest.raises(NotSeparableError):
                engine.query("t(c, Y)?", strategy=strategy)


class TestTheTable:
    def test_a_thousand_constants_leave_one_form(self):
        engine = Engine(paper.example_1_2_program(), ex12_db())
        for i in range(1000):
            engine.query(f"buys(p{i}, Y)?")
        assert len(engine.report("buys").analysis.query_forms) == 1

    def test_a_repeated_variable_is_its_own_form(self):
        program, db = paper.example_2_4_program(), ex24_db()
        engine = Engine(program, db)
        assert engine.query("t(g, Y, Z)?").answers
        assert engine.query("t(g, Y, Y)?").answers == oracle_answers(
            program, db, parse_atom("t(g, Y, Y)")) == frozenset()
        assert len(engine.report("t").analysis.query_forms) == 2

    def test_siblings_share_it_and_a_new_engine_starts_empty(self, prepared):
        program = paper.example_1_2_program()
        engine = Engine(program, ex12_db())
        engine.query("buys(tom, Y)?")
        del prepared[:]
        other = ex12_db()
        other.add_fact("friend", ("amy", "tom"))
        sibling = engine.with_edb(other)
        assert sibling.query("buys(amy, Y)?").answers == oracle_answers(
            program, other, parse_atom("buys(amy, Y)"))
        assert prepared == []
        fresh = Engine(program, ex12_db())
        assert fresh.report("buys").analysis.query_forms == {}

    def test_a_service_write_prepares_nothing(self, prepared):
        program = paper.example_1_2_program()
        with QueryService(program, ex12_db(),
                          ServiceConfig(workers=1)) as service:
            assert service.query("buys(tom, Y)?").ok
            del prepared[:]
            service.add_fact("friend", ("amy", "tom"))
            result = service.query("buys(amy, Y)?")
        assert prepared == []
        assert result.answers == {("amy", "tent"), ("amy", "cup"),
                                  ("amy", "spork"), ("amy", "canoe"),
                                  ("amy", "pin")}


class TestConcurrentFirstRequests:
    def test_four_threads_meet_a_new_form(self):
        program = paper.example_2_4_program()
        db = ex24_db()
        texts = ["t(c, Y, Z)?", "t(m, Y, Z)?", "t(k, Y, Z)?", "t(g, Y, Z)?"]
        want = {t: oracle_answers(program, db, parse_atom(t[:-1]))
                for t in texts}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # a fresh engine: a new form each round
                engine = Engine(program, db)
                barrier = threading.Barrier(len(texts))
                got: dict[str, frozenset] = {}

                def ask(text):
                    barrier.wait(timeout=60)
                    got[text] = engine.query(text).answers

                threads = [threading.Thread(target=ask, args=(t,))
                           for t in texts]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert got == want
                assert len(engine.report("t").analysis.query_forms) == 1
        finally:
            sys.setswitchinterval(interval)


class TestOneParseMemo:
    def test_an_engine_parses_a_text_once(self):
        engine = Engine(paper.example_1_2_program(), ex12_db())
        parse_query_memo.cache_clear()
        for _ in range(5):
            engine.query("buys(tom, Y)?")
        engine.plan_for("buys(tom, Y)?")
        engine.advise("buys(tom, Y)?")
        engine.profile("buys(tom, Y)?")
        memo = parse_query_memo.cache_info()
        assert (memo.misses, memo.hits) == (1, 7)

    def test_a_malformed_text_raises_every_time(self):
        engine = Engine(paper.example_1_2_program(), ex12_db())
        parse_query_memo.cache_clear()
        for _ in range(3):
            with pytest.raises(DatalogSyntaxError):
                engine.query("buys(tom Y)?")
        memo = parse_query_memo.cache_info()
        assert (memo.misses, memo.currsize) == (3, 0)
