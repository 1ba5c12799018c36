"""A memo miss absorbs the runs the memo already holds.

Figure 2's down loop is closed under its step, so a miss whose down loop
reaches a seed the memo has answered on the same state adds that seed's
whole ``seen_1`` and starts its up loop with that seed's ``seen_2``
(``FullSelectionMemo.seen_sets``, ``execute_plan(known=)``).  Closure
distributes over union for linear rules (Theorem 2.1), so every answer
here is checked against a memo-less ``Engine`` on the same state; the
tests also check that absorption happened at all.
"""

import random
import sys
import threading

import pytest

from repro.core.compiler import ReadSet, compile_plan
from repro.core.detection import require_separable
from repro.core.evaluator import _reference_loops, execute_plan
from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.terms import Constant, Variable
from repro.differential import CaseGenerator
from repro.engine import Engine
from repro.observability import trace_violations
from repro.service import FullSelectionMemo, QueryService, ServiceConfig
from repro.service.metrics import ServiceMetrics

from .test_memo_survival import SOCIAL, state, toggle


def communities(rng: random.Random, count: int = 3, size: int = 8,
                items: int = 12) -> Database:
    """``serve-read``'s shape, small: ``friend`` makes each community
    strongly connected (a ring plus a chord a member), ``idol`` leads to
    the next community only, ``cheaper`` is a price ladder."""
    people = [[f"u{c}_{k}" for k in range(size)] for c in range(count)]
    facts = {"friend": [], "idol": [], "cheaper": [], "perfectFor": []}
    for c, ring in enumerate(people):
        for k, u in enumerate(ring):
            facts["friend"] += [(u, ring[(k + 1) % size]),
                                (u, rng.choice(ring))]
        if c + 1 < count:
            facts["idol"] += [(rng.choice(ring), rng.choice(people[c + 1]))
                              for _ in range(2)]
    facts["cheaper"] = [(f"i{k}", f"i{k + 1}") for k in range(items - 1)]
    facts["perfectFor"] = [(rng.choice(ring), f"i{rng.randrange(items)}")
                           for ring in people for _ in range(3)]
    return Database.from_facts(facts)


def reads(rng: random.Random, count: int, rings: int = 3, size: int = 8,
          items: int = 12) -> list[str]:
    """``buys(u, Y)?`` 4:1 ``buys(X, i)?``, skewed to few seeds."""
    users = [f"u{k % rings}_{k // rings}" for k in range(rings * size)]
    return [f"buys({rng.choice(users[:rng.randint(1, len(users))])}, Y)?"
            if rng.random() < 0.8 else
            f"buys(X, i{rng.randrange(items)})?" for _ in range(count)]


def expected(program, db: Database, query) -> frozenset:
    return Engine(program, db).query(query, strategy="seminaive").answers


class TestExact:
    def test_absorbed_runs_equal_a_run_from_scratch(self):
        """Both ``seen`` sets of an absorbing run are a plain run's."""
        db = communities(random.Random(3))
        analysis = require_separable(SOCIAL, "buys")
        plan = compile_plan(analysis, selected_class=analysis.classes[0])
        known: dict = {}
        for k in range(8):
            seed = (f"u0_{k}",)
            plain, absorbing = [], []
            answers = execute_plan(plan, db, [seed], seen_1=plain)
            assert execute_plan(plan, db, [seed], seen_1=absorbing,
                                known=known) == answers
            assert absorbing[0] == plain[0]
            assert bool(absorbing[1]) == (k > 0)
            known[seed] = (plain[0], answers)

    def test_an_absorbed_seen_1_skips_the_exit_join(self, monkeypatch):
        """On a ring, ``u0_1``'s ``seen_1`` holds ``u0_0``: a miss from
        ``u0_0`` absorbs it whole and leaves the exit nothing to join,
        so the exit does not run.  Answers and books are those of the
        exit run on the empty rest, which examines nothing (planned on
        an empty ``seen_1``, its term gets no code), and the answers a
        plain run's."""
        import repro.core.evaluator as evaluator
        from repro.stats import EvaluationStats

        db = communities(random.Random(3))
        analysis = require_separable(SOCIAL, "buys")
        plan = compile_plan(analysis, selected_class=analysis.classes[0])
        seen: list = []
        first = execute_plan(plan, db, [("u0_1",)], seen_1=seen)
        assert ("u0_0",) in seen[0]
        known = {("u0_1",): (seen[0], first)}
        exits, exit_stage = [], evaluator._exit_stage
        monkeypatch.setattr(evaluator, "_exit_stage", lambda *args, **kw: (
            exits.append(args[1]), exit_stage(*args, **kw))[1])
        plain, absorbing = EvaluationStats(), EvaluationStats()
        answers = execute_plan(plan, db, [("u0_0",)], plain)
        assert len(exits) == 1
        seen = []
        assert execute_plan(plan, db, [("u0_0",)], absorbing, seen_1=seen,
                            known=known) == answers
        assert len(exits) == 1 and len(seen[1]) == 1  # absorbed, no exit
        # What the exit would have booked on the rest: nothing.
        rest = EvaluationStats()
        assert exit_stage(plan.exit_joins, {None: set()}, plan.seed_arity,
                          db, rest, "greedy") == {None: set()}
        assert (rest.tuples_examined, rest.tuples_produced) == (0, 0)
        assert absorbing.tuples_examined < plain.tuples_examined

    def test_the_reference_loop_never_absorbs(self):
        db = communities(random.Random(3))
        analysis = require_separable(SOCIAL, "buys")
        plan = compile_plan(analysis, selected_class=analysis.classes[0])
        seen: list = []
        first = execute_plan(plan, db, [("u0_0",)], seen_1=seen)
        known = {("u0_0",): (seen[0], first)}
        with _reference_loops():
            seen = []
            assert execute_plan(plan, db, [("u0_1",)], seen_1=seen,
                                known=known) == first
        assert seen[1] == []

    def test_a_table_serves_its_own_scope_only(self):
        """Two scopes of one memo on two states: a seed of one state is
        never absorbed by a miss on the other."""
        rng = random.Random(5)
        old = communities(rng)
        new = Database.from_facts({name: old.tuples(name)
                                   for name in old.predicates()})
        new.add_fact("perfectFor", ("u0_3", "prize"))
        memo = FullSelectionMemo()
        on_old = Engine(SOCIAL, old)
        on_new = Engine(SOCIAL, new)
        on_old.query("buys(u0_3, Y)?", memo=memo.scoped("old"))
        got = on_new.query("buys(u0_2, Y)?", memo=memo.scoped("new"))
        assert got.answers == expected(SOCIAL, new, "buys(u0_2, Y)?")
        assert ("u0_2", "prize") in got.answers
        assert memo.stats()["absorbed"] == 0
        got = on_new.query("buys(u0_1, Y)?", memo=memo.scoped("new"))
        assert got.answers == expected(SOCIAL, new, "buys(u0_1, Y)?")
        assert memo.stats()["absorbed"] == 1


class TestTables:
    def key(self, seed, scope="s"):
        return (scope, "form", (seed,), "greedy")

    def value(self, seed):
        return (frozenset(), None, ReadSet({}, {seed}, {(seed, "y")}))

    def test_the_table_follows_puts_evictions_carries_and_clears(self):
        memo = FullSelectionMemo(maxsize=2)
        memo.get_or_run(self.key("a"), lambda: self.value("a"))
        table = memo.seen_sets(self.key("z"))
        assert table == {("a",): ({"a"}, {("a", "y")})}
        memo.get_or_run(self.key("b"), lambda: self.value("b"))
        memo.get_or_run(self.key("c"), lambda: self.value("c"))  # evicts a
        assert sorted(table) == [("b",), ("c",)]
        memo.carry("s", "t", {})
        moved = memo.seen_sets(self.key("z", "t"))
        assert sorted(moved) == [("b",), ("c",)] and moved is not table
        memo.clear()
        assert memo.seen_sets(self.key("z", "t")) == {}
        assert sorted(moved) == [("b",), ("c",)]  # left behind, intact

    def test_a_scoped_memo_forwards_its_scope(self):
        memo = FullSelectionMemo()
        scoped = memo.scoped("s")
        scoped.get_or_run(self.key("a")[1:], lambda: self.value("a"))
        assert scoped.seen_sets(self.key("z")[1:]) is \
            memo.seen_sets(self.key("z"))
        assert ("a",) in memo.seen_sets(self.key("z"))


def test_traced_requests_keep_lemma_3_4(monkeypatch):
    """Every request of a ``trace_sample=1.0`` service over a
    ``serve-read``-shaped stream keeps ``seed + sum(carries) + absorbed
    == final_seen``, and some loop absorbed."""
    rng = random.Random(7)
    db = communities(rng)
    tracers = []
    absorb = ServiceMetrics.absorb

    def kept(self, tracer):
        tracers.append(tracer)
        absorb(self, tracer)

    monkeypatch.setattr(ServiceMetrics, "absorb", kept)
    with QueryService(SOCIAL, db, ServiceConfig(
            workers=2, trace_sample=1.0)) as service:
        for query in reads(rng, 150):
            got = service.query(query)
            assert got.ok and got.answers == expected(SOCIAL, db, query)
        absorbed = service.memo.stats()["absorbed"]
    assert len(tracers) == 150
    assert [trace_violations(t) for t in tracers] == [[]] * 150
    assert absorbed > 0
    assert any(span.attrs.get("absorbed", 0) > 0
               for t in tracers for span in t.spans("separable.loop"))


@pytest.mark.parametrize("backend, writes", [
    ("memory", False), ("sqlite", False), ("sqlite", True)])
def test_threads_on_a_cleared_memo(backend, writes):
    """Four threads read overlapping seeds from a cleared memo (beside
    a writer): no error, every answer the memo-less one on the state it
    was served on."""
    rng = random.Random(11)
    db = communities(rng, 6, 12)
    queries = reads(rng, 480, 6, 12)
    write = toggle(rng, {
        "friend": [(f"u{c}_{k}", f"u{c}_{(k + 3) % 12}")
                   for c in range(6) for k in range(12)],
        "perfectFor": [(f"u{c}_{k}", f"i{k}") for c in range(6)
                       for k in range(12)]})
    with QueryService(SOCIAL, db, ServiceConfig(
            workers=1, backend=backend)) as service:
        states = {service.edb.fingerprint(): state(service)}

        def recorded(live):
            write(live)
            states[live.fingerprint()] = Database.from_facts(
                {name: live.tuples(name) for name in live.predicates()})

        results, stop = [], threading.Event()

        def reader(part):
            for query in part:
                results.append(service.query(query))

        def writer():
            while not stop.is_set():
                service.mutate(recorded)
                stop.wait(0.002)

        service.memo.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(queries[k::4],))
                   for k in range(4)]
        threads += [threading.Thread(target=writer)] * writes
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:4]:
                thread.join(timeout=120)
        finally:
            stop.set()
            for thread in threads[4:]:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        absorbed = service.memo.stats()["absorbed"]
    assert len(results) == len(queries)
    assert [r.error for r in results if not r.ok] == []
    want: dict = {}
    for result in results:
        key = (result.fingerprint, str(result.query))
        if key not in want:
            want[key] = expected(SOCIAL, states[result.fingerprint],
                                 result.query)
        assert result.answers == want[key], key
    assert absorbed > 0


def shapes(query: Atom, constants: list, rng, count: int) -> list:
    """``count`` reads of ``query``'s predicate binding random columns
    (at least one) to random constants: full, partial and pers-driven
    selections alike."""
    out = []
    for _ in range(count):
        bound = rng.sample(range(len(query.args)),
                           rng.randint(1, len(query.args)))
        out.append(Atom(query.predicate, tuple(
            Constant(rng.choice(constants)) if p in bound
            else Variable(f"V{p}") for p in range(len(query.args)))))
    return out


@pytest.mark.parametrize("spec, cases", [
    ("memory", 60), ("sqlite", 12), ("sqlite:path", 6)])
def test_generated_cases_with_writes(spec, cases, tmp_path):
    """Separable cases from the differential generator: shuffled reads
    of every shape over few constants, so seeds reach seeds, beside
    single-row adds and deletes."""
    rng = random.Random(43)
    backend = (f"sqlite:{tmp_path / 'edb.db'}" if spec == "sqlite:path"
               else spec)
    generated = CaseGenerator(seed=43).cases(4 * cases)
    absorbed = 0
    for n, case in enumerate(
            [c for c in generated if c.expect_separable][:cases]):
        db = case.database
        constants = sorted(db.distinct_constants(), key=repr)[:6] or ["c0"]
        rows = {name: [tuple(rng.choice(constants)
                             for _ in range(db.arity(name)))
                       for _ in range(8)] + sorted(db.tuples(name))
                for name in sorted(db.predicates())}
        write = toggle(rng, {k: v for k, v in rows.items() if v})
        queries = shapes(case.query, constants, rng, 8)
        if spec == "sqlite:path":
            backend = f"sqlite:{tmp_path / f'edb{n}.db'}"
        with QueryService(case.program, db, ServiceConfig(
                workers=1, backend=backend)) as service:
            for step in range(48):
                if step % 6 == 5:
                    service.mutate(write)
                    continue
                query = rng.choice(queries)
                got = service.query(query)
                assert got.ok, got.error
                assert got.answers == expected(
                    case.program, state(service), query), query
            absorbed += service.memo.stats()["absorbed"]
    assert absorbed > 0
