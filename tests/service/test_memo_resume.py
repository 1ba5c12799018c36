"""A write resumes the memo entries it meets.

An entry a write set aside goes on, on its next lookup, from its own
``seen_1`` / ``seen_2`` when no row deleted since meets its read set:
the seen rows an added row joins are the loops' carries (Theorem 3.1's
set difference on a database that only gained rows).  After every read
here, each resumed entry's answers and seen sets are compared with a
from-scratch ``execute_plan`` on the snapshot it stands at, and every
read with a fresh ``Engine`` (semi-naive, no memo), on all three
backends.
"""

import random
import sys
import threading
import time

import pytest

from repro.budget import Budget
from repro.core import compiler, evaluator
from repro.core.compiler import DOWN, ReadSet, compile_plan
from repro.core.evaluator import execute_plan
from repro.datalog.database import Database
from repro.datalog.errors import BudgetExceeded
from repro.differential import CaseGenerator
from repro.engine import Engine
from repro.service import FullSelectionMemo, QueryService, ServiceConfig
from repro.workloads import paper, scenarios

from .test_memo_survival import SOCIAL, social, state, toggle, variants

#: Enough for every legitimate run here; a mutant that never stops
#: trips it instead of hanging the suite.
SMALL = Budget(max_iterations=400)


@pytest.fixture(params=["memory", "sqlite", "sqlite:path"])
def backend(request, tmp_path):
    spec = request.param
    return f"sqlite:{tmp_path / 'edb.db'}" if spec == "sqlite:path" else spec


def open_service(program, db, backend, budget=SMALL) -> QueryService:
    return QueryService(program, db, ServiceConfig(
        workers=1, backend=backend, budget=budget))


def from_scratch(key: tuple, db: Database) -> tuple:
    """``(answers, seen_1, seen_2)`` of the run a memo key names, made
    anew on ``db`` (the key holds its analysis by weak reference)."""
    analysis, (kind, which), seed, order = key[1:]
    analysis = analysis()
    if kind == "class":
        cls = next(c for c in analysis.classes if c.index == which)
        plan = compile_plan(analysis, selected_class=cls)
    else:
        plan = compile_plan(analysis, pers_positions=which)
    seen_1: list = []
    seen_2 = execute_plan(plan, db, [seed], order=order, seen_1=seen_1)
    return frozenset(plan.assembler()(seed, seen_2)), seen_1[0], seen_2


def wrong_resumes(service) -> list:
    """The seeds of the live resumed entries that differ from a run
    from scratch on the current snapshot."""
    db = service._current.db
    wrong = []
    for key, (answers, _, reads) in list(service.memo._entries.items()):
        if reads.resumed:
            want, seen_1, seen_2 = from_scratch(key, db)
            if (answers, set(reads.seen[0]), set(reads.seen[1])) != (
                    want, set(seen_1), set(seen_2)):
                wrong.append(key[-2])
    return wrong


def stream(service, queries, rng, steps, write) -> list:
    """``steps`` reads and writes, one in four a write; every read and
    every resumed entry checked.  Returns what differed."""
    problems = []
    for _ in range(steps):
        if rng.random() < 0.25:
            service.mutate(write)
            continue
        query = rng.choice(queries)
        got = service.query(query)
        want = Engine(service.program, state(service)).query(
            query, strategy="seminaive")
        if not got.ok or got.answers != want.answers:
            problems.append(("answers", str(query)))
        problems += [("resumed", seed) for seed in wrong_resumes(service)]
    return problems


def social_stream(backend, steps=120, seed=7):
    """Full selections on both classes of the social program beside
    single-row adds and deletes; ``(problems, memo stats)``."""
    rng = random.Random(seed)
    people = [f"{c}{i}" for c in "ab" for i in range(6)]
    queries = [f"buys({p}, Y)?" for p in people] \
        + [f"buys(X, g{i})?" for i in range(8)]
    write = toggle(rng, {
        "friend": [(p, q) for p in people + ["n0"] for q in people],
        "perfectFor": [(p, f"g{i}") for p in people + ["n0"]
                       for i in range(9)],
        "cheaper": [(f"g{i}", f"g{j}") for i in range(9) for j in range(9)],
    })
    with open_service(SOCIAL, social(rng), backend) as service:
        problems = stream(service, queries, rng, steps, write)
        return problems, service.memo.stats()


class TestStreams:
    def test_full_selections_on_both_classes(self, backend):
        problems, stats = social_stream(backend)
        assert problems == []
        assert stats["resumed"] > 0

    def test_partial_selections_resume_their_batch_seeds(self, backend):
        """Example 2.4: the seeds of ``t(x_i, Y, Z)?``'s Lemma 2.1
        batch are entries, and a write that meets one resumes it."""
        rng = random.Random(11)
        n = 6
        db = Database.from_facts({
            "a": [(f"x{i}", f"y{i}", f"x{i + 1}", f"y{i + 1}")
                  for i in range(n)],
            "b": [(f"w{i}", f"w{i + 1}") for i in range(n)],
            "t0": [(f"x{i}", f"y{i}", f"w{i % 3}") for i in range(n + 1)],
        })
        queries = [f"t(x{i}, Y, Z)?" for i in range(n)]
        write = toggle(rng, {
            "a": [(f"x{i}", f"y{i}", f"x{j}", f"y{j}")
                  for i in range(n + 1) for j in range(n + 1)],
            "b": [(f"w{i}", f"w{j}") for i in range(n) for j in range(n)],
            "t0": [(f"x{i}", f"y{i}", f"w{j}")
                   for i in range(n + 1) for j in range(n)],
        })
        with open_service(paper.example_2_4_program(), db,
                          backend) as service:
            assert stream(service, queries, rng, 120, write) == []
            assert service.memo.stats()["resumed"] > 0


@pytest.mark.parametrize("spec, cases", [("memory", 40), ("sqlite", 10)])
def test_random_streams_over_generated_cases(spec, cases):
    """Separable cases from the differential generator, each with a
    stream of single-row adds and deletes over its own constants beside
    reads of its query's shape."""
    rng = random.Random(43)
    generated = CaseGenerator(seed=43).cases(4 * cases)
    cases = [c for c in generated if c.expect_separable][:cases]
    resumed = 0
    for case in cases:
        db = case.database
        constants = sorted(db.distinct_constants(), key=repr) or ["c0"]
        rows = {name: [tuple(rng.choice(constants)
                             for _ in range(db.arity(name)))
                       for _ in range(12)] + sorted(db.tuples(name))
                for name in sorted(db.predicates())}
        queries = variants(case.query, constants, rng, 3)
        write = toggle(rng, {k: v for k, v in rows.items() if v})
        with open_service(case.program, db, spec) as service:
            assert stream(service, queries, rng, 40, write) == [], case
            resumed += service.memo.stats()["resumed"]
    assert resumed > 0


class TestWhatAResumeSees:
    def test_a_row_added_and_deleted_since_drops_out(self, backend):
        """Since the entry was set aside ``perfectFor(a1, p1)`` came and
        went and ``perfectFor(a1, p2)`` came, each write captured by a
        read elsewhere (b5 reaches no a): the resume adds only p2."""
        with open_service(SOCIAL, social(random.Random(3)),
                          backend) as service:
            first = service.query("buys(a0, Y)?").answers
            for write in (lambda db: db.add_fact("perfectFor", ("a1", "p1")),
                          lambda db: db.add_fact("perfectFor", ("a1", "p2")),
                          lambda db: db.remove_fact("perfectFor",
                                                    ("a1", "p1"))):
                service.mutate(write)
                service.query("buys(b5, Y)?")
            before = service.memo.stats()
            got = service.query("buys(a0, Y)?").answers
            after = service.memo.stats()
            assert got == first | {("a0", "p2")}
            assert (after["resumed"], after["misses"]) == (
                before["resumed"] + 1, before["misses"])
            assert wrong_resumes(service) == []

    def test_a_delete_the_entry_read_is_a_miss(self, backend):
        """``friend(a0, a1)``, a row a0's run joined, went: no resume."""
        with open_service(SOCIAL, social(random.Random(3)),
                          backend) as service:
            service.query("buys(a0, Y)?")
            service.mutate(lambda db: db.add_fact("friend", ("a0", "b0")))
            service.mutate(lambda db: db.remove_fact("friend", ("a0", "a1")))
            before = service.memo.stats()
            want = Engine(SOCIAL, state(service)).query(
                "buys(a0, Y)?", strategy="seminaive").answers
            assert service.query("buys(a0, Y)?").answers == want
            after = service.memo.stats()
            assert (after["resumed"], after["misses"]) == (
                before["resumed"], before["misses"] + 1)

    def test_a_relation_written_with_rows_unknown_starts_anew(self,
                                                               backend):
        """A row of ``perfectFor`` is added, the relation is cleared and
        refilled without it (rows unknown), the row is added again, then
        deleted beside another row's add, each write captured by a read
        elsewhere: the row's last move is a delete to the entry made
        before it, not the add its first move was (and the other row
        keeps the state before the add from coming back)."""
        row = ("a1", "p")
        query = "buys(a0, Y)?"

        def refill(db):
            rows = db.tuples("perfectFor") - {row}
            db.relation("perfectFor").clear()
            for kept in rows:
                db.add_fact("perfectFor", kept)

        def swap(db):
            db.remove_fact("perfectFor", row)
            db.add_fact("perfectFor", ("a1", "q"))

        writes = [lambda db: db.add_fact("perfectFor", row), refill,
                  lambda db: db.add_fact("perfectFor", row), swap]
        with open_service(SOCIAL, social(random.Random(3)),
                          backend) as service:
            for write in writes:
                service.query(query)
                service.mutate(write)
                service.query("buys(b5, Y)?")
            want = Engine(SOCIAL, state(service)).query(
                query, strategy="seminaive").answers
            assert ("a0", "p") not in want
            assert service.query(query).answers == want
            assert wrong_resumes(service) == []

    def test_a_write_to_a_derived_relation_is_a_miss(self, backend):
        """``oversees`` is derived from ``manages``: a write to it names
        no rows of ``oversees``, so the entry that joins it is run
        again, not resumed."""
        scenario = scenarios.org_chart(depth=4)
        query = "chain_of_command(emp0, Y)?"
        with open_service(scenario.program, scenario.database,
                          backend) as service:
            service.query(query)
            service.mutate(lambda db: db.add_fact("manages",
                                                  ("emp0", "hire")))
            before = service.memo.stats()
            got = service.query(query)
            after = service.memo.stats()
            assert ("emp0", "hire") in got.answers
            assert (after["resumed"], after["misses"]) == (
                before["resumed"], before["misses"] + 1)


def test_an_add_only_stream_keeps_the_log_bounded():
    """Each state holds the rows moved since the log began, so a stream
    that only adds grows them; past ``16 * maxsize`` rows the log
    starts anew."""
    memo = FullSelectionMemo(maxsize=4)
    for i in range(400):
        memo.carry(i, i + 1, {"r": {(i,): 1}})
        assert memo._tracked <= 16 * 4 + len(memo._states[-1]) + 1
    assert len(memo._states) < 20


def test_a_derived_relation_costs_a_carry_no_tracked_row():
    """A capture names every derived relation its writes reach as
    written with rows unknown, and a derived relation never has tracked
    rows: such a carry touches the new row alone, not every row the log
    tracks (counted by the rows' hashes, which any pass that rebuilds
    the state or the first moves takes again)."""
    hashed = [0]

    class Row(tuple):
        def __hash__(self):
            hashed[0] += 1
            return tuple.__hash__(self)

    memo = FullSelectionMemo(maxsize=64)
    memo.carry(0, 1, {"friend": {Row((i,)): 1 for i in range(200)}})
    for step in range(1, 6):
        hashed[0] = 0
        memo.carry(step, step + 1, {"friend": {Row(("x", step)): 1},
                                    "buys": None})
        assert hashed[0] <= 4
    assert len(memo._states[-1]) == 205


class TestThreads:
    def test_a_projection_is_published_whole(self):
        """A projection of a read set is read by other threads without
        a lock (a resume's ``joined`` beside a carry's ``meets``): it
        is built aside and published full."""
        published = []

        class Keys(dict):
            def __setitem__(self, key, rows):
                published.append(sum(map(len, rows.values())))
                super().__setitem__(key, rows)

        reads = ReadSet({"r": ((DOWN, (0,), (1,)),)},
                        {(i, i % 3) for i in range(30)}, set())
        reads.keys = Keys()
        assert reads.meets({"r": [(2, "x")]})
        assert published == [30]

    def test_readers_resume_beside_a_writer(self, backend):
        """Four threads read while a fifth adds and deletes rows, paced
        on each other (12 to 24 reads a state) so that reads of one
        seed fall on both sides of a write: every answer equals a
        memo-less run on the state it was served on, and entries were
        resumed."""
        rng = random.Random(17)
        people = [f"{c}{i}" for c in "ab" for i in range(6)]
        queries = [f"buys({p}, Y)?" for p in people] \
            + [f"buys(X, g{i})?" for i in range(8)]
        write = toggle(rng, {
            "friend": [(p, q) for p in people for q in people],
            "perfectFor": [(p, f"g{i}") for p in people for i in range(9)],
        })
        with open_service(SOCIAL, social(rng), backend) as service:
            states = {service.edb.fingerprint(): state(service)}

            def recorded(live):
                write(live)
                states[live.fingerprint()] = Database.from_facts(
                    {name: live.tuples(name) for name in live.predicates()})

            results, writes, stop = [], [], threading.Event()

            def reader(seed):
                mine = random.Random(seed)
                for _ in range(120):
                    while len(results) >= 24 * (len(writes) + 1) \
                            and not stop.is_set():
                        stop.wait(0.0005)
                    results.append(service.query(mine.choice(queries)))

            def writer():
                while not stop.is_set():
                    if len(results) >= 12 * (len(writes) + 1):
                        writes.append(service.mutate(recorded))
                    else:
                        stop.wait(0.0005)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            threads = [threading.Thread(target=reader, args=(k,))
                       for k in range(4)]
            threads.append(threading.Thread(target=writer))
            try:
                for thread in threads:
                    thread.start()
                for thread in threads[:4]:
                    thread.join(timeout=120)
            finally:
                stop.set()
                threads[4].join(timeout=120)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            resumed = service.memo.stats()["resumed"]
        assert [r.error for r in results if not r.ok] == []
        for result in results:
            want = Engine(SOCIAL, states[result.fingerprint]).query(
                result.query, strategy="seminaive").answers
            assert result.answers == want, (result.fingerprint,
                                            str(result.query))
        assert resumed > 0


class TestFaults:
    @pytest.mark.parametrize("trip", ["iterations", "deadline"])
    def test_a_trip_mid_resume_leaves_the_entry_aside(self, backend, trip):
        """A resume that trips its budget keeps nothing and counts
        nothing; the next unbudgeted read resumes and answers right."""
        query = "buys(a0, Y)?"
        with open_service(SOCIAL, social(random.Random(3)),
                          backend) as service:
            service.query(query)
            # a0 reaches a1: a new friend of a1 brings a new chain.
            service.mutate(lambda db: db.add_fact("friend", ("a1", "b0")))
            snap = service._snapshot()
            held = [key for key in service.memo._waiting]
            assert len(held) == 1
            before = service.memo.stats()
            tiny = (Budget(max_iterations=0) if trip == "iterations"
                    else Budget(max_wall_seconds=0.0).start_clock(
                        time.perf_counter() - 1.0))
            with pytest.raises(BudgetExceeded):
                snap.engine.query(query, memo=snap.memo, budget=tiny)
            assert service.memo.stats() == before
            assert list(service.memo._waiting) == held
            assert service.memo._waiting[held[0]]
            want = Engine(SOCIAL, state(service)).query(
                query, strategy="seminaive").answers
            assert service.query(query).answers == want
            after = service.memo.stats()
            assert after["resumed"] == before["resumed"] + 1
            assert wrong_resumes(service) == []


class TestMutants:
    """A resume that skips a step must fail the streams above."""

    def test_an_exit_of_the_new_seen_1_rows_only(self, monkeypatch):
        joined = compiler.ReadSet.joined

        def no_exit_rows(self, inserted):
            down, _, up = joined(self, inserted)
            return down, set(), up

        monkeypatch.setattr(compiler.ReadSet, "joined", no_exit_rows)
        problems, _ = social_stream("memory")
        assert problems

    def test_a_loop_seeded_without_its_seen(self, monkeypatch):
        loop = evaluator._generated_loop

        def unseen(joins, initial, db, carry_name, seen_name, stats, budget,
                   order, tracer=None, absorb=(), covered=(), resume=None):
            if resume is not None:
                resume = (resume[0], set())
            return loop(joins, initial, db, carry_name, seen_name, stats,
                        budget, order, tracer, absorb, covered, resume)

        monkeypatch.setattr(evaluator, "_generated_loop", unseen)
        problems, _ = social_stream("memory")
        assert problems
