"""A memo entry outlives a write it cannot see.

A plain service keeps, across a write, every full-selection entry whose
read set -- the rows of the relations its terms join that agree with a
``seen`` row on the variables they share with the carry (Theorem 2.1,
``repro.core.compiler.read_spec``) -- misses every written row, and
brings an entry set aside back once the writes since cancel out.  Every
read here is checked against a fresh ``Engine`` (semi-naive, no memo)
over a copy of the same state, on all three backends.
"""

import random

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.differential import CaseGenerator
from repro.engine import Engine
from repro.service import QueryService, ServiceConfig
from repro.workloads import paper, scenarios

SOCIAL = parse_program("""
    buys(X, Y) :- friend(X, W) & buys(W, Y).
    buys(X, Y) :- idol(X, W) & buys(W, Y).
    buys(X, Y) :- buys(X, W) & cheaper(Y, W).
    buys(X, Y) :- perfectFor(X, Y).
""").program


@pytest.fixture(params=["memory", "sqlite", "sqlite:path"])
def backend(request, tmp_path):
    spec = request.param
    return f"sqlite:{tmp_path / 'edb.db'}" if spec == "sqlite:path" else spec


def social(rng: random.Random) -> Database:
    """Two friend rings, idols from the first to the second, a price
    ladder and some perfect matches."""
    people = [[f"a{i}" for i in range(6)], [f"b{i}" for i in range(6)]]
    facts = {"friend": [], "idol": [], "cheaper": [], "perfectFor": []}
    for ring in people:
        facts["friend"] += [(p, ring[(i + 1) % len(ring)])
                            for i, p in enumerate(ring)]
    facts["idol"] = [(rng.choice(people[0]), rng.choice(people[1]))
                     for _ in range(2)]
    facts["cheaper"] = [(f"g{i}", f"g{i + 1}") for i in range(0, 8, 2)]
    # Enough rows that a one-row write names its row on every backend
    # (a write over a quarter of a relation's rows names none).
    facts["perfectFor"] = [(rng.choice(people[k % 2]), f"g{rng.randrange(8)}")
                           for k in range(8)]
    return Database.from_facts(facts)


def state(service) -> Database:
    edb = service.edb
    return Database.from_facts({name: edb.tuples(name)
                                for name in edb.predicates()})


def check(service, query) -> None:
    got = service.query(query)
    want = Engine(service.program, state(service)).query(
        query, strategy="seminaive")
    assert got.ok, got.error
    assert got.answers == want.answers, query


def run(service, queries, rng, steps, write) -> None:
    """``steps`` reads and writes, one in four a write."""
    for _ in range(steps):
        if rng.random() < 0.25:
            service.mutate(write)
        else:
            check(service, rng.choice(queries))


def toggle(rng, relations: dict):
    """A write adding or deleting one row drawn from ``relations``
    (``name -> candidate rows``)."""
    def write(db):
        name = rng.choice(sorted(relations))
        row = rng.choice(relations[name])
        if row in db.tuples(name):
            db.remove_fact(name, row)
        else:
            db.add_fact(name, row)
    return write


def open_service(program, db, backend) -> QueryService:
    return QueryService(program, db, ServiceConfig(workers=1,
                                                   backend=backend))


class TestStreams:
    def test_full_selections_on_both_classes(self, backend):
        rng = random.Random(7)
        people = [f"{c}{i}" for c in "ab" for i in range(6)]
        queries = [f"buys({p}, Y)?" for p in people] \
            + [f"buys(X, g{i})?" for i in range(8)]
        write = toggle(rng, {
            "friend": [(p, q) for p in people + ["n0"] for q in people],
            "perfectFor": [(p, f"g{i}") for p in people + ["n0"]
                           for i in range(9)],
            "cheaper": [(f"g{i}", f"g{j}") for i in range(9)
                        for j in range(9)],
        })
        with open_service(SOCIAL, social(rng), backend) as service:
            run(service, queries, rng, 160, write)
            assert service.memo.stats()["survived"] > 0

    def test_partial_selections(self, backend):
        """Example 2.4: ``t(x_i, Y, Z)?`` is a Lemma 2.1 union (its
        ``t_part`` and its batch seeds are entries), beside full
        selections on either class."""
        rng = random.Random(11)
        n = 6
        db = Database.from_facts({
            "a": [(f"x{i}", f"y{i}", f"x{i + 1}", f"y{i + 1}")
                  for i in range(n)],
            "b": [(f"w{i}", f"w{i + 1}") for i in range(n)],
            "t0": [(f"x{i}", f"y{i}", f"w{i % 3}") for i in range(n + 1)],
        })
        queries = [f"t(x{i}, Y, Z)?" for i in range(n)] \
            + [f"t(x{i}, y{i}, Z)?" for i in range(n)] \
            + [f"t(X, Y, w{i})?" for i in range(n)]
        write = toggle(rng, {
            "a": [(f"x{i}", f"y{i}", f"x{j}", f"y{j}")
                  for i in range(n + 1) for j in range(n + 1)],
            "b": [(f"w{i}", f"w{j}") for i in range(n) for j in range(n)],
            "t0": [(f"x{i}", f"y{i}", f"w{j}")
                   for i in range(n + 1) for j in range(n)],
        })
        with open_service(paper.example_2_4_program(), db,
                          backend) as service:
            run(service, queries, rng, 160, write)
            assert service.memo.stats()["survived"] > 0

    def test_pers_driven_selections(self, backend):
        """Example 1.1's ``buys(X, g)?`` binds its persistent column."""
        rng = random.Random(13)
        people = [f"{c}{i}" for c in "ab" for i in range(6)]
        queries = [f"buys(X, g{i})?" for i in range(8)] \
            + [f"buys({p}, Y)?" for p in people[:4]]
        write = toggle(rng, {
            "friend": [(p, q) for p in people for q in people],
            "idol": [(p, q) for p in people for q in people],
            "perfectFor": [(p, f"g{i}") for p in people for i in range(8)],
        })
        with open_service(paper.example_1_1_program(), social(rng),
                          backend) as service:
            run(service, queries, rng, 160, write)
            assert service.memo.stats()["survived"] > 0


class TestWhatAWriteCosts:
    def test_a_write_outside_the_read_set_keeps_the_entry(self, backend):
        db = social(random.Random(3))
        with open_service(SOCIAL, db, backend) as service:
            first = service.query("buys(a0, Y)?").answers
            # A newcomer befriends a member: a0 cannot reach the newcomer.
            service.mutate(lambda db: db.add_fact("friend", ("n0", "a0")))
            before = service.memo.stats()
            again = service.query("buys(a0, Y)?").answers
            after = service.memo.stats()
        assert again is first
        assert after["misses"] == before["misses"]
        assert after["survived"] > before["survived"]

    def test_a_down_term_is_keyed_on_the_carry_side(self, backend):
        """``friend(a0, z)`` lets a0 reach z: the row's carry column
        (``a0``) is in ``seen_1``, its produced one (``z``) is not."""
        db = social(random.Random(3))
        with open_service(SOCIAL, db, backend) as service:
            check(service, "buys(a0, Y)?")
            service.mutate(lambda db: db.add_fact("perfectFor",
                                                  ("z", "prize")))
            check(service, "buys(a0, Y)?")  # z is out of a0's reach
            service.mutate(lambda db: db.add_fact("friend", ("a0", "z")))
            check(service, "buys(a0, Y)?")

    def test_an_entry_comes_back_once_the_writes_cancel(self, backend):
        db = social(random.Random(3))
        row = ("a1", "prize")
        with open_service(SOCIAL, db, backend) as service:
            first = service.query("buys(a0, Y)?").answers
            service.mutate(lambda db: db.add_fact("perfectFor", row))
            check(service, "buys(a0, Y)?")  # a miss: a0 reaches a1
            service.mutate(lambda db: db.remove_fact("perfectFor", row))
            misses = service.memo.stats()["misses"]
            assert service.query("buys(a0, Y)?").answers is first
            assert service.memo.stats()["misses"] == misses

    def test_a_derived_base_predicate_drops_what_reads_it(self, backend):
        """``oversees`` is materialized from ``manages`` and ``dotted``:
        any write to either drops every entry that joins ``oversees``,
        a write elsewhere keeps it."""
        scenario = scenarios.org_chart(depth=4)
        query = "chain_of_command(emp0, Y)?"
        with open_service(scenario.program, scenario.database,
                          backend) as service:
            check(service, query)
            service.mutate(lambda db: db.add_fact("unrelated", ("x",)))
            misses = service.memo.stats()["misses"]
            check(service, query)
            assert service.memo.stats()["misses"] == misses
            service.mutate(lambda db: db.add_fact("manages",
                                                  ("emp0", "hire")))
            check(service, query)
            assert service.memo.stats()["misses"] == misses + 1

    def test_a_write_behind_mutates_back(self, backend):
        db = social(random.Random(5))
        with open_service(SOCIAL, db, backend) as service:
            check(service, "buys(a0, Y)?")
            check(service, "buys(X, g7)?")
            service.edb.add_fact("perfectFor", ("a2", "g7"))
            check(service, "buys(a0, Y)?")
            check(service, "buys(X, g7)?")
            service.edb.remove_fact("perfectFor", ("a2", "g7"))
            check(service, "buys(a0, Y)?")
            check(service, "buys(X, g7)?")

    def test_clear(self, backend):
        db = social(random.Random(5))
        with open_service(SOCIAL, db, backend) as service:
            check(service, "buys(a0, Y)?")
            service.mutate(lambda db: db.relation("perfectFor").clear())
            check(service, "buys(a0, Y)?")
            service.mutate(lambda db: db.add_fact("perfectFor",
                                                  ("a3", "g0")))
            check(service, "buys(a0, Y)?")


def variants(query: Atom, constants: list, rng, count: int) -> list:
    """``query`` and ``count`` more of its shape on other constants."""
    return [query] + [
        Atom(query.predicate, tuple(
            Constant(rng.choice(constants)) if isinstance(t, Constant)
            else t for t in query.args))
        for _ in range(count)]


@pytest.mark.parametrize("spec, cases", [("memory", 60), ("sqlite", 15)])
def test_random_streams_over_generated_cases(spec, cases):
    """Separable cases from the differential generator, each with a
    random stream of single-row adds and deletes over its own constants
    beside reads of its query's shape."""
    rng = random.Random(41)
    generated = CaseGenerator(seed=41).cases(4 * cases)
    cases = [c for c in generated if c.expect_separable][:cases]
    survived = 0
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
            run(service, queries, rng, 40, write)
            survived += service.memo.stats()["survived"]
    assert survived > 0
