"""DRed edge cases for :class:`repro.maintenance.MaintainedView`.

Every scenario here is one the overestimate/rederive split is known to
get wrong when implemented carelessly: cycles whose members support
each other, facts with several independent derivations losing only one,
and no-op writes that must leave the extent untouched.  Each test
cross-checks the repaired view's extent, and ``apply``'s net changes,
against a view rebuilt from scratch on the mutated base.
"""

from collections import Counter

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.plan_cache import PLAN_CACHE
from repro.datalog.programs import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant
from repro.maintenance import MaintainedView
from repro.workloads.scenarios import social_commerce

TC = parse_program(
    "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
).program

BUYS = parse_program(
    """
    buys(X, Y) :- friend(X, W) & buys(W, Y).
    buys(X, Y) :- idol(X, W) & buys(W, Y).
    buys(X, Y) :- perfectFor(X, Y).
    """
).program


def assert_matches_rebuild(view: MaintainedView, edb: Database) -> None:
    """Every extent equals a from-scratch view's on ``edb``."""
    oracle = MaintainedView(view.program, edb, order=view.order)
    for pred in view.idb:
        assert set(view.db.tuples(pred)) == set(oracle.db.tuples(pred)), pred


def tc_edb(edges) -> Database:
    return Database.from_facts({"e": list(edges)})


class TestCycles:
    def test_breaking_a_cycle_keeps_supported_survivors(self):
        # a -> b -> c -> a: every tc pair holds.  Dropping (c, a) must
        # rederive exactly the pairs the remaining chain supports --
        # the facts DRed's overestimate sweeps away but that keep
        # outside support.
        edb = tc_edb([("a", "b"), ("b", "c"), ("c", "a")])
        view = MaintainedView(TC, edb)
        assert set(view.db.tuples("tc")) == {
            (x, y) for x in "abc" for y in "abc"
        }
        view.apply({"e": (frozenset(), frozenset([("c", "a")]))})
        edb.remove_fact("e", ("c", "a"))
        assert set(view.db.tuples("tc")) == {
            ("a", "b"), ("a", "c"), ("b", "c"),
        }
        assert_matches_rebuild(view, edb)

    def test_two_cycles_sharing_a_node(self):
        # Figure-eight: killing one loop must not take the other down.
        edb = tc_edb([
            ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"),
        ])
        view = MaintainedView(TC, edb)
        view.apply({"e": (frozenset(), frozenset([("b", "a")]))})
        edb.remove_fact("e", ("b", "a"))
        assert ("c", "a") in set(view.db.tuples("tc"))
        assert ("b", "a") not in set(view.db.tuples("tc"))
        assert_matches_rebuild(view, edb)

    def test_insert_closing_a_cycle(self):
        # The insert path's hardest case: e(c, a) makes every pair
        # derivable, including facts whose derivations never pass
        # through the directly seeded tc(c, *) heads.
        edb = tc_edb([("a", "b"), ("b", "c")])
        view = MaintainedView(TC, edb)
        view.apply({"e": (frozenset([("c", "a")]), frozenset())})
        edb.add_fact("e", ("c", "a"))
        assert set(view.db.tuples("tc")) == {
            (x, y) for x in "abc" for y in "abc"
        }
        assert_matches_rebuild(view, edb)

    def test_cycle_fed_by_external_edge_survives_feeder_loss(self):
        # x -> a with cycle a <-> b: deleting (x, a) removes only the
        # x-rooted pairs; the cycle is self-supporting.
        edb = tc_edb([("x", "a"), ("a", "b"), ("b", "a")])
        view = MaintainedView(TC, edb)
        view.apply({"e": (frozenset(), frozenset([("x", "a")]))})
        edb.remove_fact("e", ("x", "a"))
        assert set(view.db.tuples("tc")) == {
            ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b"),
        }
        assert_matches_rebuild(view, edb)


class TestSupportCounting:
    """``buys(a, p)`` with two supports, via ``friend`` and via
    ``idol``: the view counts neither, yet keeps the fact exactly while
    one support stands."""

    def test_losing_one_of_two_supports_keeps_the_fact(self):
        edb = Database.from_facts({
            "friend": [("a", "b")],
            "idol": [("a", "b")],
            "perfectFor": [("b", "p")],
        })
        view = MaintainedView(BUYS, edb)
        changes = view.apply({"friend": (frozenset(),
                                         frozenset([("a", "b")]))})
        edb.remove_fact("friend", ("a", "b"))
        assert ("a", "p") in set(view.db.tuples("buys"))
        assert changes == {}
        assert_matches_rebuild(view, edb)

    def test_losing_the_last_support_drops_the_fact(self):
        edb = Database.from_facts({
            "friend": [("a", "b")],
            "idol": [("a", "b")],
            "perfectFor": [("b", "p")],
        })
        view = MaintainedView(BUYS, edb)
        changes = view.apply({
            "friend": (frozenset(), frozenset([("a", "b")])),
            "idol": (frozenset(), frozenset([("a", "b")])),
        })
        edb.remove_fact("friend", ("a", "b"))
        edb.remove_fact("idol", ("a", "b"))
        assert ("a", "p") not in set(view.db.tuples("buys"))
        assert changes == {"buys": (frozenset(), frozenset([("a", "p")]))}
        assert_matches_rebuild(view, edb)

    def test_insert_adding_a_second_derivation_changes_nothing(self):
        edb = Database.from_facts({
            "friend": [("a", "b")],
            "perfectFor": [("b", "p")],
        })
        view = MaintainedView(BUYS, edb)
        # idol(a, b) adds a second derivation of an existing fact.
        changes = view.apply({"idol": (frozenset([("a", "b")]),
                                       frozenset())})
        edb.add_fact("idol", ("a", "b"))
        assert changes == {}
        assert ("a", "p") in set(view.db.tuples("buys"))
        assert_matches_rebuild(view, edb)


class TestIdempotence:
    def test_reinserting_a_present_fact_changes_nothing(self):
        edb = tc_edb([("a", "b"), ("b", "c")])
        view = MaintainedView(TC, edb)
        before = set(view.db.tuples("tc"))
        changes = view.apply({"e": (frozenset([("a", "b")]),
                                    frozenset())})
        assert changes == {}
        assert set(view.db.tuples("tc")) == before

    def test_deleting_an_absent_fact_changes_nothing(self):
        edb = tc_edb([("a", "b")])
        view = MaintainedView(TC, edb)
        changes = view.apply({"e": (frozenset(),
                                    frozenset([("z", "z")]))})
        assert changes == {}
        assert set(view.db.tuples("tc")) == {("a", "b")}

    def test_delete_then_reinsert_restores_the_extent(self):
        edb = tc_edb([("a", "b"), ("b", "c"), ("c", "a")])
        view = MaintainedView(TC, edb)
        before = set(view.db.tuples("tc"))
        removed = view.apply({"e": (frozenset(), frozenset([("b", "c")]))})
        added = view.apply({"e": (frozenset([("b", "c")]), frozenset())})
        assert removed["tc"][1] == added["tc"][0]
        assert set(view.db.tuples("tc")) == before
        assert_matches_rebuild(view, edb)

    def test_cancelling_batch_is_a_noop(self):
        edb = tc_edb([("a", "b")])
        view = MaintainedView(TC, edb)
        changes = view.apply({
            "e": (frozenset([("a", "b")]), frozenset([("z", "z")])),
        })
        assert changes == {}


class TestApplyContract:
    def test_idb_delta_is_rejected(self):
        view = MaintainedView(TC, tc_edb([("a", "b")]))
        with pytest.raises(ValueError, match="derived predicate"):
            view.apply({"tc": (frozenset([("x", "y")]), frozenset())})

    def test_net_idb_changes_are_reported(self):
        edb = tc_edb([("a", "b")])
        view = MaintainedView(TC, edb)
        changes = view.apply({"e": (frozenset([("b", "c")]),
                                    frozenset())})
        assert changes == {
            "tc": (frozenset([("b", "c"), ("a", "c")]), frozenset()),
        }

    def test_new_base_relation_via_insert(self):
        # Inserting into a relation the database has never seen.
        edb = Database.from_facts({
            "friend": [("a", "b")], "idol": [],
            "perfectFor": [("b", "p")],
        })
        view = MaintainedView(BUYS, edb)
        view.apply({"cheaper_stub": (frozenset([("q", "p")]),
                                     frozenset())})
        edb.add_fact("cheaper_stub", ("q", "p"))
        assert_matches_rebuild(view, edb)

    def test_mixed_batch_matches_rebuild(self):
        edb = Database.from_facts({
            "friend": [("a", "b"), ("b", "c")],
            "idol": [("a", "c")],
            "perfectFor": [("c", "p")],
        })
        view = MaintainedView(BUYS, edb)
        view.apply({
            "friend": (frozenset([("c", "d")]),
                       frozenset([("a", "b")])),
            "perfectFor": (frozenset([("d", "q")]), frozenset()),
        })
        edb.add_fact("friend", ("c", "d"))
        edb.remove_fact("friend", ("a", "b"))
        edb.add_fact("perfectFor", ("d", "q"))
        assert_matches_rebuild(view, edb)


def _rules(text: str, *extra: Rule) -> Program:
    return Program(list(parse_program(text).program.rules) + list(extra))


#: (program, EDB facts, a base fact whose delete-then-reinsert removes
#: and rederives derived facts) -- one per head shape the candidate
#: atom must unify with.
SHAPE_CASES = {
    "head-constant": (
        _rules("p(a, X) :- q(X)."),
        {"q": [("a",), ("b",), ("c",)]},
        ("q", ("b",)),
    ),
    "repeated-head-variable": (
        _rules("r(X, X) :- q(X).\nr(X, Y) :- e(X, Y)."),
        {"q": [("a",), ("b",)], "e": [("a", "a"), ("a", "b")]},
        ("q", ("a",)),
    ),
    "two-rules-one-fact": (
        BUYS,
        {"friend": [("a", "b")], "idol": [("a", "b")],
         "perfectFor": [("b", "p"), ("b", "q")]},
        ("friend", ("a", "b")),
    ),
    "body-less-rule": (
        _rules("s(X) :- q(X).", Rule(Atom("s", (Constant("c"),)), ())),
        {"q": [("c",), ("d",)]},
        ("q", ("c",)),
    ),
    "mutual-recursion": (
        _rules(
            "even(X) :- zero(X).\n"
            "even(Y) :- succ(X, Y) & odd(X).\n"
            "odd(Y) :- succ(X, Y) & even(X)."
        ),
        {"zero": [("n0",)],
         "succ": [(f"n{i}", f"n{i + 1}") for i in range(6)]
         + [("n6", "n1"), ("n2", "n5")]},
        ("succ", ("n2", "n3")),
    ),
    # A member read in full beside its own delta: the stratum re-plans
    # per round, not per rule.
    "nonlinear": (
        _rules("tc(X, Y) :- tc(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."),
        {"e": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"),
               ("x", "c")]},
        ("e", ("b", "c")),
    ),
    "body-constant": (
        _rules("reach(Y) :- e(start, Y).\n"
               "reach(Y) :- reach(X) & e(X, Y)."),
        {"e": [("start", "a"), ("a", "b"), ("b", "c"), ("x", "c"),
               ("start", "x"), ("c", "a")]},
        ("e", ("start", "a")),
    ),
}


class TestHeadShapes:
    @pytest.mark.parametrize("order", ["greedy", "left_to_right", "cost"])
    @pytest.mark.parametrize("case", sorted(SHAPE_CASES))
    def test_delete_then_reinsert_matches_rebuild(self, case, order):
        program, facts, (name, fact) = SHAPE_CASES[case]
        edb = Database.from_facts(facts)
        view = MaintainedView(program, edb, order=order)
        edb.remove_fact(name, fact)
        view.apply({name: (frozenset(), frozenset([fact]))})
        assert_matches_rebuild(view, edb)
        edb.add_fact(name, fact)
        view.apply({name: (frozenset([fact]), frozenset())})
        assert_matches_rebuild(view, edb)


REACH = parse_program(
    "r(X) :- src(X).\nr(Y) :- r(X) & e(X, Y)."
).program


class TestRederivationCascade:
    @pytest.mark.parametrize("m", [8, 64])
    def test_cycle_with_outside_support_comes_back_step_by_step(self, m):
        # A cycle n0 -> ... -> n(m-1) -> n0 reached from src(n0) and,
        # independently, from z -> n0.  Dropping src(n0) overestimates
        # the whole cycle; only r(n0) is rederivable in one step (from
        # r(z)), the rest return over an m-step cascade.
        edb = Database.from_facts({
            "src": [("n0",), ("z",)],
            "e": [(f"n{i}", f"n{(i + 1) % m}") for i in range(m)]
            + [("z", "n0")],
        })
        view = MaintainedView(REACH, edb)
        changes = view.apply({"src": (frozenset(), frozenset([("n0",)]))})
        edb.remove_fact("src", ("n0",))
        assert changes == {}
        assert len(view.db.tuples("r")) == m + 1
        assert_matches_rebuild(view, edb)
        # Without the outside edge the cycle only supports itself.
        changes = view.apply({"e": (frozenset(), frozenset([("z", "n0")]))})
        edb.remove_fact("e", ("z", "n0"))
        assert changes == {"r": (
            frozenset(), frozenset((f"n{i}",) for i in range(m)),
        )}
        assert_matches_rebuild(view, edb)


class TestNoPerFactJoin:
    """A write runs one generated function per (SCC, phase), which asks
    the plan cache once per join term when it is bound: plan lookups
    per ``apply`` are O(rules) -- a join per (fact, rule) would scale
    them with the delta, a round loop with the depth of the cascade --
    and none once the sizes a write meets fit a function bound before."""

    @staticmethod
    def lookups(view, deltas):
        before = PLAN_CACHE.stats()
        changes = view.apply(deltas)
        after = PLAN_CACHE.stats()
        return (after["hits"] + after["misses"]
                - before["hits"] - before["misses"]), changes

    def test_plan_lookups_do_not_grow_with_the_overestimate(self):
        # One write whose DRed overestimate is everyone reaching the
        # most-befriended user.
        lookups, removed = {}, {}
        for people in (40, 150):
            scenario = social_commerce(people=people)
            view = MaintainedView(scenario.program, scenario.database)
            befriended = Counter(
                w for _x, w in scenario.database.tuples("friend"))
            user = max(befriended, key=lambda u: (befriended[u], u))
            gift = frozenset([(user, "gift")])
            view.apply({"perfectFor": (gift, frozenset())})
            lookups[people], changes = self.lookups(
                view, {"perfectFor": (frozenset(), gift)})
            removed[people] = len(changes["buys"][1])
            # Seeds, loop entry and rederive: each plans at most one
            # join per body atom.
            body_atoms = sum(len(r.body) for r in scenario.program.rules)
            assert lookups[people] <= 4 * body_atoms
        assert removed[150] >= 3 * removed[40]
        assert lookups[150] == lookups[40]

    def test_plan_lookups_do_not_grow_with_the_rounds(self):
        # Left-linear closure of a chain: a new first edge reaches one
        # node more a round, and removing it again overestimates one
        # fact more a round -- ``depth`` rounds of a one-fact delta.
        program = parse_program(
            "tc(X, Y) :- tc(X, W) & e(W, Y).\ntc(X, Y) :- e(X, Y)."
        ).program
        lookups = {}
        for depth in (40, 150):
            view = MaintainedView(program, Database.from_facts(
                {"e": [(i, i + 1) for i in range(1, depth)]}))
            edge = frozenset([(0, 1)])
            grown, changes = self.lookups(view, {"e": (edge, frozenset())})
            assert len(changes["tc"][0]) == depth
            shrunk, changes = self.lookups(view, {"e": (frozenset(), edge)})
            assert len(changes["tc"][1]) == depth
            lookups[depth] = (grown, shrunk)
        assert lookups[150] == lookups[40]
        assert max(lookups[40]) <= 4 * sum(len(r.body) for r in program.rules)

    def test_after_one_cycle_a_write_plans_and_compiles_nothing(self):
        # The ledger's write stream: four friend and four perfectFor
        # facts added, then deleted in reverse, so each write's sizes
        # come back every cycle.
        scenario = social_commerce(people=60)
        view = MaintainedView(scenario.program, scenario.database)
        users = sorted({x for x, _ in scenario.database.tuples("friend")})
        pool = [w for c in range(4) for w in (
            ("friend", (f"new{c}", users[7 * c])),
            ("perfectFor", (users[7 * c + 3], f"gift{c}")))]
        cycle = [(name, (frozenset([fact]), frozenset()))
                 for name, fact in pool]
        cycle += [(name, (frozenset(), frozenset([fact])))
                  for name, fact in reversed(pool)]
        for name, delta in cycle:
            view.apply({name: delta})
        compiles, functions = PLAN_CACHE.compiles, len(PLAN_CACHE._shapes)
        for k in range(100):
            name, delta = cycle[k % len(cycle)]
            lookups, changes = self.lookups(view, {name: delta})
            assert changes and lookups == 0, (k, name)
        assert PLAN_CACHE.compiles == compiles
        assert len(PLAN_CACHE._shapes) == functions


class TestBoundAcrossWrites:
    """What makes a write bind its function anew, or take its probes
    anew: each case leaves the function bound by an earlier write
    reading something it may no longer read, or planned for sizes that
    no longer hold, and the next write must still match a rebuild."""

    def test_after_rebuild(self):
        edb = tc_edb([("a", "b"), ("b", "c"), ("c", "a")])
        view = MaintainedView(TC, edb)
        view.apply({"e": (frozenset(), frozenset([("b", "c")]))})
        view.apply({"e": (frozenset([("b", "c")]), frozenset())})
        edb.add_fact("e", ("c", "d"))
        view.rebuild(edb)  # a new database: no kept probe reads it
        view.apply({"e": (frozenset([("d", "x")]), frozenset())})
        edb.add_fact("e", ("d", "x"))
        assert_matches_rebuild(view, edb)

    def test_after_an_insert_creates_a_base_relation(self):
        # ``e`` is absent when the restart is first bound, so its delta
        # term gets no code; the insert that creates ``e`` needs it.
        edb = Database.from_facts({"src": [(f"a{i}",) for i in range(10)]})
        view = MaintainedView(REACH, edb)
        view.apply({"src": (frozenset([("b",)]), frozenset())})
        edb.add_fact("src", ("b",))
        edges = frozenset([("a1", "c"), ("c", "d")])
        view.apply({"e": (edges, frozenset())})
        for edge in edges:
            edb.add_fact("e", edge)
        assert ("d",) in view.db.tuples("r")
        assert_matches_rebuild(view, edb)

    def test_after_a_borrowed_index_is_dropped(self):
        # Buckets shared with another relation are dropped, not
        # patched, by the next write (``Relation._unshare``): a probe
        # bound to them would answer from the state before it.
        edb = tc_edb([(f"n{i}", f"n{i + 1}") for i in range(20)])
        view = MaintainedView(TC, edb)
        for edges in ([("x", "y"), ("y", "n18")], [("p", "q"), ("q", "n18")]):
            e = view.db.relation("e")
            twin = e.copy()
            for positions in list(e._indexes):
                twin.lookup(positions, ("a",) * len(positions))
            e.adopt_indexes(twin)
            # Round one reaches p over the new (p, q), through the index
            # of e the delta term probes.
            view.apply({"e": (frozenset(edges), frozenset())})
            assert not e._borrowed
            for edge in edges:
                edb.add_fact("e", edge)
        assert ("p", "n20") in view.db.tuples("tc")
        assert_matches_rebuild(view, edb)

    def test_after_deletes_shrink_a_base_relation(self):
        # The restart bound on the first insert into ``s`` ranks ``a``
        # (30 facts) after ``b`` (20); deletes, which bind no restart,
        # shrink ``a`` to 12, so the next insert into ``s`` -- a delta as
        # small as the first -- must plan anew rather than run the
        # order chosen for the old sizes.  The insert after it ranks
        # them alike: no lookup.
        program = parse_program(
            "r(X, Y) :- s(X) & a(X, W) & b(W, Y).").program
        edb = Database.from_facts({"s": [(0,), (1,)],
                                   "a": [(i, i % 3) for i in range(30)],
                                   "b": [(i, "y") for i in range(20)]})
        view = MaintainedView(program, edb)
        lookups = []
        for name, ins, dels in (
                ("s", [(2,)], []),
                ("a", [], [(i, i % 3) for i in range(12, 30)]),
                ("s", [(3,)], []), ("s", [(4,)], [])):
            lookups.append(TestNoPerFactJoin.lookups(
                view, {name: (frozenset(ins), frozenset(dels))})[0])
            for fact in ins:
                edb.add_fact(name, fact)
            for fact in dels:
                edb.remove_fact(name, fact)
        assert lookups[2] > 0 and lookups[3] == 0
        assert len(view.db.relation("r")) == 5
        assert_matches_rebuild(view, edb)


class TestSelect:
    """``select(query)`` is ``σ(t)`` on the extent, whatever the query
    binds -- and stays so under ``apply``."""

    EX24 = parse_program(
        """
        t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).
        t(X, Y, Z) :- t(X, Y, W) & b(W, Z).
        t(X, Y, Z) :- t0(X, Y, Z).
        """
    ).program
    QUERIES = [
        "t(x, y, Z)", "t(X, Y, z1)", "t(x, Y, Z)", "t(X, Y, Z)",
        "t(X, X, Z)", "t(x, X, X)", "t(x, y, z1)", "t(nobody, Y, Z)",
    ]

    @staticmethod
    def filtered(view: MaintainedView, query: Atom) -> frozenset:
        return frozenset(
            f for f in view.db.tuples(query.predicate) if query.matches(f))

    def test_every_binding_pattern_equals_a_filtered_scan(self):
        view = MaintainedView(self.EX24, Database.from_facts({
            "a": [("x", "y", "p", "p"), ("p", "p", "x", "x")],
            "t0": [("p", "p", "z0"), ("x", "x", "x")],
            "b": [("z0", "z1"), ("z1", "x")],
        }))
        queries = [parse_atom(text) for text in self.QUERIES]
        for query in queries:
            got = view.select(query)
            assert isinstance(got, frozenset)
            assert got == self.filtered(view, query), query
        assert view.select(queries[0])  # the data answers something
        view.apply({"b": (frozenset([("x", "late")]),
                          frozenset([("z0", "z1")]))})
        for query in queries:
            assert view.select(query) == self.filtered(view, query), query

    def test_one_index_build_per_binding_pattern(self):
        from repro.observability import Tracer

        view = MaintainedView(TC, tc_edb([("a", "b"), ("b", "c")]))
        tracer = Tracer()
        for node in "abc":
            view.select(parse_atom(f"tc(X, {node})"), tracer)
        assert tracer.counter_total("index_builds") == 1
        assert tracer.counter_total("full_scans") == 0

    def test_empty_extent_and_arity_zero(self):
        edge = parse_atom("e(X, Y)")
        program = Program(TC.rules + (Rule(Atom("some", ()), (edge,)),))
        view = MaintainedView(program, Database())
        assert view.select(parse_atom("tc(a, Y)")) == frozenset()
        assert view.select(parse_atom("tc(X, Y)")) == frozenset()
        assert view.select(Atom("some", ())) == frozenset()
        view.apply({"e": (frozenset([("a", "b")]), frozenset())})
        assert view.select(Atom("some", ())) == {()}
        assert view.select(parse_atom("tc(a, Y)")) == {("a", "b")}

    def test_wrong_arity_is_a_typed_error(self):
        from repro.datalog.errors import ArityError

        view = MaintainedView(TC, tc_edb([("a", "b")]))
        with pytest.raises(ArityError, match="tc used with arity 1 and 2"):
            view.select(parse_atom("tc(a)"))
