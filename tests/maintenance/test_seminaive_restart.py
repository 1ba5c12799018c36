"""Delta-seeded restart of the semi-naive fixpoint.

The insertion half of :meth:`MaintainedView.apply`: the view is already
a fixpoint except for the consequences of the base inserts, and round
zero of the restart function joins the inserts (the seeds) with the
database instead of evaluating every rule from scratch.  These tests pin
that a restart lands on the same fixpoint as a rebuild, and what it
refuses to seed from.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.maintenance import MaintainedView

from .test_view import assert_matches_rebuild

TC = parse_program(
    "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."
).program


def insert(*facts):
    return {"e": (frozenset(facts), frozenset())}


class TestRestart:
    def test_restart_reaches_the_full_fixpoint(self):
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        view = MaintainedView(TC, edb)
        # New edge c -> d: round zero derives the one new direct pair,
        # and the restart must propagate a->d and b->d on its own.
        changes = view.apply(insert(("c", "d")))
        edb.add_fact("e", ("c", "d"))
        assert_matches_rebuild(view, edb)
        assert changes == {"tc": (frozenset({("a", "d"), ("b", "d"),
                                             ("c", "d")}), frozenset())}

    def test_restart_on_a_cycle(self):
        # Closing the loop with e(c, a): round zero joins e(c, a) with
        # the old tc -- (c, a), (c, b), (c, c) -- and the fixpoint
        # rounds owe only the transitive consequences.
        edb = Database.from_facts({"e": [("a", "b"), ("b", "c")]})
        view = MaintainedView(TC, edb)
        view.apply(insert(("c", "a")))
        edb.add_fact("e", ("c", "a"))
        assert_matches_rebuild(view, edb)
        assert set(view.db.tuples("tc")) == {
            (x, y) for x in "abc" for y in "abc"}

    def test_empty_seeds_do_nothing(self):
        edb = Database.from_facts({"e": [("a", "b")]})
        view = MaintainedView(TC, edb)
        version_before = view.db.relation("tc")._version
        # Nothing inserted, and an insert of a fact already there: no
        # seed, no round, no write.
        assert view.apply(insert()) == {}
        assert view.apply(insert(("a", "b"))) == {}
        assert set(view.db.tuples("tc")) == {("a", "b")}
        assert view.db.relation("tc")._version == version_before

    def test_seed_for_foreign_predicate_is_rejected(self):
        # The restart seeds from base relations only: a delta naming a
        # derived predicate would skip the rules that own it.
        edb = Database.from_facts({"e": [("a", "b")]})
        view = MaintainedView(TC, edb)
        with pytest.raises(ValueError, match="derived predicate"):
            view.apply({"tc": (frozenset([("x", "y")]), frozenset())})
        assert set(view.db.tuples("tc")) == {("a", "b")}
