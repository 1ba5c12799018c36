"""Unit tests for body evaluation: joins, the eq builtin, stats counting."""

import pytest

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.joins import EQ, instantiate_args
from repro.datalog.terms import Variable
from repro.stats import EvaluationStats

from ..interpreter import solutions


@pytest.fixture
def db():
    return Database.from_facts(
        {
            "edge": [("a", "b"), ("b", "c"), ("b", "d")],
            "color": [("a", "red"), ("c", "blue"), ("d", "blue")],
        }
    )


class TestSingleAtom:
    def test_all_matches(self, db):
        assert len(solutions(db, [atom("edge", "X", "Y")])) == 3

    def test_constant_restriction(self, db):
        results = solutions(db, [atom("edge", "b", "Y")])
        assert {b[Variable("Y")] for b in results} == {"c", "d"}

    def test_initial_bindings(self, db):
        results = solutions(
            db, [atom("edge", "X", "Y")],
            initial_bindings={Variable("X"): "a"},
        )
        assert len(results) == 1
        assert results[0][Variable("Y")] == "b"

    def test_repeated_variable_in_atom(self):
        db = Database.from_facts({"p": [("a", "a"), ("a", "b")]})
        results = solutions(db, [atom("p", "X", "X")])
        assert len(results) == 1

    def test_missing_relation_yields_nothing(self, db):
        assert solutions(db, [atom("nope", "X")]) == []


class TestConjunctions:
    def test_two_way_join(self, db):
        results = solutions(
            db, [atom("edge", "X", "Y"), atom("color", "Y", "blue")]
        )
        assert {(b[Variable("X")], b[Variable("Y")]) for b in results} == {
            ("b", "c"),
            ("b", "d"),
        }

    def test_chain_join(self, db):
        results = solutions(
            db, [atom("edge", "X", "Y"), atom("edge", "Y", "Z")]
        )
        assert {b[Variable("Z")] for b in results} == {"c", "d"}

    def test_empty_body_yields_initial_bindings(self, db):
        results = solutions(db, [], initial_bindings={Variable("X"): "q"})
        assert results == [{Variable("X"): "q"}]

    def test_left_to_right_equals_greedy_answers(self, db):
        body = [atom("edge", "X", "Y"), atom("color", "Y", "C")]
        greedy = {
            instantiate_args(atom("r", "X", "C").args, b)
            for b in solutions(db, body, order="greedy")
        }
        l2r = {
            instantiate_args(atom("r", "X", "C").args, b)
            for b in solutions(db, body, order="left_to_right")
        }
        assert greedy == l2r

    def test_unknown_order_rejected(self, db):
        with pytest.raises(ValueError):
            solutions(db, [atom("edge", "X", "Y")], order="random")


class TestEqBuiltin:
    def test_filter_when_both_bound(self, db):
        body = [atom("edge", "X", "Y"), Atom(EQ, atom("x", "X", "Y").args)]
        assert solutions(db, body) == []
        db.add_fact("edge", ("e", "e"))
        assert len(solutions(db, body)) == 1

    def test_assign_when_one_bound(self, db):
        body = [atom("edge", "a", "Y"), atom(EQ, "Z", "Y")]
        results = solutions(db, body)
        assert results[0][Variable("Z")] == "b"

    def test_assign_against_constant(self, db):
        results = solutions(db, [atom(EQ, "Z", "kim")])
        assert results[0][Variable("Z")] == "kim"

    def test_both_unbound_raises(self, db):
        with pytest.raises(ValueError, match="unbound"):
            solutions(db, [atom(EQ, "A", "B")])

    def test_eq_deferred_until_ready_in_greedy_order(self, db):
        # eq(Z, Y) listed first must still wait for edge to bind Y.
        body = [atom(EQ, "Z", "Y"), atom("edge", "a", "Y")]
        results = solutions(db, body)
        assert results[0][Variable("Z")] == "b"


class TestStats:
    def test_tuples_examined_counted(self, db):
        stats = EvaluationStats()
        solutions(db, [atom("edge", "b", "Y")], stats=stats)
        assert stats.tuples_examined == 2

    def test_index_restricts_examination(self, db):
        # With the constant bound, only matching tuples are fetched.
        stats = EvaluationStats()
        solutions(db, [atom("color", "X", "blue")], stats=stats)
        assert stats.tuples_examined == 2  # not 3


class TestInstantiateArgs:
    def test_mix_of_constants_and_variables(self):
        args = atom("p", "tom", "X").args
        assert instantiate_args(args, {Variable("X"): 5}) == ("tom", 5)

    def test_unbound_variable_raises(self):
        with pytest.raises(KeyError):
            instantiate_args(atom("p", "X").args, {})
