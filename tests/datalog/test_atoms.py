"""Unit tests for atoms and the connectivity machinery (Defs 2.1/2.2)."""

import pytest

from repro.datalog.atoms import (
    Atom,
    answer_assembler,
    atom,
    connected_components,
    shared_variables,
)
from repro.datalog.terms import Constant, Variable


class TestAtomBasics:
    def test_constructor_coercion(self):
        a = atom("friend", "X", "tom")
        assert a.predicate == "friend"
        assert a.args == (Variable("X"), Constant("tom"))

    def test_arity(self):
        assert atom("p", "X", "Y", "Z").arity == 3

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("", ())

    def test_variables_in_order_with_duplicates(self):
        a = atom("p", "X", "tom", "Y", "X")
        assert a.variables() == (Variable("X"), Variable("Y"), Variable("X"))

    def test_variable_set(self):
        a = atom("p", "X", "tom", "Y", "X")
        assert a.variable_set() == {Variable("X"), Variable("Y")}

    def test_constants(self):
        a = atom("p", "X", "tom", 3)
        assert a.constants() == (Constant("tom"), Constant(3))

    def test_is_ground(self):
        assert atom("p", "a", "b").is_ground()
        assert not atom("p", "a", "X").is_ground()

    def test_positions_of(self):
        a = atom("p", "X", "Y", "X")
        assert a.positions_of(Variable("X")) == (0, 2)
        assert a.positions_of(Variable("Z")) == ()

    def test_has_repeated_variables(self):
        assert atom("p", "X", "X").has_repeated_variables()
        assert not atom("p", "X", "Y").has_repeated_variables()
        assert not atom("p", "a", "a").has_repeated_variables()

    def test_str(self):
        assert str(atom("buys", "X", "camera")) == "buys(X, camera)"


class TestSubstitute:
    def test_substitutes_variables(self):
        a = atom("p", "X", "Y")
        result = a.substitute({Variable("X"): Constant("tom")})
        assert result == atom("p", "tom", "Y")

    def test_leaves_constants_alone(self):
        a = atom("p", "tom", "X")
        result = a.substitute({Variable("X"): Variable("Z")})
        assert result == atom("p", "tom", "Z")

    def test_original_unchanged(self):
        a = atom("p", "X")
        a.substitute({Variable("X"): Constant("c")})
        assert a == atom("p", "X")


class TestRename:
    def test_appends_suffix_to_every_variable(self):
        a = atom("p", "X", "tom", "Y")
        assert a.rename(4) == atom("p", "X_4", "tom", "Y_4")


class TestSharedVariables:
    def test_shared(self):
        assert shared_variables(atom("p", "X", "Y"), atom("q", "Y", "Z")) == {
            Variable("Y")
        }

    def test_disjoint(self):
        assert shared_variables(atom("p", "X"), atom("q", "Z")) == frozenset()


class TestConnectedComponents:
    def test_example_2_2_single_component(self):
        # a(X, Z0) a(Z0, Z1) b(Z1, Y) -- one maximal connected set of 3.
        atoms = [
            atom("a", "X", "Z0"),
            atom("a", "Z0", "Z1"),
            atom("b", "Z1", "Y"),
        ]
        components = connected_components(atoms)
        assert len(components) == 1
        assert components[0] == atoms

    def test_example_2_2_two_components(self):
        # a(X, Y) b(Y, Z) c(W) -- components of size 2 and 1.
        atoms = [atom("a", "X", "Y"), atom("b", "Y", "Z"), atom("c", "W")]
        components = connected_components(atoms)
        assert [len(c) for c in components] == [2, 1]

    def test_transitive_connection(self):
        # p and r share no variable directly but connect through q.
        atoms = [atom("p", "X"), atom("q", "X", "Y"), atom("r", "Y")]
        assert len(connected_components(atoms)) == 1

    def test_ground_atoms_are_singletons(self):
        atoms = [atom("p", "a"), atom("p", "b")]
        assert [len(c) for c in connected_components(atoms)] == [1, 1]

    def test_empty(self):
        assert connected_components([]) == []

    def test_order_preserved(self):
        atoms = [atom("a", "X"), atom("b", "Y"), atom("c", "X")]
        components = connected_components(atoms)
        assert components[0] == [atom("a", "X"), atom("c", "X")]
        assert components[1] == [atom("b", "Y")]


class TestAnswerAssembler:
    """Where the seed's columns lead or trail a row's, an answer is one
    concatenation; anywhere else one ``itemgetter`` pick. Every layout
    gives the tuples the pick gives."""

    @staticmethod
    def picked(arity, selected, others, seed, rows):
        """Column ``p`` of each answer picked out of ``row + seed``."""
        at = [others.index(p) if p in others
              else len(others) + selected.index(p) for p in range(arity)]
        return {tuple((row + seed)[i] for i in at) for row in rows}

    @pytest.mark.parametrize("arity, selected, others", [
        (3, (0, 1), (2,)),   # prefix: seed + row
        (3, (2,), (0, 1)),   # suffix: row + seed
        (3, (1,), (0, 2)),   # interleaved: the pick
        (3, (0, 2), (1,)),
        (1, (0,), ()),
        (1, (), (0,)),
    ])
    def test_every_layout_is_the_pick(self, arity, selected, others):
        seed = tuple(f"s{p}" for p in selected)
        rows = [tuple(f"r{p}{i}" for p in others) for i in range(4)]
        got = answer_assembler(arity, selected, others)(seed, rows)
        assert got == self.picked(arity, selected, others, seed, rows)
        for answer in got:
            assert len(answer) == arity
            assert all(answer[p] == v for p, v in zip(selected, seed))
