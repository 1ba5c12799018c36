"""Property-based tests for the Datalog substrate itself."""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery, containment_mapping
from repro.datalog.database import Database
from repro.datalog.joins import evaluate_body, instantiate_args
from repro.datalog.naive import naive_evaluate
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.programs import Program
from repro.datalog.rules import Rule
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import match_atom

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CONSTS = ["a", "b", "c", "d"]
VARS = [Variable(n) for n in ("X", "Y", "Z", "W")]


@st.composite
def small_bodies(draw):
    """A conjunction of 1-3 binary atoms over few vars, plus facts."""
    atom_count = draw(st.integers(min_value=1, max_value=3))
    predicates = ["p", "q", "r"]
    body = []
    for _ in range(atom_count):
        pred = draw(st.sampled_from(predicates))
        args = tuple(
            draw(
                st.one_of(
                    st.sampled_from(VARS),
                    st.sampled_from([Constant(c) for c in CONSTS]),
                )
            )
            for _ in range(2)
        )
        body.append(Atom(pred, args))
    db = Database()
    for pred in predicates:
        db.ensure(pred, 2)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            db.add_fact(
                pred,
                (draw(st.sampled_from(CONSTS)), draw(st.sampled_from(CONSTS))),
            )
    return tuple(body), db


def brute_force(db, body):
    """All satisfying substitutions by exhaustive enumeration."""
    variables = sorted(
        {v for a in body for v in a.variable_set()}, key=lambda v: v.name
    )
    results = set()
    for values in itertools.product(CONSTS, repeat=len(variables)):
        binding = dict(zip(variables, values))
        ok = True
        for a in body:
            fact = tuple(
                t.value if isinstance(t, Constant) else binding[t]
                for t in a.args
            )
            if fact not in db.tuples(a.predicate):
                ok = False
                break
        if ok:
            results.add(tuple(binding[v] for v in variables))
    return results


@COMMON
@given(data=small_bodies())
def test_join_matches_brute_force(data):
    body, db = data
    variables = sorted(
        {v for a in body for v in a.variable_set()}, key=lambda v: v.name
    )
    got = {
        tuple(b[v] for v in variables)
        for b in evaluate_body(db, body, order="greedy")
    }
    assert got == brute_force(db, body)


@COMMON
@given(data=small_bodies())
def test_greedy_equals_left_to_right(data):
    body, db = data
    variables = sorted(
        {v for a in body for v in a.variable_set()}, key=lambda v: v.name
    )

    def run(order):
        return {
            tuple(b[v] for v in variables)
            for b in evaluate_body(db, body, order=order)
        }

    assert run("greedy") == run("left_to_right")


_TERMS = st.one_of(
    st.sampled_from(VARS[:2]),  # few variables: repeats are common
    st.sampled_from([Constant(c) for c in CONSTS[:2]]),
)


@COMMON
@given(data=st.integers(min_value=1, max_value=4).flatmap(
    lambda arity: st.tuples(
        st.tuples(*[_TERMS] * arity),
        st.tuples(*[st.sampled_from(CONSTS[:3])] * arity))))
def test_residual_match_agrees_with_match_atom(data):
    """``Atom.matches`` (the boolean every strategy filters its answers
    through) against ``match_atom``, which builds the bindings and
    shares no code with it."""
    args, fact = data
    query = Atom("t", args)
    assert query.matches(fact) == (match_atom(query, fact) is not None)


@st.composite
def random_programs(draw):
    """Random safe Datalog programs over binary predicates (possibly
    nonlinear, possibly mutually recursive) plus a random EDB."""
    idb = ["s", "t"]
    edb = ["e", "f"]
    rules = []
    for head_pred in idb:
        rule_count = draw(st.integers(min_value=1, max_value=3))
        for _ in range(rule_count):
            body_len = draw(st.integers(min_value=1, max_value=3))
            body = []
            for _ in range(body_len):
                pred = draw(st.sampled_from(idb + edb))
                args = tuple(
                    draw(st.sampled_from(VARS)) for _ in range(2)
                )
                body.append(Atom(pred, args))
            body_vars = {v for a in body for v in a.variable_set()}
            if not body_vars:
                continue
            head_args = tuple(
                draw(st.sampled_from(sorted(body_vars, key=str)))
                for _ in range(2)
            )
            rules.append(Rule(Atom(head_pred, head_args), tuple(body)))
    # ensure every IDB predicate keeps at least one rule
    for head_pred in idb:
        if not any(r.head.predicate == head_pred for r in rules):
            rules.append(
                Rule(
                    Atom(head_pred, (VARS[0], VARS[1])),
                    (Atom("e", (VARS[0], VARS[1])),),
                )
            )
    db = Database()
    for pred in edb:
        db.ensure(pred, 2)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            db.add_fact(
                pred,
                (draw(st.sampled_from(CONSTS)), draw(st.sampled_from(CONSTS))),
            )
    return Program(rules), db


@COMMON
@given(data=random_programs())
def test_naive_equals_seminaive(data):
    program, db = data
    naive_result = naive_evaluate(program, db)
    semi_result = seminaive_evaluate(program, db)
    for pred in program.idb_predicates:
        assert naive_result.tuples(pred) == semi_result.tuples(pred), (
            f"disagreement on {pred} for program:\n{program}"
        )


@st.composite
def conjunctive_query_pairs(draw):
    """Two conjunctive queries over shared predicates, plus a database."""
    def one_query():
        body_len = draw(st.integers(min_value=1, max_value=3))
        body = tuple(
            Atom(
                draw(st.sampled_from(["p", "q"])),
                (draw(st.sampled_from(VARS)), draw(st.sampled_from(VARS))),
            )
            for _ in range(body_len)
        )
        body_vars = sorted(
            {v for a in body for v in a.variable_set()}, key=str
        )
        head = (draw(st.sampled_from(body_vars)),)
        return ConjunctiveQuery(head, body)

    db = Database()
    for pred in ("p", "q"):
        db.ensure(pred, 2)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            db.add_fact(
                pred,
                (draw(st.sampled_from(CONSTS)), draw(st.sampled_from(CONSTS))),
            )
    return one_query(), one_query(), db


@COMMON
@given(data=conjunctive_query_pairs())
def test_containment_mapping_soundness(data):
    """If a containment mapping q1 -> q2 exists, then answers(q2) is a
    subset of answers(q1) on every database (here: a random one)."""
    q1, q2, db = data
    if containment_mapping(q1, q2) is not None:
        assert q2.evaluate(db) <= q1.evaluate(db), (
            f"q1: {q1}\nq2: {q2}"
        )


@COMMON
@given(
    rule_text=st.sampled_from(
        [
            "t(X, Y) :- a(X, W) & t(W, Y).",
            "t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).",
            "p(X) :- q(X, X).",
        ]
    ),
    suffix=st.integers(min_value=0, max_value=99),
)
def test_rename_round_trip_parses(rule_text, suffix):
    r = parse_rule(rule_text).rename(suffix)
    assert parse_rule(str(r)) == r
