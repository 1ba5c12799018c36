"""Compiled join kernel vs interpreted join: semantic equivalence.

:func:`repro.datalog.joins.evaluate_body_into` compiles bodies into
cached :class:`~repro.datalog.plan_cache.JoinPlan` kernels; this suite
pins the property the whole refactor rests on -- for any body the corpus
layouts can produce (recursive conjunctions, repeated variables, eq/2
atoms, pre-bound variables), the kernel makes exactly the bindings the
reference interpreter enumerates, under both join orders.

The kernels are generated Python source, one set-at-a-time function per
output template writing into a sink.  The second half of the suite
holds them to the interpreter as *multisets* (through a
:class:`~repro.datalog.joins.RowList` sink), under all three join
orders, with the interpreter's counters, and pins the counters of the
paper's examples to the values the register-machine interpreter this
replaced produced.
"""

from collections import Counter

import pytest

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.joins import EQ, RowList, evaluate_body_into
from repro.datalog.plan_cache import ORDERS, PLAN_CACHE, compile_join_plan
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.terms import Constant, Variable
from repro.engine import Engine
from repro.observability import Tracer
from repro.stats import EvaluationStats
from repro.workloads import paper

from ..interpreter import evaluate_body_interpreted, solutions
from .strategies import CONSTANTS, separable_setups

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _binding_set(results):
    return frozenset(frozenset(b.items()) for b in results)


def _body_variables(body):
    return sorted(
        {t for a in body for t in a.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )


@st.composite
def _corpus_bodies(draw):
    """A (database, body, initial bindings) triple over corpus layouts.

    The body is a rule body from the shared separable generator --
    evaluated over the materialized fixpoint so recursive atoms are
    non-empty -- optionally extended with an eq/2 atom over its own
    variables (placed anywhere, including before its binders) and with
    some variables pre-bound.
    """
    program, db, _classes, _pers = draw(separable_setups())
    full = seminaive_evaluate(program, db)
    rule = draw(st.sampled_from(list(program.rules)))
    body = list(rule.body)

    variables = _body_variables(body)
    if variables and draw(st.booleans()):
        a = draw(st.sampled_from(variables))
        b = (
            draw(st.sampled_from(variables))
            if draw(st.booleans())
            else Variable("Fresh")
        )
        position = draw(st.integers(min_value=0, max_value=len(body)))
        body.insert(position, Atom(EQ, (a, b)))

    initial = {}
    for v in variables:
        if draw(st.booleans()):
            initial[v] = draw(st.sampled_from(CONSTANTS))

    return full, tuple(body), initial


@st.composite
def _kernel_cases(draw):
    """A corpus body pushed into every corner the generator handles:
    on top of :func:`_corpus_bodies` (eq filters and assigns before and
    after their binders, preloaded bindings) a variable repeated inside
    an atom, a body constant, an atom over an empty relation, and a
    constant-false ``eq`` (an ``always_empty`` plan)."""
    db, body, initial = draw(_corpus_bodies())
    body = list(body)
    atoms = [i for i, a in enumerate(body) if a.predicate != EQ]
    if draw(st.booleans()):  # repeated variable inside an atom
        i = draw(st.sampled_from(atoms))
        args = list(body[i].args)
        if len(args) >= 2:
            src, dst = draw(st.permutations(range(len(args))))[:2]
            args[dst] = args[src]
            body[i] = Atom(body[i].predicate, tuple(args))
    if draw(st.booleans()):  # body constant
        i = draw(st.sampled_from(atoms))
        args = list(body[i].args)
        j = draw(st.integers(min_value=0, max_value=len(args) - 1))
        args[j] = Constant(draw(st.sampled_from(CONSTANTS)))
        body[i] = Atom(body[i].predicate, tuple(args))
    variables = _body_variables(body)
    corner = draw(st.sampled_from(["none", "none", "empty", "false"]))
    if corner == "empty" and variables:
        db.ensure("nothing", 1)
        body.append(Atom("nothing", (draw(st.sampled_from(variables)),)))
    elif corner == "false":
        body.append(Atom(EQ, (Constant("a"), Constant("b"))))
    initial = {v: c for v, c in initial.items() if v in variables}
    try:  # an edit may have removed an eq's only binder: unsafe, skip
        compile_join_plan(body, frozenset(initial), "left_to_right")
    except ValueError:
        assume(False)
    extra = Variable("Outside")  # an output variable outside the body
    output = tuple(variables) + (Constant("tag"),)
    if draw(st.booleans()):
        initial[extra] = draw(st.sampled_from(CONSTANTS))
        output += (extra,)
    return db, tuple(body), initial, output


@COMMON
@given(case=_corpus_bodies())
def test_compiled_matches_interpreted(case):
    db, body, initial = case
    for order in ("greedy", "left_to_right"):
        compiled = _binding_set(
            solutions(db, body, initial_bindings=initial, order=order)
        )
        interpreted = _binding_set(
            evaluate_body_interpreted(
                db, body, initial_bindings=initial, order=order
            )
        )
        assert compiled == interpreted, order


_COUNTERS = ("atom_lookups", "tuples_examined", "bindings_out")


def _run(db, body, output, initial, order, interpreted=False):
    """``(rows, counters)``: ``output`` over every solution of ``body``,
    made by the kernel (or the interpreter) into a :class:`RowList`
    under a fresh tracer."""
    stats, tracer, rows = EvaluationStats(), Tracer(), RowList()
    if interpreted:
        rows.update(
            tuple(t.value if isinstance(t, Constant) else b[t]
                  for t in output)
            for b in evaluate_body_interpreted(
                db, body, initial_bindings=initial, stats=stats,
                order=order, tracer=tracer))
    else:
        made = evaluate_body_into(
            db, body, output, rows, initial_bindings=initial, stats=stats,
            order=order, tracer=tracer)
        assert made == len(rows) == stats.tuples_produced
    assert stats.tuples_examined == tracer.counter_total("tuples_examined")
    return rows, {n: tracer.counter_total(n) for n in _COUNTERS}


@COMMON
@given(case=_kernel_cases())
def test_kernel_and_interpreted_agree_as_multisets(case):
    db, body, initial, output = case
    reference, counts = _run(db, body, output, initial, "left_to_right",
                             interpreted=True)
    # A kernel resolves every body relation first and does nothing if
    # one is empty (or an eq is constant-false); the interpreter finds
    # out atom by atom, counting the lookups on the way.
    short = compile_join_plan(
        body, frozenset(initial), "left_to_right").always_empty or any(
        a.predicate != EQ and not db.relation(a.predicate) for a in body)
    for order in ORDERS:
        rows, kernel_counts = _run(db, body, output, initial, order)
        assert Counter(rows) == Counter(reference), order
        if order == "left_to_right" and not short:
            assert kernel_counts == counts


#: ``Engine.query("buys(a1, Y)?")`` on the Section 4 databases at n = 8,
#: traced, at the commit before the kernels became generated source.
PARENT_COUNTERS = {
    ("example_1_1", "separable"): {
        "atom_lookups": 34, "bindings_out": 32, "tuples_examined": 32,
        "iterations": 9, "tuples_produced": 15,
        "rule_apps:seen_1#0": 8, "rule_apps:seen_1#1": 8,
        "rule_apps:exit#0": 1, "rule_out:seen_1#0": 7,
        "rule_out:exit#0": 1,
    },
    ("example_1_1", "magic"): {
        "atom_lookups": 79, "bindings_out": 78, "tuples_examined": 78,
        "iterations": 16, "tuples_produced": 30,
        "rule_apps:buys__bf#0": 9, "rule_apps:buys__bf#1": 9,
        "rule_apps:buys__bf#2": 1, "rule_apps:magic_buys__bf#0": 7,
        "rule_apps:magic_buys__bf#1": 7, "rule_out:buys__bf#0": 7,
        "rule_out:buys__bf#1": 7, "rule_out:buys__bf#2": 1,
        "rule_out:magic_buys__bf#0": 7, "rule_out:magic_buys__bf#1": 8,
    },
    ("example_1_2", "separable"): {
        "atom_lookups": 34, "bindings_out": 32, "tuples_examined": 32,
        "iterations": 16, "tuples_produced": 15,
        "rule_apps:seen_1#0": 8, "rule_apps:seen_2#0": 8,
        "rule_apps:exit#0": 1, "rule_out:seen_1#0": 7,
        "rule_out:seen_2#0": 7, "rule_out:exit#0": 1,
    },
    ("example_1_2", "magic"): {
        "atom_lookups": 286, "bindings_out": 367, "tuples_examined": 367,
        "iterations": 24, "tuples_produced": 120,
        "rule_apps:buys__bf#0": 16, "rule_apps:buys__bf#1": 16,
        "rule_apps:buys__bf#2": 1, "rule_apps:magic_buys__bf#0": 8,
        "rule_out:buys__bf#0": 56, "rule_out:buys__bf#1": 56,
        "rule_out:buys__bf#2": 1, "rule_out:magic_buys__bf#0": 7,
    },
}


@pytest.mark.parametrize("example, strategy", sorted(PARENT_COUNTERS))
def test_paper_example_counters_equal_the_interpreters(example, strategy):
    program = getattr(paper, f"{example}_program")()
    db = getattr(paper, f"{example}_database")(8)
    tracer = Tracer()
    result = Engine(program, db).query(
        "buys(a1, Y)?", strategy=strategy, tracer=tracer)
    names = {n for s in tracer.spans() for n in s.counters}
    observed = {
        n: tracer.counter_total(n) for n in names
        if n in ("iterations",) + _COUNTERS
        or n.startswith(("rule_apps:", "rule_out:"))
    }
    observed["tuples_produced"] = result.stats.tuples_produced
    assert observed == PARENT_COUNTERS[example, strategy]
    assert result.stats.tuples_examined == observed["tuples_examined"]


class TestKernelSharing:
    OUT = (Variable("W"),)

    def _plan(self, predicate, db):
        body = (atom("carry", "X"), atom(predicate, "X", "W"))
        return PLAN_CACHE.plan_for(body, frozenset(), "greedy", db)

    def test_plans_of_one_shape_share_one_function(self):
        db = Database.from_facts({
            "carry": [("a",)],
            "friend": [("a", "b"), ("b", "c")],
            "idol": [("a", "c"), ("c", "d")],
            "worships": [("x", "a"), ("y", "a"), ("z", "b")],
        })
        PLAN_CACHE.clear()
        friend, idol = self._plan("friend", db), self._plan("idol", db)
        assert friend is not idol
        sinks = [set(), set()]
        friend.execute_into(self.OUT, db, sinks[0])
        idol.execute_into(self.OUT, db, sinks[1])
        assert sinks == [{("b",)}, {("c",)}]
        assert friend._kernel(self.OUT)[0] is idol._kernel(self.OUT)[0]
        assert friend.kernel_source(self.OUT) == idol.kernel_source(self.OUT)
        # Same shape joined on the other column: positions and columns
        # are arguments, not text.
        back = PLAN_CACHE.plan_for(
            (atom("carry", "W"), atom("worships", "X", "W")),
            frozenset(), "greedy", db)
        assert back._kernel((Variable("X"),))[0] \
            is friend._kernel(self.OUT)[0]

    def test_clear_drops_the_compiled_functions(self):
        db = Database.from_facts(
            {"carry": [("a",)], "friend": [("a", "b")]})
        PLAN_CACHE.clear()
        before = self._plan("friend", db)._kernel(self.OUT)[0]
        PLAN_CACHE.clear()
        assert not PLAN_CACHE._shapes
        after = self._plan("friend", db)._kernel(self.OUT)[0]
        assert after is not before

    def test_kernel_source_is_what_tracebacks_show(self):
        import linecache

        db = Database.from_facts(
            {"carry": [("a",)], "friend": [("a", "b")]})
        PLAN_CACHE.clear()
        plan = self._plan("friend", db)
        fn = plan._kernel(self.OUT)[0]
        filename = fn.__code__.co_filename
        assert filename.startswith("<joinplan:")
        assert "".join(linecache.getlines(filename)) \
            == plan.kernel_source(self.OUT)
