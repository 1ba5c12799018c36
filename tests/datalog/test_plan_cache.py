"""Unit tests for the compiled join kernel and its plan cache.

The contract under test: :func:`evaluate_body` (which now runs through
:class:`repro.datalog.plan_cache.JoinPlan`) stays observably identical
to the interpreted join, while plans are compiled O(1) times per
(rule body, binding signature) -- never per tuple, per round, or per
database size.
"""

import pytest

from repro.core.evaluator import loop_source
from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.joins import (
    EQ,
    evaluate_body,
    evaluate_body_into,
    evaluate_body_project,
)
from repro.datalog.parser import parse_program
from repro.datalog.plan_cache import (
    PLAN_CACHE,
    PlanCache,
    compile_join_plan,
    greedy_permutation,
    loop_text,
)
from repro.datalog.seminaive import seminaive_evaluate
from repro.datalog.terms import Constant, Variable
from repro.engine import Engine
from repro.workloads.generators import chain

from ..interpreter import evaluate_body_interpreted

TC_TEXT = "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."


def binding_set(results):
    return frozenset(frozenset(b.items()) for b in results)


@pytest.fixture
def db():
    return Database.from_facts(
        {
            "edge": [("a", "b"), ("b", "c"), ("b", "d")],
            "color": [("a", "red"), ("c", "blue"), ("d", "blue")],
        }
    )


class TestCompileExecute:
    def test_plan_matches_interpreter(self, db):
        body = (atom("edge", "X", "Y"), atom("color", "Y", "C"))
        plan = compile_join_plan(body, db=db)
        assert binding_set(plan.execute(db, {})) == binding_set(
            evaluate_body_interpreted(db, body)
        )

    def test_repeated_variable_checked(self):
        db = Database.from_facts({"p": [("a", "a"), ("a", "b")]})
        plan = compile_join_plan((atom("p", "X", "X"),), db=db)
        assert len(list(plan.execute(db, {}))) == 1

    def test_initial_bindings_preloaded(self, db):
        body = (atom("edge", "X", "Y"),)
        x = Variable("X")
        plan = compile_join_plan(body, bound_vars=frozenset({x}), db=db)
        results = list(plan.execute(db, {x: "b"}))
        assert {b[Variable("Y")] for b in results} == {"c", "d"}
        assert all(b[x] == "b" for b in results)

    def test_eq_const_const_false_is_always_empty(self, db):
        plan = compile_join_plan(
            (Atom(EQ, (Constant("a"), Constant("b"))),
             atom("edge", "X", "Y")),
            db=db,
        )
        assert plan.always_empty
        assert list(plan.execute(db, {})) == []

    def test_eq_arity_checked(self, db):
        with pytest.raises(ValueError, match="arity 2"):
            compile_join_plan((Atom(EQ, (Variable("X"),)),), db=db)

    def test_atom_order_follows_sizes(self, db):
        # color (3 tuples) vs edge (3 tuples): with X pre-bound, the
        # bound-variable count dominates and edge(X, Y) goes first.
        body = (atom("color", "Y", "C"), atom("edge", "X", "Y"))
        perm = greedy_permutation(
            body, frozenset({Variable("X")}), db=db
        )
        assert perm[0] == 1


class TestExecuteProject:
    def test_matches_execute_plus_instantiate(self, db):
        body = (atom("edge", "X", "Y"), atom("color", "Y", "C"))
        output = (Variable("C"), Constant("tag"), Variable("X"))
        facts = set(evaluate_body_project(db, body, output))
        expected = {
            (b[Variable("C")], "tag", b[Variable("X")])
            for b in evaluate_body(db, body)
        }
        assert facts == expected

    def test_falls_back_for_prebound_only_variable(self, db):
        # Z never occurs in the body, so it has no register; the
        # projection falls back to the dict path and reads it from the
        # initial bindings.
        z = Variable("Z")
        facts = set(
            evaluate_body_project(
                db,
                (atom("edge", "b", "Y"),),
                (z, Variable("Y")),
                initial_bindings={z: "seed"},
            )
        )
        assert facts == {("seed", "c"), ("seed", "d")}

    def test_unbound_output_variable_raises(self, db):
        with pytest.raises(KeyError):
            list(
                evaluate_body_project(
                    db, (atom("edge", "X", "Y"),), (Variable("Nope"),)
                )
            )

    def test_unbound_output_variable_raises_at_the_call(self, db):
        # Outside-the-body outputs are kernel arguments, resolved when
        # the call is made: no row has to be pulled, and the join need
        # not have a solution.
        nope = (Variable("Nope"),)
        with pytest.raises(KeyError):
            evaluate_body_project(db, (atom("edge", "X", "Y"),), nope)
        with pytest.raises(KeyError):
            evaluate_body_project(db, (atom("edge", "zz", "Y"),), nope)
        with pytest.raises(KeyError):
            evaluate_body_into(db, (atom("edge", "zz", "Y"),), nope, set())
        # ...but an empty body relation ends the run before that.
        db.ensure("hollow", 1)
        assert list(evaluate_body_project(
            db, (atom("hollow", "X"),), nope)) == []

    def test_empty_body_projects_initial_bindings(self, db):
        z = Variable("Z")
        facts = list(
            evaluate_body_project(
                db, (), (z,), initial_bindings={z: "v"}
            )
        )
        assert facts == [("v",)]


class TestLeftToRightEqDeferral:
    """Regression: rectification can place eq/2 before its binders.

    ``order="left_to_right"`` used to raise ``ValueError: both sides
    unbound`` on such bodies; the eq atom must instead wait until a
    later atom binds one side.  Both the compiled and the interpreted
    paths defer.
    """

    BODY = (
        Atom(EQ, (Variable("X"), Variable("Y"))),
        atom("edge", "X", "Y"),
    )

    def test_compiled_defers(self):
        db = Database.from_facts({"edge": [("a", "a"), ("a", "b")]})
        results = list(
            evaluate_body(db, self.BODY, order="left_to_right")
        )
        assert binding_set(results) == binding_set(
            [{Variable("X"): "a", Variable("Y"): "a"}]
        )

    def test_interpreted_defers(self):
        db = Database.from_facts({"edge": [("a", "a"), ("a", "b")]})
        results = list(
            evaluate_body_interpreted(
                db, self.BODY, order="left_to_right"
            )
        )
        assert len(results) == 1

    def test_assign_form_defers(self, db):
        # eq(Z, Y) first: Z is assigned from Y once edge binds it.
        body = (Atom(EQ, (Variable("Z"), Variable("Y"))),
                atom("edge", "a", "Y"))
        results = list(evaluate_body(db, body, order="left_to_right"))
        assert [b[Variable("Z")] for b in results] == ["b"]

    def test_never_bindable_eq_still_raises(self, db):
        for evaluator in (evaluate_body, evaluate_body_interpreted):
            with pytest.raises(ValueError, match="both sides unbound"):
                list(
                    evaluator(
                        db,
                        (Atom(EQ, (Variable("A"), Variable("B"))),
                         atom("edge", "X", "Y")),
                        order="left_to_right",
                    )
                )


class TestPlanCacheKeying:
    def test_hit_on_repeat(self, db):
        cache = PlanCache()
        body = (atom("edge", "X", "Y"),)
        cache.plan_for(body, frozenset(), "greedy", db)
        cache.plan_for(body, frozenset(), "greedy", db)
        assert cache.stats() == {
            "size": 1, "hits": 1, "misses": 1, "compiles": 1,
            "evictions": 0, "orders": {"greedy": 2},
        }

    def test_size_growth_with_same_rank_hits(self):
        # p stays smaller than q: the greedy walk's comparisons -- and
        # therefore the plan -- cannot change, so no recompile.
        cache = PlanCache()
        db = Database.from_facts(
            {"p": [("a", "b")], "q": [(f"x{i}", f"y{i}") for i in range(5)]}
        )
        body = (atom("p", "X", "Y"), atom("q", "Y", "Z"))
        cache.plan_for(body, frozenset(), "greedy", db)
        db.add_fact("p", ("c", "d"))
        db.add_fact("q", ("y", "z"))
        cache.plan_for(body, frozenset(), "greedy", db)
        assert cache.stats()["compiles"] == 1
        assert cache.stats()["hits"] == 1

    def test_rank_flip_compiles_new_plan(self):
        cache = PlanCache()
        db = Database.from_facts(
            {"p": [("a", "b")], "q": [("x", "y"), ("u", "v")]}
        )
        body = (atom("p", "X", "Y"), atom("q", "Y", "Z"))
        first = cache.plan_for(body, frozenset(), "greedy", db)
        for i in range(5):  # now p is the bigger relation
            db.add_fact("p", (f"g{i}", f"h{i}"))
        second = cache.plan_for(body, frozenset(), "greedy", db)
        assert cache.stats()["compiles"] == 2
        assert first.atom_order() != second.atom_order()

    def test_fifo_eviction(self, db):
        cache = PlanCache(maxsize=2)
        bodies = [
            (atom("edge", "X", "Y"),),
            (atom("color", "X", "C"),),
            (atom("edge", "X", "Y"), atom("color", "Y", "C")),
        ]
        for body in bodies:
            cache.plan_for(body, frozenset(), "greedy", db)
        assert len(cache) == 2
        cache.plan_for(bodies[0], frozenset(), "greedy", db)  # evicted
        assert cache.stats()["compiles"] == 4


class TestPlanCompilesAreSizeIndependent:
    """The ISSUE's acceptance property: compiles depend on the program,
    never on the database size or the fixpoint round count."""

    @staticmethod
    def _seminaive_compiles(n):
        PLAN_CACHE.clear()
        program = parse_program(TC_TEXT).program
        seminaive_evaluate(program, Database.from_facts({"e": chain(n)}))
        return PLAN_CACHE.stats()["compiles"]

    def test_seminaive_round_count_does_not_compile(self):
        # chain(48) runs ~6x the fixpoint rounds of chain(8) over the
        # same rule bodies: every extra round must hit the cache.
        compiles = {self._seminaive_compiles(n) for n in (8, 48)}
        assert len(compiles) == 1
        assert compiles.pop() > 0

    def test_separable_engine_compiles_flat_across_sizes(self):
        counts = set()
        for n in (8, 48):
            PLAN_CACHE.clear()
            parsed = parse_program(TC_TEXT)
            engine = Engine(
                parsed.program, Database.from_facts({"e": chain(n)})
            )
            result = engine.query("tc(a0, Y)?", strategy="separable")
            assert len(result.answers) == n - 1
            counts.add(PLAN_CACHE.stats()["compiles"])
        assert len(counts) == 1


class TestPlanCacheThreadSafety:
    """The cache is shared by the query service's worker threads: its
    counters must stay consistent and its eviction must never drop the
    entry just inserted, no matter the interleaving."""

    @staticmethod
    def _bodies(k):
        return [
            (atom("edge", "X", f"Y{i}"), atom("edge", f"Y{i}", "Z"))
            for i in range(k)
        ]

    def test_concurrent_lookups_keep_counters_consistent(self):
        import threading

        cache = PlanCache(maxsize=64)
        db = Database.from_facts({"edge": [("a", "b"), ("b", "c")]})
        bodies = self._bodies(6)
        lookups_per_thread = 50
        threads = []

        def worker(seed):
            for i in range(lookups_per_thread):
                body = bodies[(seed + i) % len(bodies)]
                plan = cache.plan_for(body, frozenset(), "greedy", db)
                assert plan.body == body

        for seed in range(8):
            threads.append(threading.Thread(target=worker, args=(seed,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        stats = cache.stats()
        # Every lookup was counted exactly once, as a hit or a miss.
        assert stats["hits"] + stats["misses"] == 8 * lookups_per_thread
        # Racing misses may compile duplicates (compilation runs outside
        # the lock by design), but never lose an insert.
        assert stats["compiles"] >= len(bodies)
        assert stats["size"] == len(bodies)

    def test_eviction_under_contention_never_drops_fresh_entry(self):
        import threading

        cache = PlanCache(maxsize=2)
        db = Database.from_facts({"edge": [("a", "b")]})
        bodies = self._bodies(8)
        failures = []

        def worker(seed):
            for i in range(60):
                body = bodies[(seed * 7 + i) % len(bodies)]
                plan = cache.plan_for(body, frozenset(), "greedy", db)
                if plan.body != body:
                    failures.append((seed, i))

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not failures
        assert cache.stats()["size"] <= 2


X, W, V = Variable("X"), Variable("W"), Variable("V")


class TestProjectedInnermostLevel:
    """The innermost bulk level is ``sink.update(<projected bucket>)``
    exactly when its output is the probed atom's free columns, each of
    them used, with nothing to test; every other shape keeps the
    comprehension (or the per-fact loop) it had."""

    #: carry is the smallest relation everywhere, so greedy scans it
    #: and probes the fixed relation at the innermost level.
    FACTS = {
        "carry": [("a",)],
        "e": [("a", "b"), ("a", "c"), ("b", "d")],
        "e3": [("a", "b", "b"), ("a", "c", "d"), ("b", "d", "d")],
    }

    def kernel(self, body, output):
        db = Database.from_facts(self.FACTS)
        plan = compile_join_plan(body, db=db)
        sink: set = set()
        made = plan.execute_into(output, db, sink)
        text, consts, _ = plan.kernel_text(output, True)
        return text, consts, sink, made

    def loop(self, body, output, facts, pseudo="carry"):
        db = Database.from_facts(facts)
        plan = compile_join_plan(body, db=db)
        return loop_text([plan], [output], pseudo, [True], False)

    def test_kernel_unions_the_projected_bucket(self):
        text, consts, sink, made = self.kernel(
            (atom("carry", "X"), atom("e", "X", "W")), (W,))
        # The probe is bound once per run (``_probe``: the projected
        # index's own ``get``), not looked up per carry tuple.
        assert "    q1 = _probe(rels[1], k2, k3, tracer)" in text.splitlines()
        assert "c1 = q1((r0,))" in text and ".lookup" not in text
        assert "                sink.update(c1)" in text.splitlines()
        assert "for f in c" not in text
        assert consts[2:] == ((0,), (1,))  # positions -> cols
        assert sink == {("b",), ("c",)} and made == 2

    def test_output_order_and_repeats_are_columns(self):
        text, consts, sink, _ = self.kernel(
            (atom("carry", "X"), atom("e3", "X", "W", "V")), (V, W, V))
        assert "sink.update(c1)" in text
        assert consts[-1] == (2, 1, 2)
        assert sink == {("b", "b", "b"), ("d", "c", "d")}

    def test_generated_loop_probes_the_fixed_relation_projected(self):
        text, groups = self.loop(
            (atom("carry", "X"), atom("e", "X", "W")), (W,), self.FACTS)
        assert "produced.update(c1)" in map(str.strip, text.splitlines())
        assert "for f in c" not in text
        (((probe,), _, _),), = groups
        assert probe == (1, (0,), (1,))  # step, positions, cols

    @pytest.mark.parametrize("body, output, line", [
        pytest.param(  # a repeated variable within the atom
            (atom("carry", "X"), atom("e3", "X", "W", "W")), (W,),
            "                    sink.add((r1,))", id="check"),
        pytest.param(  # an eq guard scheduled after the atom
            (atom("carry", "X"), atom("e3", "X", "W", "V"),
             atom(EQ, "W", "V")), (W, V),
            "                    sink.add((r1, r2))", id="guard"),
        pytest.param(  # a constant in the output
            (atom("carry", "X"), atom("e", "X", "W")),
            (Constant("tag"), W),
            "                sink.update([(k4, f[k3]) for f in c1])", id="constant"),
        pytest.param(  # a register of an outer level in the output
            (atom("carry", "X"), atom("e", "X", "W")), (X, W),
            "                sink.update([(r0, f[k3]) for f in c1])", id="outer"),
        pytest.param(  # a free column the output drops
            (atom("carry", "X"), atom("e3", "X", "W", "V")), (W,),
            "                sink.update([(f[k3],) for f in c1])", id="dropped"),
        pytest.param(  # no output column: zip() of no columns is no rows
            (atom("carry", "X"), atom("e", "X", "W")), (),
            "                sink.update([() for f in c1])", id="empty"),
        pytest.param(  # ... also when the atom has no free column
            (atom("carry", "X"), atom("e", "X", "X")), (),
            "                sink.update([() for f in c1])", id="all-bound"),
    ])
    def test_other_shapes_keep_their_text(self, body, output, line):
        text, _, sink, made = self.kernel(body, output)
        assert line in text.splitlines()
        assert "_probe(rels[1], k2, None, tracer)" in text  # not projected
        db = Database.from_facts(self.FACTS)
        expected = [
            tuple(b[t] if isinstance(t, Variable) else t.value
                  for t in output)
            for b in evaluate_body_interpreted(db, body)
        ]
        assert sink == set(expected) and made == len(expected)

    def test_a_loop_level_probing_carry_is_not_projected(self):
        """``s`` is smaller than ``carry``: greedy scans ``s`` and
        probes the per-round index over ``carry``, a plain set."""
        facts = {"carry": [("a", "b"), ("a", "c"), ("d", "e")],
                 "s": [("a",)]}
        body, output = (atom("carry", "X", "W"), atom("s", "X")), (W,)
        text, groups = self.loop(body, output, facts)
        assert "produced.update([(f[k3],) for f in c1])" in text
        (((probe,), _, _),), = groups
        assert probe == (0, (), None)  # the scan of s
        # The stand-alone kernel reads a carry *relation*: eligible.
        db = Database.from_facts(facts)
        plan = compile_join_plan(body, db=db)
        assert "q1 = _probe(rels[1], k2, k3, tracer)" in \
            plan.kernel_source(output)

    def test_tagged_plans_keep_the_comprehension(self):
        """PR 17's seed-tagged output starts with the tag, a register
        of the carry level."""
        from repro.core.compiler import compile_plan
        from repro.core.detection import require_separable
        from repro.workloads import paper

        analysis = require_separable(paper.example_2_4_program(), "t")
        cls = next(c for c in analysis.classes if c.positions == (0, 1))
        plan = compile_plan(analysis, selected_class=cls, tagged=True)
        db = Database.from_facts({
            "__carry__": [(0, "c", "d")],
            "a": [("c", "d", "e", "f"), ("e", "f", "g", "h")],
        })
        join, = plan.down_joins
        text, _ = loop_text([compile_join_plan(join.body, db=db)],
                            [join.output], "__carry__", [True], False)
        assert "produced.update([(r0, f[k" in text


def _interpreted_plan(plan, db, seed, tracer):
    """Figure 2 with every join term run by ``tests/interpreter.py``:
    the counters a Separable run must report, whatever executes it."""
    from repro.core.plan import CARRY, SEEN
    from repro.datalog.database import Relation
    from repro.stats import EvaluationStats

    stats = EvaluationStats()

    def apply(joins, pseudo, tuples, arity, label):
        view = Database()
        for pred in db.predicates():
            view.attach(db.relation(pred), pred)
        view.attach(Relation(pseudo, arity, tuples), pseudo)
        produced = set()
        for i, join in enumerate(joins):
            before = len(produced)
            for b in evaluate_body_interpreted(view, join.body, stats=stats,
                                               tracer=tracer):
                produced.add(tuple(b[t] for t in join.output))
                stats.bump_produced()
            tracer.count(f"rule_apps:{label}#{i}")
            if len(produced) > before:
                tracer.count(f"rule_out:{label}#{i}", len(produced) - before)
        return produced

    def loop(joins, initial, arity, label):
        seen, carry = set(initial), set(initial)
        while carry:
            carry = apply(joins, CARRY, carry, arity, label) - seen
            seen |= carry
        return seen

    seen_1 = loop(plan.down_joins, {seed}, plan.seed_arity, "seen_1")
    carry_2 = apply(plan.exit_joins, SEEN, seen_1, plan.seed_arity, "exit")
    return loop(plan.up_joins, carry_2, plan.answer_arity, "seen_2"), stats


def _lemma_4_1_cell(n=5):
    """The ledger's ``dense-lemma41`` shape (k=3, w=1) at a small n."""
    import itertools

    consts = [f"c{i}" for i in range(1, n + 1)]
    program = parse_program(
        "t(X1, X2, X3) :- a(X1, W1) & t(W1, X2, X3).\n"
        "t(X1, X2, X3) :- t0(X1, X2, X3).\n").program
    return program, {
        "a": [p for p in itertools.product(consts, repeat=2)
              if p[0] != p[1]],
        "t0": [t for t in itertools.product(consts, repeat=3)
               if t != ("c1", "c2", "c3")],
    }


def _paper_case(name):
    from repro.workloads import paper

    if name == "lemma-4-1":
        program, facts = _lemma_4_1_cell()
        return program, facts, "t", "t(c1, X2, X3)"
    if name.startswith("example-2-4"):
        facts = {
            "a": [("c", "d", "e", "f"), ("e", "f", "g", "h"),
                  ("c", "x", "e", "f")],
            "b": [("p", "q"), ("q", "r")],
            "t0": [("g", "h", "p"), ("e", "f", "p"), ("c", "d", "z")],
        }
        query = "t(c, d, Z)" if name.endswith("down") else "t(X, Y, r)"
        return paper.example_2_4_program(), facts, "t", query
    db = getattr(paper, f"{name.replace('-', '_')}_database")(8)
    facts = {p: db.tuples(p) for p in db.predicates()}
    program = getattr(paper, f"{name.replace('-', '_')}_program")()
    return program, facts, "buys", "buys(a1, Y)"


@pytest.mark.parametrize("case", [
    "example-1-1", "example-1-2", "example-2-4-down", "example-2-4-up",
    "lemma-4-1"])
def test_projected_probes_count_what_the_interpreter_counts(case):
    """Reference loop, generated loop and the interpreter agree on every
    counter a projected probe could have moved: its bucket has as many
    rows as the plain one, and it is one index build like the plain
    one."""
    from repro.core.compiler import compile_selection
    from repro.core.detection import require_separable
    from repro.core.evaluator import _reference_loops, execute_plan
    from repro.core.selections import classify_selection
    from repro.datalog.parser import parse_atom
    from repro.observability import Tracer
    from repro.stats import EvaluationStats

    program, facts, predicate, query = _paper_case(case)
    selection = classify_selection(
        require_separable(program, predicate), parse_atom(query))
    plan = compile_selection(selection)

    def counters(tracer, stats):
        names = {n for s in tracer.spans() for n in s.counters}
        picked = {
            n: tracer.counter_total(n) for n in names
            if n in ("tuples_examined", "atom_lookups", "bindings_out",
                     "index_builds")
            or n.startswith(("rule_apps:", "rule_out:"))
        }
        picked["tuples_produced"] = stats.tuples_produced
        assert stats.tuples_examined == picked["tuples_examined"]
        return picked

    runs = {}
    for path in ("interpreter", "reference", "generated"):
        db = Database.from_facts(facts)  # every path builds its indexes
        tracer, stats = Tracer(), EvaluationStats()
        PLAN_CACHE.clear()
        if path == "interpreter":
            answers, stats = _interpreted_plan(plan, db, selection.seed,
                                               tracer)
        elif path == "reference":
            with _reference_loops():
                answers = execute_plan(plan, db, [selection.seed], stats,
                                       tracer=tracer)
        else:
            answers = execute_plan(plan, db, [selection.seed], stats,
                                   tracer=tracer)
            texts = "".join(loop_source(plan, "down", traced=True)
                            + loop_source(plan, "up", traced=True))
            assert not (plan.down_joins or plan.up_joins) \
                or "produced.update(c" in texts
        runs[path] = (frozenset(answers), counters(tracer, stats))
    assert runs["generated"] == runs["reference"] == runs["interpreter"]
    assert runs["generated"][0]
