"""Unit tests for the compiled join kernel and its plan cache.

The contract under test: :func:`evaluate_body_into` (which runs through
:class:`repro.datalog.plan_cache.JoinPlan`) stays observably identical
to the interpreted join, while plans are compiled O(1) times per
(rule body, binding signature) -- never per tuple, per round, or per
database size.
"""

import pytest

from repro.core.evaluator import _reference_loops, loop_source
from repro.core.plan import CARRY
from repro.datalog.atoms import Atom, atom
from repro.datalog.database import Database
from repro.datalog.joins import EQ, RowList, evaluate_body_into
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

from ..interpreter import evaluate_body_interpreted, solutions

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
        output = (Variable("X"), Variable("Y"), Variable("C"))
        plan = compile_join_plan(body, db=db)
        rows = RowList()
        assert plan.execute_into(output, db, rows) == 2
        assert sorted(rows) == sorted(
            tuple(b[v] for v in output)
            for b in evaluate_body_interpreted(db, body)
        )

    def test_repeated_variable_checked(self):
        db = Database.from_facts({"p": [("a", "a"), ("a", "b")]})
        plan = compile_join_plan((atom("p", "X", "X"),), db=db)
        rows = RowList()
        plan.execute_into((Variable("X"),), db, rows)
        assert rows == [("a",)]

    def test_initial_bindings_preloaded(self, db):
        body = (atom("edge", "X", "Y"),)
        x = Variable("X")
        plan = compile_join_plan(body, bound_vars=frozenset({x}), db=db)
        rows: set = set()
        plan.execute_into((x, Variable("Y")), db, rows, {x: "b"})
        assert rows == {("b", "c"), ("b", "d")}

    def test_eq_const_const_false_is_always_empty(self, db):
        plan = compile_join_plan(
            (Atom(EQ, (Constant("a"), Constant("b"))),
             atom("edge", "X", "Y")),
            db=db,
        )
        assert plan.always_empty
        rows: set = set()
        assert plan.execute_into((Variable("X"),), db, rows) == 0
        assert rows == set()

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
        facts: set = set()
        evaluate_body_into(db, body, output, facts)
        expected = {
            (b[Variable("C")], "tag", b[Variable("X")])
            for b in evaluate_body_interpreted(db, body)
        }
        assert facts == expected

    def test_falls_back_for_prebound_only_variable(self, db):
        # Z never occurs in the body, so it has no register; the
        # kernel reads it from the initial bindings.
        z = Variable("Z")
        facts: set = set()
        evaluate_body_into(
            db,
            (atom("edge", "b", "Y"),),
            (z, Variable("Y")),
            facts,
            initial_bindings={z: "seed"},
        )
        assert facts == {("seed", "c"), ("seed", "d")}

    def test_unbound_output_variable_raises(self, db):
        with pytest.raises(KeyError):
            evaluate_body_into(
                db, (atom("edge", "X", "Y"),), (Variable("Nope"),), set()
            )

    def test_unbound_output_variable_raises_at_the_call(self, db):
        # Outside-the-body outputs are kernel arguments, resolved when
        # the call is made: the join need not have a solution.
        nope = (Variable("Nope"),)
        with pytest.raises(KeyError):
            evaluate_body_into(db, (atom("edge", "zz", "Y"),), nope, set())
        # ...but an empty body relation ends the run before that.
        db.ensure("hollow", 1)
        assert evaluate_body_into(
            db, (atom("hollow", "X"),), nope, set()) == 0

    def test_empty_body_projects_initial_bindings(self, db):
        z = Variable("Z")
        facts = RowList()
        assert evaluate_body_into(
            db, (), (z,), facts, initial_bindings={z: "v"}
        ) == 1
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
        results = solutions(db, self.BODY, order="left_to_right")
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
        results = solutions(db, body, order="left_to_right")
        assert [b[Variable("Z")] for b in results] == ["b"]

    def test_never_bindable_eq_still_raises(self, db):
        for evaluator in (solutions, evaluate_body_interpreted):
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
        text, consts, _ = plan.kernel_text(output)
        return text, consts, sink, made

    def loop(self, body, output, facts, pseudo="carry"):
        db = Database.from_facts(facts)
        plan = compile_join_plan(body, db=db)
        return loop_text([plan], [output], (pseudo,), [(0, 0)], [True],
                         [False], False)

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
        assert "produced |= c1" in map(str.strip, text.splitlines())
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
        pytest.param(  # an atom with no free column: a membership test
            (atom("carry", "X"), atom("e", "X", "X")), (),
            "            if (r0, r0) in q1:", id="all-bound"),
    ])
    def test_other_shapes_keep_their_text(self, body, output, line):
        text, _, sink, made = self.kernel(body, output)
        assert line in text.splitlines()
        # not projected; a membership test reads the row set itself
        cols = "()" if line.endswith(" in q1:") else "None"
        assert f"_probe(rels[1], k2, {cols}, tracer)" in text
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

    def test_a_batch_unions_the_projected_bucket(self):
        """A Lemma 2.1 batch keeps a carry per seed instead of a seed
        column, so its output is the probed atom's free columns and the
        innermost level is the bucket union -- inside the per-seed
        loop, the probe and union a full selection's loop runs.  A
        seed's carry is scanned term by term, a full selection's round
        row by row."""
        from repro.core.compiler import compile_plan
        from repro.core.detection import require_separable
        from repro.workloads import paper

        analysis = require_separable(paper.example_2_4_program(), "t")
        cls = next(c for c in analysis.classes if c.positions == (0, 1))
        plan = compile_plan(analysis, selected_class=cls)
        db = Database.from_facts({
            "__carry__": [("c", "d")],
            "a": [("c", "d", "e", "f"), ("e", "f", "g", "h")],
        })
        join, = plan.down_joins
        args = ([compile_join_plan(join.body, db=db)], [join.output],
                ("__carry__",), [(0, 0)], [True], [False], False)
        single, _ = loop_text(*args)
        batch, _ = loop_text(*args, batched=True)
        assert "produced |= c1" in batch
        assert "                        produced |= c1" in single
        assert "    for seed, carry in batch.items():" in batch
        assert "for seed" not in single
        # The probe and the union are the single loop's lines, one
        # level further in; the loops around them are in the other
        # order, and each term books its scan of a seed's carry.
        scan = "for f0 in carry:"
        terms = "for q0, k0, k1, i in J0:"
        inner = single[single.index("                    c1 = "):
                       single.index("            X += ")]
        assert "".join("    " + line
                       for line in inner.splitlines(True)) in batch
        assert single.index(scan) < single.index(terms)
        assert batch.index(terms) < batch.index(scan)
        assert "            X += len(J0) * n + e1" in single.splitlines()
        assert "                    rx += len(carry) + e1" in \
            batch.splitlines()


def _interpreted_plan(plan, db, seed, tracer):
    """Figure 2 with every join term run by ``tests/interpreter.py``:
    the counters a Separable run must report, whatever executes it."""
    from repro.core.plan import CARRY, SEEN
    from repro.datalog.database import Relation
    from repro.stats import EvaluationStats

    stats = EvaluationStats()

    def apply(joins, pseudo, tuples, arity, label):
        view = db.with_mounts({pseudo: Relation(pseudo, arity, tuples)})
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
                or "produced |= c" in texts
        runs[path] = (frozenset(answers), counters(tracer, stats))
    assert runs["generated"] == runs["reference"] == runs["interpreter"]
    assert runs["generated"][0]


#: ``e`` is the chain 0 -> 6 and ``ok`` every forward pair but (3, 4):
#: larger than ``e``, so greedy reaches ``ok`` with both columns bound.
BOUND_FACTS = {
    "e": [(i, i + 1) for i in range(6)],
    "ok": [(a, b) for a in range(7) for b in range(a + 1, 7)
           if (a, b) != (3, 4)],
    "t0": [(3, "three"), (6, "end")],
}
BOUND_SEPARABLE = parse_program(
    "t(X, Y) :- e(X, W) & ok(X, W) & t(W, Y).\nt(X, Y) :- t0(X, Y)."
).program
BOUND_STRATUM = parse_program(
    "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, W) & e(W, Y) & ok(W, Y)."
).program


def test_the_interpreter_tests_a_bound_atom_for_membership():
    """Every position bound: one lookup, one tuple examined per hit, no
    index -- what a compiled membership level counts."""
    from repro.observability import Tracer

    db = Database.from_facts(BOUND_FACTS)
    tracer = Tracer()
    body = (atom("e", "X", "W"), atom("ok", "X", "W"))
    found = list(evaluate_body_interpreted(db, body, tracer=tracer))
    assert len(found) == 5  # every edge but (3, 4)
    assert tracer.counter_total("atom_lookups") == 1 + 6
    assert tracer.counter_total("tuples_examined") == 6 + 5
    assert tracer.counter_total("index_builds") == 0
    assert not db.relation("ok")._indexes


def _interpreted_stratum(program, db, tracer):
    """``seminaive_stratum``'s rounds -- round zero every rule in turn,
    then the delta terms, each installing what it derives at once --
    with every body run by ``tests/interpreter.py``."""
    from repro.datalog.database import Relation
    from repro.datalog.plan_cache import DELTA
    from repro.datalog.seminaive import _stratum
    from repro.stats import EvaluationStats

    stats = EvaluationStats()
    (scc,) = program.evaluation_order
    (p,), terms, *_ = _stratum(tuple(program.rules), scc)
    rel = db.ensure(p, program.arity(p))

    def run(view, body, output):
        rows = set()
        for b in evaluate_body_interpreted(view, body, stats=stats,
                                           tracer=tracer):
            rows.add(tuple(b[t] for t in output))
            stats.bump_produced()
        fresh = rows - set(rel)
        rel.add_all(fresh)
        return fresh

    delta = set()
    for r in program.rules:
        delta |= run(db, r.body, r.head.args)
    while delta:
        view = db.with_mounts({DELTA + p: Relation(DELTA + p, 2, delta)})
        delta = set().union(*[run(view, t.body, t.output) for t in terms])
    return frozenset(rel), stats


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("where", ["kernel", "carry-loop", "stratum"])
def test_a_bound_level_is_a_membership_test(where, backend):
    """``ok`` is reached with both columns bound: a membership test in
    the stand-alone kernel, the carry loop and the stratum alike, on
    either backend -- the answers and counters of the interpreter, and
    no index over ``ok``."""
    from repro.core.compiler import compile_selection
    from repro.core.detection import require_separable
    from repro.core.evaluator import _reference_loops, execute_plan
    from repro.core.selections import classify_selection
    from repro.datalog.parser import parse_atom
    from repro.observability import Tracer
    from repro.stats import EvaluationStats
    from repro.storage import ensure_backend

    runs, probed = {}, []
    for path in ("interpreter", "compiled"):
        db = ensure_backend(Database.from_facts(BOUND_FACTS), backend)
        tracer, stats = Tracer(), EvaluationStats()
        PLAN_CACHE.clear()
        if where == "kernel":
            body, output = (atom("e", "X", "W"), atom("ok", "X", "W")), (X, W)
            if path == "interpreter":
                answers = {(b[X], b[W]) for b in evaluate_body_interpreted(
                    db, body, stats=stats, tracer=tracer)}
                stats.bump_produced(len(answers))
            else:
                answers = set()
                evaluate_body_into(db, body, output, answers, stats=stats,
                                   tracer=tracer)
        elif where == "carry-loop":
            selection = classify_selection(
                require_separable(BOUND_SEPARABLE, "t"),
                parse_atom("t(0, Y)"))
            plan = compile_selection(selection)
            if path == "interpreter":
                answers, stats = _interpreted_plan(plan, db, selection.seed,
                                                   tracer)
            else:
                answers = execute_plan(plan, db, [selection.seed], stats,
                                       tracer=tracer)
                with _reference_loops():
                    assert execute_plan(plan, db, [selection.seed]) \
                        == answers
                text = "".join(loop_source(plan, "down", traced=True))
                assert ") in q" in text
        elif path == "interpreter":
            answers, stats = _interpreted_stratum(BOUND_STRATUM, db.copy(),
                                                  tracer)
        else:
            db = seminaive_evaluate(BOUND_STRATUM, db, stats, tracer=tracer)
            answers = db.tuples("tc")
        probed.append(db.relation("ok"))
        runs[path] = (frozenset(answers), stats.tuples_produced, {
            name: tracer.counter_total(name)
            for name in ("atom_lookups", "tuples_examined", "bindings_out")})
    assert runs["compiled"] == runs["interpreter"]
    assert runs["compiled"][0] and runs["compiled"][2]["atom_lookups"]
    ok = probed[-1]
    if backend == "memory":
        assert not ok._indexes and not ok._projected
    else:
        assert not ok._indexed and not ok._probes


class TestBoundLoopStore:
    """``PlanCache.loop_for`` keeps the loops it bound per loop shape,
    on whatever database: a loop entered again on an unchanged database
    is not bound again, one entered on another database whose sizes
    keep its plans takes its probes anew (a re-point) only where they
    read another relation object, and one entered after a write is
    bound anew exactly when the write moved what its plans were chosen
    on -- the answers and statistics stay the reference loop's either
    way."""

    TEXT = ("t(X, Y) :- e(X, W) & g(X, W) & t(W, Y).\n"
            "t(X, Y) :- t0(X, Y).")
    FACTS = {
        "e": [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")],
        "g": [("a", "b"), ("b", "c"), ("c", "d"), ("c", "x")],
        "t0": [("d", "end"), ("c", "mid")],
    }

    @pytest.fixture
    def binds(self, monkeypatch):
        """How many loops ``loop_for`` has bound anew, and (second) how
        many kept ones it has re-pointed."""
        count = [0, 0]
        for k, name in enumerate(("_bind", "_repoint")):
            def spy(self, *args, _k=k, _method=getattr(PlanCache, name),
                    **kwargs):
                count[_k] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(PlanCache, name, spy)
        return count

    def engine(self, db=None):
        program = parse_program(self.TEXT).program
        return Engine(program, Database.from_facts(self.FACTS)
                      if db is None else db)

    @staticmethod
    def read(engine, query="t(a, Y)?"):
        """The generated loops' answers and statistics, checked against
        the reference loop's on the same database."""
        got = engine.query(query)
        with _reference_loops():
            want = engine.query(query)
        assert got.answers == want.answers
        assert got.stats.as_dict() == want.stats.as_dict()
        return got.answers, got.stats.as_dict()

    def test_an_unchanged_database_binds_once(self, binds):
        engine = self.engine()
        first = self.read(engine)
        assert first[0] == {("a", "end"), ("a", "mid")} and binds[0]
        bound = binds[0]
        assert self.read(engine) == first and binds[0] == bound
        # Another database of the same facts re-points and binds nothing:
        # the down loop and the exit join (the up loop probes nothing).
        other = engine.with_edb(Database.from_facts(self.FACTS))
        assert self.read(other) == first and binds == [bound, 2]

    def test_a_rank_flip_of_two_fixed_relations_rebinds(self, binds):
        engine = self.engine()
        _, before = self.read(engine)
        bound = binds[0]
        # g (4 facts) grows past e (5): the down join now probes e first.
        for i in range(3):
            engine.edb.add_fact("g", (f"z{i}", f"z{i}"))
        _, after = self.read(engine)
        assert binds[0] > bound
        assert after["tuples_examined"] != before["tuples_examined"]

    def test_an_emptied_and_refilled_relation_rebinds(self, binds):
        engine = self.engine()
        self.read(engine)
        bound = binds[0]
        g = engine.edb.relation("g")
        g.clear()  # its indexes go; the same size comes back
        g.add_all([("a", "d"), ("b", "c"), ("c", "d"), ("c", "x")])
        answers, _ = self.read(engine)
        assert binds[0] > bound and answers == {("a", "end")}

    def test_an_index_unshare_drops_rebinds(self, binds):
        live = Database.from_facts(self.FACTS)
        snap = live.snapshot()
        engine = self.engine(snap)
        self.read(engine)  # probes the index of snap's g (e is a test)
        bound = binds[0]
        live.add_fact("g", ("q", "r"))
        live.snapshot(snap)  # a service's next snapshot: adopts g's
        assert snap.relation("g")._borrowed
        # Writes to snap inside every size interval: g's indexes drop.
        snap.remove_fact("g", ("c", "x"))
        snap.add_fact("g", ("d", "y"))
        snap.add_fact("e", ("d", "y"))
        snap.add_fact("t0", ("y", "far"))
        assert not snap.relation("g")._indexes
        answers, _ = self.read(engine)
        assert binds[0] > bound and ("a", "far") in answers

    def test_clear_means_cold(self, binds):
        engine = self.engine()
        self.read(engine)
        PLAN_CACHE.clear()
        bound = binds[0]
        engine.query("t(a, Y)?")
        assert binds[0] > bound and PLAN_CACHE.stats()["compiles"] > 0

    def test_two_threads_binding_on_one_snapshot_agree(self, binds):
        import sys
        import threading

        PLAN_CACHE.clear()
        engine = self.engine(Database.from_facts(self.FACTS).snapshot())
        barrier = threading.Barrier(2)
        got = []

        def read():
            barrier.wait()
            result = engine.query("t(a, Y)?")
            got.append((result.answers, result.stats.as_dict()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 2 and got[0] == got[1] == self.read(engine)

    def test_a_batch_fits_on_its_largest_carry(self):
        """A Lemma 2.1 batch is planned on its largest carry, and so
        must be fitted: not on its number of seeds."""
        db = Database.from_facts({"e": [("a", "b"), ("b", "c"),
                                        ("c", "d")]})
        plan = Engine(parse_program(TC_TEXT).program, db).plan_for(
            "tc(a, Y)?")
        joins = plan.down_joins
        many = {i: {(f"s{i}",)} for i in range(5)}  # 5 seeds of 1
        run, fits = PLAN_CACHE.loop_for(joins, (CARRY,), (many,), (many,),
                                        "greedy", db)
        assert fits(db, (many,), (many,))
        big = {0: {(f"s{i}",) for i in range(5)}, 1: {("a",)}}
        assert not fits(db, (big,), (big,))  # 2 seeds, the largest of 5

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_a_replaced_snapshot_is_freed_by_refcount(self, backend,
                                                      monkeypatch):
        """The store holds a relation only weakly: a service snapshot
        whose loops were bound goes, connection and all, when the next
        one replaces it, while the store keeps those loops -- no cyclic
        collection needed."""
        import gc
        import sqlite3
        import weakref

        from repro.service import QueryService, ServiceConfig

        class Tracked(sqlite3.Connection):  # one a weak reference sees
            pass

        connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda *args, **kwargs:
                            connect(*args, factory=Tracked, **kwargs))
        program = parse_program(self.TEXT).program
        config = ServiceConfig(workers=1, backend=backend)
        gc.disable()
        try:
            with QueryService(program, Database.from_facts(self.FACTS),
                              config) as service:
                assert service.query("t(a, Y)?").ok
                db = service._snapshot().db
                kept = [loop for _, loops in PLAN_CACHE._bound.values()
                        for loop in loops if loop.pointing is not None]
                assert any(  # its loops are pointed at its relations
                    ref() is db.relation(name) for loop in kept
                    for name, ref in zip(loop.probed, loop.pointing[1]))
                g = db.relation("g")
                conn = weakref.ref(g._conn) if backend == "sqlite" \
                    else lambda: None
                held, db, g = weakref.ref(db), None, None
                assert conn() is not None or backend == "memory"
                service.add_fact("g", ("q", "r"))
                assert ("a", "end") in service.query("t(a, Y)?").answers
                assert held() is None and conn() is None
                assert {*kept} <= {loop for _, loops in
                                   PLAN_CACHE._bound.values()
                                   for loop in loops}
        finally:
            gc.enable()

    def test_a_loop_left_behind_keeps_no_relation(self, binds):
        """A kept loop that the next snapshot's sizes pass by still holds
        no relation of the snapshot it was pointed on: the frozen SQLite
        relation its terms tested for membership goes, connection and
        all, with that snapshot."""
        import gc
        import sqlite3
        import weakref

        from repro.storage import SQLiteBackend

        PLAN_CACHE.clear()
        live = Database.from_facts(self.FACTS, backend=SQLiteBackend())
        snap = live.snapshot()
        engine = self.engine(snap)
        self.read(engine)  # g (4 facts) probed first, then ``(X, W) in e``
        e = snap.relation("e")
        assert isinstance(e._conn, sqlite3.Connection)
        held, bound = weakref.ref(e), binds[0]
        gc.disable()
        try:
            for fact in [("a", "c"), ("b", "c")]:  # e drops below g
                live.remove_fact("e", fact)
            engine = engine.with_edb(live.snapshot(snap))
            snap = e = None
            self.read(engine)
            assert binds[0] > bound and held() is None
        finally:
            gc.enable()

    def test_a_snapshot_repoints_only_the_loops_reading_a_write(self,
                                                               binds):
        """A snapshot after a write to ``e`` mounts ``g`` and ``t0`` as
        the same objects: the loops that do not read ``e`` run as they
        were pointed, and those that do are re-pointed, not bound."""
        PLAN_CACHE.clear()
        live = Database.from_facts(self.FACTS)
        snap = live.snapshot()
        engine = self.engine(snap)
        first = self.read(engine)
        before = {loop: loop.pointing for _, loops in
                  PLAN_CACHE._bound.values() for loop in loops}
        reads_e = [loop for loop in before if "e" in loop.probed]
        assert reads_e and len(reads_e) < len(before)
        bound = binds[0]
        live.add_fact("e", ("z", "z"))  # out of a's reach, inside e's sizes
        later = live.snapshot(snap)
        assert later.relation("g") is snap.relation("g")
        assert later.relation("e") is not snap.relation("e")
        assert self.read(engine.with_edb(later)) == first
        assert binds == [bound, len(reads_e)]
        for loop, pointing in before.items():
            assert (loop.pointing is pointing) == (loop not in reads_e)

    def test_a_rank_flip_across_snapshots_rebinds(self, binds):
        live = Database.from_facts(self.FACTS)
        snap = live.snapshot()
        engine = self.engine(snap)
        _, before = self.read(engine)
        bound = binds[0]
        # g (4 facts) grows past e (5) on the next snapshot.
        for i in range(3):
            live.add_fact("g", (f"z{i}", f"z{i}"))
        _, after = self.read(engine.with_edb(live.snapshot(snap)))
        assert binds[0] > bound
        assert after["tuples_examined"] != before["tuples_examined"]
        # The first snapshot's loops are kept beside the new ones.
        assert self.read(engine)[1] == before and binds[0] > bound

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_readers_on_alternating_snapshots_beside_a_writer(self, backend,
                                                              binds):
        """Four threads read the newest two snapshots in turn while a
        fifth writes and snapshots: every kept loop is re-pointed back
        and forth, and every answer is the reference loop's on the
        snapshot it was read on."""
        import random
        import sys
        import threading

        from repro.storage import SQLiteBackend

        rng = random.Random(29)
        live = Database.from_facts(
            self.FACTS, backend=None if backend == "memory"
            else SQLiteBackend())
        nodes = ["a", "b", "c", "d", "x"]
        snaps = [live.snapshot()]
        engine = self.engine(snaps[0])
        stop, ready = threading.Event(), threading.Event()
        got = []

        def writer():
            while not stop.is_set() and len(snaps) < 60:
                name = rng.choice(["e", "g", "t0"])
                fact = (rng.choice(nodes), rng.choice(nodes + ["end"]))
                (live.remove_fact if fact in live.relation(name)
                 else live.add_fact)(name, fact)
                snaps.append(live.snapshot(snaps[-1]))
                if len(snaps) > 2:
                    ready.set()
                stop.wait(0.001)

        def reader(k):
            ready.wait(30)
            for i in range(40):
                snap = snaps[-1 - (i + k) % 2]
                result = engine.with_edb(snap).query("t(a, Y)?")
                got.append((snap, result.answers))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(k,)) for k in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads[1:]:
                thread.join(timeout=120)
        finally:
            stop.set()
            threads[0].join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 160 and len({id(snap) for snap, _ in got}) > 2
        for snap, answers in got:
            with _reference_loops():
                want = engine.with_edb(snap).query("t(a, Y)?").answers
            assert answers == want
        assert binds[1]
