"""Property-based delta-oracle tests for incremental maintenance.

Random mutation sequences (inserts and deletes, cyclic EDBs included)
run against random :class:`SeparableLayout` recursions; after *every*
prefix of the sequence the repaired view must agree answer-for-answer
with a from-scratch semi-naive evaluation of the mutated base, the
reported net IDB delta must describe exactly the extent transition.

The example count scales with ``REPRO_MAINT_EXAMPLES`` (CI's
maintenance-smoke job sets 200; the default keeps local runs quick).
``derandomize`` keeps the CI run reproducible -- a failure there is a
failure everywhere.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.seminaive import seminaive_evaluate
from repro.maintenance import MaintainedView

from .strategies import CONSTANTS, separable_setups

MAINT_EXAMPLES = int(os.environ.get("REPRO_MAINT_EXAMPLES", "40"))

COMMON = settings(
    max_examples=MAINT_EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def mutation_sequences(draw, db):
    """Draw ``[("add" | "del", relation, fact), ...]`` over ``db``'s EDB.

    Deletes are biased toward facts present in the *initial* database
    (so DRed actually fires) but may also name arbitrary or
    already-deleted facts, exercising the no-op paths.
    """
    names = sorted(db.predicates())
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        name = draw(st.sampled_from(names))
        arity = db.arity(name)
        kind = draw(st.sampled_from(["add", "del"]))
        existing = sorted(db.tuples(name))
        if kind == "del" and existing and draw(st.booleans()):
            fact = draw(st.sampled_from(existing))
        else:
            fact = tuple(
                draw(st.sampled_from(CONSTANTS)) for _ in range(arity)
            )
        ops.append((kind, name, fact))
    return ops


def _idb_extents(program, db):
    return {
        pred: set(db.tuples(pred)) for pred in program.idb_predicates
    }


@COMMON
@given(data=separable_setups().flatmap(
    lambda setup: mutation_sequences(setup[1]).map(
        lambda ops: (setup[0], setup[1], ops)
    )
))
def test_every_prefix_matches_the_serial_oracle(data):
    program, edb, ops = data
    view = MaintainedView(program, edb)
    for step, (kind, name, fact) in enumerate(ops):
        before = _idb_extents(program, view.db)
        if kind == "add":
            delta = {name: (frozenset([fact]), frozenset())}
            edb.add_fact(name, fact)
        else:
            delta = {name: (frozenset(), frozenset([fact]))}
            edb.remove_fact(name, fact)
        changes = view.apply(delta)

        # Answer-for-answer equality with a from-scratch evaluation of
        # the mutated base, at every prefix.
        oracle = seminaive_evaluate(program, edb)
        after = _idb_extents(program, view.db)
        for pred, want in _idb_extents(program, oracle).items():
            assert after[pred] == want, (step, kind, name, fact, pred)

        # The reported net delta is exactly the extent transition.
        for pred in program.idb_predicates:
            added, removed = changes.get(
                pred, (frozenset(), frozenset())
            )
            assert added == after[pred] - before[pred], (step, pred)
            assert removed == before[pred] - after[pred], (step, pred)

