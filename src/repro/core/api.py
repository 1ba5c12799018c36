"""The Separable evaluation facade: detect, prepare the form, execute.

:func:`evaluate_separable` answers an arbitrary selection query on a
separable recursion through its :class:`~repro.core.compiler.QueryForm`
(:func:`evaluate_form` binds a request's constants into one):

* full selections (Definition 2.7) compile straight to a
  :class:`~repro.core.plan.SeparablePlan` and run;
* partial selections follow Lemma 2.1 operationally -- evaluate the
  ``t_part`` recursion (the class dropped, constants persistent) plus,
  for each rule of the rewritten class, a sideways pass through its
  nonrecursive atoms producing fully bound seeds for the original
  recursion, all of them evaluated as one fixpoint that keeps a carry
  and a seen per seed (:func:`_run_batch`);
* queries with *no* constants are outside the paper's scope ("queries in
  which at least one argument of the query predicate is a constant") and
  raise :class:`~repro.datalog.errors.NotFullSelectionError`; the engine
  falls back to semi-naive materialization for them.

Answers are returned as full-arity tuples matching the query atom, with
residual constants (outside the selected component) and repeated query
variables applied as final filters.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..budget import Budget, UNLIMITED
from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import BudgetExceeded, NotFullSelectionError
from ..datalog.joins import RowList, evaluate_body_into
from ..datalog.programs import Program
from ..stats import EvaluationStats
from .analysis import RecursionAnalysis
from .compiler import QueryForm, ReadSet, full_selection_key, query_form
from .detection import require_separable
from .evaluator import execute_batch, execute_plan

__all__ = [
    "evaluate_form",
    "evaluate_separable",
    "full_selection_key",
]


def _through_memo(memo, key: tuple, run, stats, budget: Budget):
    """``memo.get_or_run(key, ...)`` for ``run(branch) -> (answers,
    ReadSet)``.

    A miss runs under a *fresh* branch :class:`EvaluationStats`, cached
    beside the answers as the work the entry cost, and every consumer --
    first evaluator or cache hit -- merges that branch into ``stats``
    (``None``: nothing to report to).  A budget trip during the miss
    merges the partial branch before propagating, so union-level
    handlers always see the complete picture.  The entry is ``(answers,
    branch, ReadSet)``: what decides whether it outlives a write.
    """
    ran = False

    def compute() -> tuple:
        nonlocal ran
        ran = True
        branch = EvaluationStats()
        try:
            answers, reads = run(branch)
        except BudgetExceeded as exc:
            if stats is not None:
                stats.merge(branch)
                exc.stats = stats
            raise
        return answers, branch, reads

    answers, branch = memo.get_or_run(key, compute)[:2]
    if stats is not None:
        stats.merge(branch)
        if ran:
            # The miss was metered against its own accumulator: re-apply
            # the union-level limits to the merged totals.  A hit is
            # reported but never trips by itself -- it did no work, and
            # an entry may carry more than its own (see _run_batch).
            budget.check_stats(stats)
    return answers


def _resume(memo, key: tuple) -> Optional[tuple]:
    """``execute_plan``'s ``resume`` for a miss on ``key``: the seen
    sets of the value the memo set aside and hands back
    (``memo.resume_from``, where it has one), and the rows of each that
    a row added since joins; ``None`` when there is none."""
    resume_from = getattr(memo, "resume_from", None)
    held = resume_from and resume_from(key)
    if not held:
        return None
    reads, inserted = held
    return reads.seen, reads.joined(inserted)


def _evaluate_full(
    form: QueryForm,
    seed: tuple,
    db: Database,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
    memo=None,
) -> set[tuple]:
    """One full selection of ``form`` from ``seed``, through the memo
    when given.

    The memo (see :class:`repro.service.FullSelectionMemo`) caches on
    :func:`full_selection_key`; its entry is the frozen answer set,
    assembled once, so a hit returns that very object.  A miss hands
    the down loop the memo's ``seen_sets(key)`` when it has them: the
    runs of the same form, order and scope it may absorb -- unless the
    memo hands it a value set aside to resume (:func:`_resume`).
    """
    plan, assemble = form.plan, form.assemble
    if memo is None:
        return assemble(seed, execute_plan(plan, db, [seed], stats=stats,
                                           budget=budget, order=order,
                                           tracer=tracer))
    key = form.key + (seed, order)

    def miss(branch: EvaluationStats) -> tuple:
        seen, resume, known = [], _resume(memo, key), None
        if resume is None:
            seen_sets = getattr(memo, "seen_sets", None)
            known = seen_sets and seen_sets(key)
        seen_2 = execute_plan(plan, db, [seed], stats=branch, budget=budget,
                              order=order, tracer=tracer, seen_1=seen,
                              known=known, resume=resume)
        return frozenset(assemble(seed, seen_2)), ReadSet(
            form.reads, seen[0], seen_2, len(seen[1]), resume is not None)

    return _through_memo(memo, key, miss, stats, budget)


def _run_batch(
    form: QueryForm,
    seeds: list[tuple],
    db: Database,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
    memo=None,
):
    """``t_full`` for every seed of one partial selection, as one run;
    yields each seed's share -- its answer columns -- in seed order.

    A union of fixpoints over the same rules runs as one fixpoint if
    each seed keeps its own carry and seen: :func:`execute_batch` runs
    ``form.plan`` -- the one a full selection of one seed runs -- for all of
    them in lockstep and hands back each seed's ``seen_2``, what
    ``execute_plan(plan, db, [seeds[i]])`` would have returned -- in as
    many rounds as the deepest seed needs, not the sum over seeds.

    With a memo the protocol stays one ``get_or_run`` per seed, in seed
    order, on the per-seed :func:`full_selection_key`, and each entry is
    the seed's share assembled with its seed: the answer set that full
    selection returns when asked directly.  The first ``compute`` that
    actually runs evaluates the batch over its seed and those later
    seeds the memo holds no entry for (``memo.peek``, where the memo
    has one; all of them otherwise) and has set aside no value to
    resume, and the later ``compute``s take their share of it; a seed
    whose value it resumes (:func:`_resume`, asked once per seed before
    any batch forms) runs alone.  The batch's
    statistics go with the seed whose ``compute`` ran it and an empty
    accumulator with the others, so the batch's work is merged exactly
    once -- a seed this query's batch covered merges nothing more, even
    if another query's entry answers it in the end.  Nothing waits --
    no ``compute`` on the memo, no lookup on a ``compute`` -- so two
    queries meeting each other's seeds in opposite orders cannot
    deadlock.
    """

    plan, assemble = form.plan, form.assemble

    def run(batch, branch, seen_1=None) -> dict[int, set]:
        return dict(zip(batch, execute_batch(
            plan, db, [seeds[i] for i in batch], stats=branch,
            budget=budget, order=order, tracer=tracer, seen_1=seen_1)))

    if memo is None:
        if seeds:
            yield from run(range(len(seeds)), stats).values()
        return

    keys = [form.key + (seed, order) for seed in seeds]
    peek = getattr(memo, "peek", None)
    missing = [i for i, key in enumerate(keys)
               if peek is None or peek(key) is None]
    done: dict[int, set] = {}  # the shares of what this query ran
    firsts: dict[int, set] = {}  # and their seen_1

    up = plan.up_positions
    resumes = {i: resume for i in missing
               if (resume := _resume(memo, keys[i])) is not None}

    def share(i: int, branch: EvaluationStats) -> tuple:
        if i in resumes:  # this seed alone, from its old sets
            seen_1: list = []
            done[i] = execute_plan(plan, db, [seeds[i]], stats=branch,
                                   budget=budget, order=order,
                                   tracer=tracer, seen_1=seen_1,
                                   resume=resumes[i])
            firsts[i] = seen_1[0]
        elif i not in done:
            batch, seen_1 = [i] + [j for j in missing if j > i
                                   and j not in done and j not in resumes], []
            done.update(run(batch, branch, seen_1))
            firsts.update(zip(batch, seen_1))
        return frozenset(assemble(seeds[i], done[i])), ReadSet(
            form.reads, firsts[i], done[i], resumed=i in resumes)

    for i, key in enumerate(keys):
        answers = _through_memo(memo, key, partial(share, i),
                                None if i in done else stats, budget)
        yield [tuple(t[p] for p in up) for t in answers]


def _evaluate_partial(
    form: QueryForm,
    query: Atom,
    db: Database,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
    memo=None,
) -> set[tuple]:
    """Operational Lemma 2.1 on the form's rewrite class: ``t_part``
    answers plus the ``t_full`` batch (:func:`_run_batch`).

    When either half raises :class:`BudgetExceeded`, the exception
    leaves here carrying the *merged* statistics of everything that ran
    and the answers assembled so far -- ``t_part``'s, and those of the
    seeds the memo answered before the batch tripped -- as
    :attr:`~repro.errors.BudgetExceeded.partial`: the query service
    degrades those into a ``PartialResult`` instead of a bare error.
    """
    answers: set[tuple] = set()
    batch = form.batch

    try:
        answers |= _evaluate_full(form.part, form.part.seed(query), db,
                                  stats, budget, order, tracer, memo)

        # t_full: the sideways pass finds each seed with the head
        # values of the rewritten class's columns it answers for.
        init = dict(zip(form.init, form.seed(query)))
        width = len(batch.seed_positions)
        rows = RowList()  # in discovery order: it numbers the seeds
        for body, terms in form.sideways:
            evaluate_body_into(
                db, body, terms, rows, initial_bindings=init, stats=stats,
                order=order, tracer=tracer,
            )
        heads_of: dict[tuple, list[tuple]] = {}
        for row in rows:
            heads_of.setdefault(row[:width], []).append(row[width:])

        shares = _run_batch(batch, list(heads_of), db, stats, budget,
                            order, tracer, memo)
        for heads, share in zip(heads_of.values(), shares):
            for head in heads:
                answers |= batch.assemble(head, share)
    except BudgetExceeded as exc:
        # The failing run attached only its own stats; replace them with
        # the union accumulator and keep the answers assembled so far.
        exc.stats = stats
        if exc.partial is None:
            exc.partial = frozenset(f for f in answers if query.matches(f))
        raise
    return answers


def evaluate_form(
    form: QueryForm,
    query: Atom,
    db: Database,
    stats: EvaluationStats,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    tracer=None,
    memo=None,
) -> frozenset[tuple]:
    """Answer ``query``, a request of the shape ``form`` was prepared
    for (:func:`~repro.core.compiler.query_form`): bind its constants
    and run -- see :func:`evaluate_separable` for the parameters."""
    if form.plan is not None:
        answers = _evaluate_full(form, form.seed(query), db, stats, budget,
                                 order, tracer, memo)
    elif form.part is not None:
        answers = _evaluate_partial(form, query, db, stats, budget, order,
                                    tracer, memo)
    else:
        raise NotFullSelectionError(
            f"query {query} has no selection constants; the Separable "
            f"algorithm evaluates selections (use semi-naive "
            f"materialization for all-free queries)"
        )
    # A vacuous form's constants all sit where evaluation put them.
    result = (frozenset(answers) if form.vacuous
              else frozenset(f for f in answers if query.matches(f)))
    stats.record_relation("ans", len(result))
    return result


def evaluate_separable(
    program: Program,
    db: Database,
    query: Atom,
    analysis: Optional[RecursionAnalysis] = None,
    stats: Optional[EvaluationStats] = None,
    budget: Budget = UNLIMITED,
    order: str = "greedy",
    allow_disconnected: bool = False,
    tracer=None,
    memo=None,
) -> frozenset[tuple]:
    """Answer a selection query on a separable recursion.

    Parameters
    ----------
    program:
        Must contain the definition of ``query.predicate``; used for
        detection when ``analysis`` is not supplied.
    db:
        Extents for every base predicate the recursion mentions.  If
        base predicates are themselves IDB, materialize them first (the
        engine does this automatically).
    query:
        The query atom; at least one argument must be a constant.
    analysis:
        A pre-computed :class:`RecursionAnalysis` to skip re-detection.
    memo:
        An optional full-selection memo (anything with ``get_or_run(key,
        compute)``, e.g. :class:`repro.service.FullSelectionMemo`):
        every full selection -- the direct one, and each seed of the
        Lemma 2.1 union of a partial one -- is served from it when
        already answered, and computed under a fresh branch
        ``EvaluationStats`` otherwise (the seeds of one union that miss
        are computed together, told apart beforehand through the memo's
        ``peek(key)`` if it has one; see :func:`_run_batch` for which
        entry carries the work).  An entry is ``(answers, branch,
        read set)`` (see :func:`_through_memo`), ``answers`` the
        frozenset the full selection returns: a direct one with no
        residual match returns that very object.  The caller must scope
        the memo (or the keys) to this exact ``db`` snapshot.

    Returns the full-arity answer tuples matching the query atom.
    """
    if analysis is None:
        analysis = require_separable(
            program, query.predicate,
            allow_disconnected=allow_disconnected,
        )
    if stats is None:
        stats = EvaluationStats()
    if not stats.strategy:
        stats.strategy = "separable"
    return evaluate_form(query_form(analysis, query, allow_disconnected),
                         query, db, stats, budget, order, tracer, memo)
