"""The Separable evaluation facade: detect, classify, compile, execute.

:func:`evaluate_separable` answers an arbitrary selection query on a
separable recursion:

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
from ..datalog.terms import Variable
from ..stats import EvaluationStats
from .analysis import EquivalenceClass, RecursionAnalysis
from .compiler import compile_plan, compile_selection
from .detection import require_separable
from .evaluator import execute_batch, execute_plan
from .plan import SeparablePlan
from .rewrite import choose_rewrite_class, program_without_class
from .selections import Selection, classify_selection

__all__ = [
    "evaluate_separable",
    "full_selection_key",
]


def full_selection_key(
    analysis: RecursionAnalysis,
    selected_class: Optional[EquivalenceClass],
    selected_positions: tuple[int, ...],
    seed: tuple,
    order: str,
) -> tuple:
    """The memo key identifying one full-selection carry/seen run.

    A compiled plan is a pure function of the analysis and the selected
    component, and a run of it is additionally a function of the seed
    vector and the join order, so this tuple keys exactly the Lemma 2.1
    unit of work a cross-request memo may share (its entry is the answer
    set the full selection returns).  The analysis object itself
    participates (it is a frozen dataclass), which keeps ``t`` and its
    ``t_part`` rewrite -- same predicate name, different programs --
    from colliding.  Callers scope the key to one database
    snapshot (the service adds the EDB fingerprint).
    """
    component = (
        ("class", selected_class.index)
        if selected_class is not None
        else ("pers", selected_positions)
    )
    return (analysis, component, tuple(seed), order)


def _through_memo(memo, key: tuple, run, stats, budget: Budget):
    """``memo.get_or_run(key, ...)`` for ``run(branch) -> answers``.

    A miss runs under a *fresh* branch :class:`EvaluationStats`, cached
    beside the answers as the work the entry cost, and every consumer --
    first evaluator or cache hit -- merges that branch into ``stats``
    (``None``: nothing to report to).  A budget trip during the miss
    merges the partial branch before propagating, so union-level
    handlers always see the complete picture.
    """
    ran = False

    def compute() -> tuple[frozenset[tuple], EvaluationStats]:
        nonlocal ran
        ran = True
        branch = EvaluationStats()
        try:
            return run(branch), branch
        except BudgetExceeded as exc:
            if stats is not None:
                stats.merge(branch)
                exc.stats = stats
            raise

    answers, branch = memo.get_or_run(key, compute)
    if stats is not None:
        stats.merge(branch)
        if ran:
            # The miss was metered against its own accumulator: re-apply
            # the union-level limits to the merged totals.  A hit is
            # reported but never trips by itself -- it did no work, and
            # an entry may carry more than its own (see _run_batch).
            budget.check_stats(stats)
    return answers


def _evaluate_full(
    selection: Selection,
    db: Database,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    tracer=None,
    memo=None,
) -> set[tuple]:
    """One full selection, through the memo when given.

    The memo (see :class:`repro.service.FullSelectionMemo`) caches and
    coalesces on :func:`full_selection_key`; its entry is the frozen
    answer set, assembled once, so a hit returns that very object.
    """
    plan = compile_selection(selection)
    seed = selection.seed
    assemble = plan.assembler()

    def run(branch: Optional[EvaluationStats]) -> set[tuple]:
        return assemble(seed, execute_plan(
            plan, db, [seed], stats=branch, budget=budget,
            order=order, tracer=tracer,
        ))

    if memo is None:
        return run(stats)
    key = full_selection_key(
        selection.analysis, selection.selected_class,
        selection.selected_positions, seed, order,
    )
    return _through_memo(memo, key, lambda branch: frozenset(run(branch)),
                         stats, budget)


def _part_analysis(
    analysis: RecursionAnalysis, cls: EquivalenceClass,
    allow_disconnected: bool,
) -> RecursionAnalysis:
    """The analysis of ``t_part`` (the recursion without ``cls``): a
    function of the program alone, so derived once and kept with
    ``analysis`` -- 0.17 ms to re-derive on every partial query."""
    key = (cls.index, allow_disconnected)
    part = analysis.part_analyses.get(key)
    if part is None:
        part = analysis.part_analyses[key] = require_separable(
            program_without_class(analysis, cls), analysis.predicate,
            allow_disconnected=allow_disconnected,
        )
    return part


def _run_batch(
    analysis: RecursionAnalysis,
    cls: EquivalenceClass,
    plan: SeparablePlan,
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
    ``plan`` -- the one a full selection of one seed runs -- for all of
    them in lockstep and hands back each seed's ``seen_2``, what
    ``execute_plan(plan, db, [seeds[i]])`` would have returned -- in as
    many rounds as the deepest seed needs, not the sum over seeds.

    With a memo the protocol stays one ``get_or_run`` per seed, in seed
    order, on the per-seed :func:`full_selection_key`, and each entry is
    the seed's share assembled with its seed: the answer set that full
    selection returns when asked directly.  The first ``compute`` that
    actually runs evaluates the batch over its seed and those later
    seeds the memo holds no entry for (``memo.peek``, where the memo
    has one; all of them otherwise), and the later ``compute``s take
    their share of it.  The batch's statistics go with the seed whose
    ``compute`` ran it and an empty accumulator with the others, so the
    batch's work is merged exactly once -- a seed this query's batch
    covered merges nothing more, even if another query's entry answers
    it in the end.  No ``compute`` waits on the memo, so two queries
    meeting each other's seeds in opposite orders cannot deadlock.
    """

    def run(batch, branch: Optional[EvaluationStats]) -> dict[int, set]:
        return dict(zip(batch, execute_batch(
            plan, db, [seeds[i] for i in batch], stats=branch,
            budget=budget, order=order, tracer=tracer)))

    if memo is None:
        if seeds:
            yield from run(range(len(seeds)), stats).values()
        return

    keys = [full_selection_key(analysis, cls, cls.positions, seed, order)
            for seed in seeds]
    peek = getattr(memo, "peek", None)
    missing = [i for i, key in enumerate(keys)
               if peek is None or peek(key) is None]
    done: dict[int, set] = {}  # the shares of what this query ran

    assemble, up = plan.assembler(), plan.up_positions

    def share(i: int, branch: EvaluationStats) -> frozenset[tuple]:
        if i not in done:
            done.update(run(
                [i] + [j for j in missing if j > i and j not in done],
                branch))
        return frozenset(assemble(seeds[i], done[i]))

    for i, key in enumerate(keys):
        answers = _through_memo(memo, key, partial(share, i),
                                None if i in done else stats, budget)
        yield [tuple(t[p] for p in up) for t in answers]


def _evaluate_partial(
    selection: Selection,
    cls: EquivalenceClass,
    db: Database,
    stats: EvaluationStats,
    budget: Budget,
    order: str,
    allow_disconnected: bool = False,
    tracer=None,
    memo=None,
) -> set[tuple]:
    """Operational Lemma 2.1 on the partially bound class ``cls``:
    ``t_part`` answers plus the ``t_full`` batch (:func:`_run_batch`).

    When either half raises :class:`BudgetExceeded`, the exception
    leaves here carrying the *merged* statistics of everything that ran
    and the answers assembled so far -- ``t_part``'s, and those of the
    seeds the memo answered before the batch tripped -- as
    :attr:`~repro.errors.BudgetExceeded.partial`: the query service
    degrades those into a ``PartialResult`` instead of a bare error.
    """
    analysis = selection.analysis
    answers: set[tuple] = set()

    try:
        # t_part: the recursion without cls; the same query is full
        # there because cls's columns are persistent in t_part.
        answers |= _evaluate_full(
            classify_selection(
                _part_analysis(analysis, cls, allow_disconnected),
                selection.query,
            ),
            db, stats, budget, order, tracer, memo,
        )

        # t_full: a sideways pass through each rule of cls produces
        # fully bound seeds of the original recursion, each with the
        # head values of cls's columns it answers for.
        head_vars = analysis.head_vars
        init = {
            head_vars[p]: selection.bound[p]
            for p in cls.positions
            if p in selection.bound
        }
        head_terms = tuple(head_vars[p] for p in cls.positions)
        width = len(head_terms)
        rows = RowList()  # in discovery order: it numbers the seeds
        for a in analysis.rules_of_class(cls):
            seed_terms = tuple(
                a.recursive_atom.args[p] for p in cls.positions)
            evaluate_body_into(
                db, a.nonrecursive_atoms, seed_terms + head_terms, rows,
                initial_bindings=init, stats=stats, order=order,
                tracer=tracer,
            )
        heads_of: dict[tuple, list[tuple]] = {}
        for row in rows:
            heads_of.setdefault(row[:width], []).append(row[width:])

        plan = compile_plan(analysis, selected_class=cls)
        assemble = plan.assembler()
        shares = _run_batch(analysis, cls, plan, list(heads_of), db, stats,
                            budget, order, tracer, memo)
        for heads, share in zip(heads_of.values(), shares):
            for head in heads:
                answers |= assemble(head, share)
    except BudgetExceeded as exc:
        # The failing run attached only its own stats; replace them with
        # the union accumulator and keep the answers assembled so far.
        exc.stats = stats
        if exc.partial is None:
            exc.partial = frozenset(
                f for f in answers if selection.query.matches(f)
            )
        raise
    return answers


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
        entry carries the work).  An entry is ``(answers, branch)``,
        ``answers`` the frozenset the full selection returns: a direct
        one with no residual match returns that very object.  The
        caller must scope the memo (or the keys) to this exact ``db``
        snapshot.

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
    selection = classify_selection(analysis, query)
    if not selection.has_constants:
        raise NotFullSelectionError(
            f"query {query} has no selection constants; the Separable "
            f"algorithm evaluates selections (use semi-naive "
            f"materialization for all-free queries)"
        )
    if selection.is_full:
        answers = _evaluate_full(selection, db, stats, budget, order,
                                 tracer, memo)
        placed = selection.selected_positions
    else:
        cls = choose_rewrite_class(analysis, set(selection.bound))
        answers = _evaluate_partial(
            selection, cls, db, stats, budget, order,
            allow_disconnected=allow_disconnected, tracer=tracer,
            memo=memo,
        )
        placed = cls.positions
    variables = [t for t in query.args if isinstance(t, Variable)]
    if (len(set(variables)) == len(variables)
            and all(p in placed for p in selection.bound)):
        # Every query constant sits where evaluation put it -- in the
        # selected component, or in the rewritten class, whose bound
        # columns seed the sideways pass and are persistent (so
        # selected) in t_part: the residual match is vacuous.
        result = frozenset(answers)
    else:
        result = frozenset(
            fact for fact in answers if query.matches(fact)
        )
    stats.record_relation("ans", len(result))
    return result
