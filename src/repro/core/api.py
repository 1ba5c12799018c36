"""The Separable evaluation facade: detect, classify, compile, execute.

:func:`evaluate_separable` answers an arbitrary selection query on a
separable recursion:

* full selections (Definition 2.7) compile straight to a
  :class:`~repro.core.plan.SeparablePlan` and run;
* partial selections follow Lemma 2.1 operationally -- evaluate the
  ``t_part`` recursion (the class dropped, constants persistent) plus,
  for each rule of the rewritten class, a sideways pass through its
  nonrecursive atoms producing fully bound seeds for the original
  recursion, evaluated per distinct seed with a cache;
* queries with *no* constants are outside the paper's scope ("queries in
  which at least one argument of the query predicate is a constant") and
  raise :class:`~repro.datalog.errors.NotFullSelectionError`; the engine
  falls back to semi-naive materialization for them.

Answers are returned as full-arity tuples matching the query atom, with
residual constants (outside the selected component) and repeated query
variables applied as final filters.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from ..budget import Budget, UNLIMITED
from ..datalog.atoms import Atom
from ..datalog.database import Database, Relation
from ..datalog.errors import BudgetExceeded, NotFullSelectionError
from ..datalog.joins import evaluate_body, instantiate_args
from ..datalog.programs import Program
from ..datalog.terms import ConstValue, Variable
from ..observability.tracer import live
from ..stats import EvaluationStats
from .analysis import EquivalenceClass, RecursionAnalysis
from .compiler import compile_plan, compile_selection
from .detection import require_separable
from .evaluator import execute_plan
from .plan import SeparablePlan
from .rewrite import choose_rewrite_class, program_without_class
from .selections import Selection, classify_selection

__all__ = [
    "evaluate_separable",
    "full_selection_from_extent",
    "full_selection_key",
]


def _assemble(
    arity: int,
    plan: SeparablePlan,
    fixed: dict[int, ConstValue],
    up_tuples: frozenset[tuple],
) -> set[tuple]:
    """Interleave fixed column values with ``seen_2`` tuples.

    Where each answer column comes from -- a ``seen_2`` column or a
    fixed value -- is worked out once; every answer is then one tuple
    concatenation and one C-level pick.
    """
    up = plan.up_positions
    rest = [p for p in range(arity) if p not in up]
    consts = tuple(fixed.get(p) for p in rest)
    if arity == 1:
        return {ut + consts for ut in up_tuples}
    pick = itemgetter(*(
        up.index(p) if p in up else len(up) + rest.index(p)
        for p in range(arity)
    ))
    return {pick(ut + consts) for ut in up_tuples}


def _matches_query(fact: tuple, query: Atom) -> bool:
    """Residual check: constants equal, repeated variables consistent."""
    seen_vars: dict[Variable, ConstValue] = {}
    for value, term in zip(fact, query.args):
        if isinstance(term, Variable):
            prior = seen_vars.setdefault(term, value)
            if prior != value:
                return False
        elif term.value != value:
            return False
    return True


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
    unit of work a cross-request memo may share.  The analysis object
    itself participates (it is a frozen dataclass), which keeps ``t``
    and its ``t_part`` rewrite -- same predicate name, different
    programs -- from colliding.  Callers scope the key to one database
    snapshot (the service adds the EDB fingerprint).
    """
    component = (
        ("class", selected_class.index)
        if selected_class is not None
        else ("pers", selected_positions)
    )
    return (analysis, component, tuple(seed), order)


def full_selection_from_extent(
    analysis: RecursionAnalysis,
    component: tuple,
    seed: tuple,
    extent: Relation,
    tracer=None,
) -> frozenset[tuple]:
    """Recompute one memoized full-selection value from a ``t`` extent.

    A cached carry/seen run for ``(component, seed)`` holds exactly
    ``σ_{component=seed}(t)`` projected onto the non-selected columns
    in ascending position order (the compiler's ``up_positions``).
    Given a maintained materialization of ``t``, the same value falls
    out of a projection -- this is how the service repairs a dirty memo
    entry after a mutation without re-running the carry loops.  The
    selection is one ``extent.lookup(positions, seed)``: the relation's
    lazy index on the component's columns is built by the first repair
    and maintained by ``add``/``discard`` from then on, so a repair
    costs its answer, not a scan of ``t`` (a live ``tracer`` sees the
    one ``index_builds``).
    """
    from .selections import component_positions

    positions = component_positions(analysis, component)
    up_positions = tuple(
        p for p in range(analysis.arity) if p not in positions
    )
    return frozenset(
        tuple(fact[p] for p in up_positions)
        for fact in extent.lookup(positions, tuple(seed), tracer)
    )


def _run_plan(
    plan: SeparablePlan,
    key: Optional[tuple],
    db: Database,
    seed: tuple,
    stats: Optional[EvaluationStats],
    budget: Budget,
    order: str,
    tracer=None,
    memo=None,
    parallel=None,
) -> frozenset[tuple]:
    """Execute one full-selection plan, through the memo when given.

    The memo (see :class:`repro.service.FullSelectionMemo`) caches and
    coalesces on ``key``; each miss runs under a *fresh* branch
    :class:`EvaluationStats` so the cached entry carries exactly the
    work that one full selection cost, and every consumer -- first
    evaluator or cache hit -- merges that branch into its own
    accumulator.  A budget trip during the miss merges the partial
    branch into the caller's stats before propagating, so union-level
    handlers always see the complete picture.  ``parallel`` reaches
    :func:`~repro.core.evaluator.execute_plan` for intra-loop carry
    partitioning.
    """
    if memo is None or key is None:
        return execute_plan(
            plan, db, [seed], stats=stats, budget=budget,
            order=order, tracer=tracer, parallel=parallel,
        )

    def compute() -> tuple[frozenset[tuple], EvaluationStats]:
        branch = EvaluationStats()
        try:
            tuples = execute_plan(
                plan, db, [seed], stats=branch, budget=budget,
                order=order, tracer=tracer, parallel=parallel,
            )
        except BudgetExceeded as exc:
            if stats is not None:
                stats.merge(branch)
                exc.stats = stats
            raise
        return tuples, branch

    tuples, branch = memo.get_or_run(key, compute)
    if stats is not None:
        stats.merge(branch)
        # Branch misses are metered against a fresh accumulator, so the
        # union-level limits must be re-applied to the merged totals --
        # a cache hit still spends the caller's budget.
        budget.check_stats(stats)
    return tuples


def _evaluate_full(
    selection: Selection,
    db: Database,
    stats: Optional[EvaluationStats],
    budget: Budget,
    order: str,
    tracer=None,
    memo=None,
    parallel=None,
) -> set[tuple]:
    plan = compile_selection(selection)
    key = full_selection_key(
        selection.analysis, selection.selected_class,
        selection.selected_positions, selection.seed, order,
    )
    up_tuples = _run_plan(plan, key, db, selection.seed, stats, budget,
                          order, tracer, memo, parallel)
    fixed = {p: selection.bound[p] for p in plan.selected_positions}
    return _assemble(selection.analysis.arity, plan, fixed, up_tuples)


def _fanout_branches(
    plan: SeparablePlan,
    analysis: RecursionAnalysis,
    cls: EquivalenceClass,
    seeds: list[tuple],
    db: Database,
    stats: Optional[EvaluationStats],
    budget: Budget,
    order: str,
    memo,
    parallel,
    tracer=None,
) -> tuple[dict[tuple, frozenset[tuple]], Optional[BaseException]]:
    """Evaluate the Lemma 2.1 branches for ``seeds`` on the worker pool.

    Each branch runs on a parent thread that blocks on a worker-pool
    result; with a memo, the thread sits inside ``memo.get_or_run`` so
    in-flight coalescing across concurrent requests keeps its contract
    (followers wait on the leader's event, a leader failure caches
    nothing).  Branch stats merge into ``stats`` in *seed order* --
    merged counter totals are therefore deterministic across runs --
    with the union-level budget re-applied after every merge, exactly
    like the serial path.

    When tracing, each worker ships its branch span tree home as a
    :class:`~repro.observability.fragments.TraceFragment`.  The
    fragments are stripped off *before* the memo caches a value (memo
    entries stay ``(tuples, branch_stats)`` pairs, and a cached hit
    costs no trace) and stitched into ``tracer`` on this thread, in
    seed order, after every branch thread has joined -- ``Tracer`` is
    not thread-safe, so installation never happens on branch threads.

    Returns ``(seed_cache, failure)``: the completed branches' results
    plus the first failure in seed order (``None`` on success).  The
    caller assembles the completed answers before re-raising, so a
    budget trip still degrades into a well-formed partial answer set.
    """
    fragments: dict[tuple, object] = {}

    def branch(seed: tuple):
        def compute() -> tuple[frozenset[tuple], EvaluationStats]:
            if tracer is None:
                return parallel.run_plan_remote(
                    db, plan, [seed], order, budget
                )
            tuples, branch_stats, fragment = parallel.run_plan_remote(
                db, plan, [seed], order, budget, collect_fragment=True
            )
            if fragment is not None:
                fragments[seed] = fragment
            return tuples, branch_stats

        if memo is None:
            return compute()
        key = full_selection_key(analysis, cls, cls.positions, seed, order)
        return memo.get_or_run(key, compute)

    outcomes = parallel.map_threads(branch, seeds)
    if tracer is not None:
        for seed in seeds:
            fragment = fragments.get(seed)
            if fragment is not None:
                parallel.install_fragment(
                    tracer, fragment, task="branch", seed=list(seed)
                )
    seed_cache: dict[tuple, frozenset[tuple]] = {}
    failure: Optional[BaseException] = None
    for seed, (status, value) in zip(seeds, outcomes):
        if status == "error":
            if failure is None:
                failure = value
            continue
        tuples, branch_stats = value
        seed_cache[seed] = tuples
        if stats is not None:
            stats.merge(branch_stats)
            if failure is None:
                try:
                    budget.check_stats(stats)
                except BudgetExceeded as exc:
                    failure = exc
    if isinstance(failure, BudgetExceeded) and stats is not None:
        # Mirror the serial contract: the escaping trip carries the
        # union accumulator, with the failing branch's own partial
        # stats folded in first.
        branch_stats = failure.stats
        if (
            isinstance(branch_stats, EvaluationStats)
            and branch_stats is not stats
        ):
            stats.merge(branch_stats)
        failure.stats = stats
    return seed_cache, failure


def _evaluate_partial(
    selection: Selection,
    db: Database,
    stats: Optional[EvaluationStats],
    budget: Budget,
    order: str,
    allow_disconnected: bool = False,
    tracer=None,
    memo=None,
    parallel=None,
) -> set[tuple]:
    """Operational Lemma 2.1: ``t_part`` answers plus per-seed ``t_full``.

    The evaluation is a union of full selections.  When any branch
    raises :class:`BudgetExceeded`, the exception leaves here carrying
    the *merged* statistics of every completed branch (not just the
    failing one) and the answers assembled so far as
    :attr:`~repro.errors.BudgetExceeded.partial` -- the query service
    degrades those into a ``PartialResult`` instead of a bare error.

    The union branches are independent (Theorem 2.1), so with a
    :class:`~repro.parallel.ParallelExecutor` and enough distinct
    seeds they fan out across the worker pool
    (:func:`_fanout_branches`); answers and merged statistics stay
    deterministic because the merge happens in seed-discovery order.
    """
    analysis = selection.analysis
    cls = choose_rewrite_class(analysis, set(selection.bound))
    answers: set[tuple] = set()

    try:
        # t_part: the recursion without cls; the same query is full
        # there because cls's columns are persistent in t_part.
        part_program = program_without_class(analysis, cls)
        part_analysis = require_separable(
            part_program, analysis.predicate,
            allow_disconnected=allow_disconnected,
        )
        part_selection = classify_selection(part_analysis, selection.query)
        if part_selection.is_full:
            answers |= _evaluate_full(part_selection, db, stats, budget,
                                      order, tracer, memo, parallel)
        else:  # pragma: no cover - cannot happen: bound cls cols are pers
            answers |= _evaluate_partial(
                part_selection, db, stats, budget, order,
                allow_disconnected=allow_disconnected, tracer=tracer,
                memo=memo, parallel=parallel,
            )

        # t_full: sideways pass through each rule of cls produces fully
        # bound seeds; evaluate the original recursion once per seed.
        plan = compile_plan(analysis, selected_class=cls)
        head_vars = analysis.head_vars
        init = {
            head_vars[p]: selection.bound[p]
            for p in cls.positions
            if p in selection.bound
        }
        seed_terms = {
            a.index: tuple(a.recursive_atom.args[p] for p in cls.positions)
            for a in analysis.rules_of_class(cls)
        }
        head_terms = tuple(head_vars[p] for p in cls.positions)
        rows: list[tuple[tuple, tuple]] = []
        for a in analysis.rules_of_class(cls):
            for bindings in evaluate_body(
                db, a.nonrecursive_atoms, initial_bindings=init,
                stats=stats, order=order, tracer=tracer,
            ):
                rows.append((
                    instantiate_args(seed_terms[a.index], bindings),
                    instantiate_args(head_terms, bindings),
                ))
        seeds: list[tuple] = []
        seen_seeds: set[tuple] = set()
        for seed, _ in rows:
            if seed not in seen_seeds:
                seen_seeds.add(seed)
                seeds.append(seed)

        seed_cache: dict[tuple, frozenset[tuple]] = {}
        failure: Optional[BaseException] = None
        if (
            parallel is not None
            and parallel.active
            and len(seeds) >= parallel.config.min_branch_tasks
        ):
            seed_cache, failure = _fanout_branches(
                plan, analysis, cls, seeds, db, stats, budget, order,
                memo, parallel, tracer=tracer,
            )
        for seed, fixed_values in rows:
            cached = seed_cache.get(seed)
            if cached is None:
                if failure is not None:
                    continue  # branch never completed before the trip
                key = full_selection_key(
                    analysis, cls, cls.positions, seed, order,
                )
                cached = _run_plan(plan, key, db, seed, stats,
                                   budget, order, tracer, memo, parallel)
                seed_cache[seed] = cached
            fixed = dict(zip(cls.positions, fixed_values))
            answers |= _assemble(analysis.arity, plan, fixed, cached)
        if failure is not None:
            raise failure
    except BudgetExceeded as exc:
        # The failing branch attached only its own stats; replace them
        # with the union accumulator (which the completed branches
        # already merged into) and keep the answers assembled so far.
        if stats is not None:
            exc.stats = stats
        if exc.partial is None:
            exc.partial = frozenset(
                f for f in answers if _matches_query(f, selection.query)
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
    parallel=None,
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
        every carry/seen run -- the direct one for a full selection, and
        each branch of the Lemma 2.1 union for a partial one -- is
        served from it when already answered, and computed once under a
        fresh branch ``EvaluationStats`` otherwise.  The caller must
        scope the memo (or the keys) to this exact ``db`` snapshot.
    parallel:
        An optional :class:`~repro.parallel.ParallelExecutor`.  Partial
        selections fan their Lemma 2.1 union branches across the worker
        pool, and large carry iterations hash-partition within a loop;
        answers are byte-identical to the serial run (see
        ``docs/parallelism.md``).  ``None`` (or an inactive executor)
        keeps everything in-process.

    Returns the full-arity answer tuples matching the query atom.
    """
    tracer = live(tracer)
    if analysis is None:
        analysis = require_separable(
            program, query.predicate,
            allow_disconnected=allow_disconnected,
        )
    if stats is not None and not stats.strategy:
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
                                 tracer, memo, parallel)
    else:
        answers = _evaluate_partial(
            selection, db, stats, budget, order,
            allow_disconnected=allow_disconnected, tracer=tracer,
            memo=memo, parallel=parallel,
        )
    variables = [t for t in query.args if isinstance(t, Variable)]
    if (selection.is_full and not selection.residual_bound()
            and len(set(variables)) == len(variables)):
        # Every query constant sits in the selected component, where
        # assembly put it: the residual match is vacuous.
        result = frozenset(answers)
    else:
        result = frozenset(
            fact for fact in answers if _matches_query(fact, query)
        )
    if stats is not None:
        stats.record_relation("ans", len(result))
    return result
