"""The differential oracle: one case, every applicable strategy, diffed.

Theorem 2.1 / Theorem 3.1 promise that every strategy in
:data:`repro.engine.STRATEGIES` computes the same answer set on any
query it applies to.  :func:`run_case` makes that claim executable for
one :class:`~repro.differential.cases.Case`:

* the **reference** answer set is semi-naive materialization plus a
  selection filter (the same oracle the unit suite uses);
* every strategy :meth:`~repro.engine.Engine.advise` deems applicable
  (plus ``auto``) runs on a *fresh* engine and its answers are diffed
  against the reference -- through :func:`_checked_run`, the one block
  that turns a run into an outcome and findings, which the order and
  backend sweeps feed their configurations to as well;
* the separability **detection verdict** is checked against the
  generator's ground truth (separable by construction, or a near-miss
  mutant built to violate Definition 2.4);
* per-run :class:`~repro.stats.EvaluationStats` **sanity invariants**
  are checked -- counters never go negative, duplicate elimination
  never *increases* the produced-tuple count below a materialized
  relation's size, and the recorded ``ans`` relation bounds the answer
  count;
* every run records a :class:`~repro.observability.Tracer` and its
  span forest is checked with
  :func:`~repro.observability.trace_violations` -- fixpoint delta
  series must be monotone-terminating and sum-consistent with the
  final relation sizes, carry loops must satisfy Lemma 3.4's
  ``seed + sum(carries) == |seen|``, and no span may be left open even
  when the strategy exits via ``BudgetExceeded`` or
  ``CyclicDataError``.

* a separable case additionally runs the Separable strategy through the
  **reference carry loop** (``core/evaluator.py::_carry_loop``) and
  through both flavours of the generated one, and the three must agree
  on answers, statistics and -- span by span -- every traced counter
  and series except ``plan_cache_hits`` (:func:`_run_loop_sweep`).

* a partial selection additionally evaluates its Lemma 2.1 union
  *literally* -- ``t_part`` plus one reference-loop run of the plan per
  sideways seed -- and the one-fixpoint batch the Separable
  strategy ran must have found exactly those answers
  (:func:`_run_union_check`, outcome ``union[batched]``).

Exceptions the paper itself predicts (Counting and the no-dedup
ablation on cyclic data, budget blowups of the exponential baselines)
are tolerated as *skips*; anything else an applicable strategy raises
is a finding.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..budget import Budget
from ..core.compiler import compile_plan, compile_selection
from ..core.detection import analyze_recursion, require_separable
from ..core.evaluator import _reference_loops, execute_plan
from ..core.rewrite import choose_rewrite_class, program_without_class
from ..core.selections import classify_selection
from ..datalog.joins import evaluate_body_into
from ..datalog.errors import (
    BudgetExceeded,
    CyclicDataError,
    ReproError,
)
from ..datalog.seminaive import seminaive_evaluate
from ..engine import STRATEGIES, Engine
from ..observability import Tracer, trace_violations
from ..stats import EvaluationStats
from ..storage import ensure_backend
from .cases import Case

__all__ = [
    "DEFAULT_FUZZ_BUDGET",
    "Disagreement",
    "StrategyOutcome",
    "OracleVerdict",
    "applicable_strategies",
    "reference_answers",
    "run_case",
    "make_failure_predicate",
]

#: Bounds each strategy run so divergent methods (no-dedup on cyclic
#: data) terminate; generous enough that generated cases never trip it.
DEFAULT_FUZZ_BUDGET = Budget(
    max_relation_tuples=100_000,
    max_total_tuples=500_000,
    max_iterations=5_000,
)

#: Exceptions the paper predicts for specific (strategy, data) pairs;
#: runs ending in one of these are skipped, not failed (Lemma 3.4).
_TOLERATED = (CyclicDataError, BudgetExceeded)


@dataclass(frozen=True)
class Disagreement:
    """One oracle finding.

    ``kind`` is ``answers`` (answer-set mismatch), ``detection``
    (separability verdict contradicts ground truth), ``stats`` (a
    statistics invariant is violated), ``trace`` (the recorded span
    forest breaks a fixpoint invariant -- see
    :func:`repro.observability.trace_violations`), or ``error`` (an
    applicable strategy raised an unexpected exception).
    """

    kind: str
    strategy: str
    detail: str
    #: Compact profile of the offending run (iteration counts, relation
    #: sizes, span summaries) -- evidence travelling with the finding,
    #: so a report can be triaged without re-running the case.  Excluded
    #: from equality/hashing: two findings are the "same" when their
    #: diagnosis matches, however the run happened to be timed.
    profile: Optional[dict] = field(default=None, compare=False)

    @property
    def signature(self) -> tuple[str, str]:
        """What the shrinker holds fixed while minimizing."""
        return (self.kind, self.strategy)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.strategy}: {self.detail}"


@dataclass(frozen=True)
class StrategyOutcome:
    """The result of running one strategy on one case."""

    strategy: str
    answers: Optional[frozenset] = None
    stats: Optional[EvaluationStats] = None
    skipped: Optional[str] = None
    error: Optional[str] = None

    @property
    def ran(self) -> bool:
        return self.answers is not None


@dataclass
class OracleVerdict:
    """Everything :func:`run_case` learned about one case."""

    case: Case
    reference: Optional[frozenset]
    outcomes: dict[str, StrategyOutcome] = field(default_factory=dict)
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def strategies_run(self) -> list[str]:
        return [s for s, o in self.outcomes.items() if o.ran]

    def summary(self) -> str:
        ran = ", ".join(self.strategies_run) or "none"
        lines = [
            f"query {self.case.query}?  strategies run: {ran}",
        ]
        for d in self.disagreements:
            lines.append(f"  {d}")
        if self.ok:
            lines.append("  all strategies agree")
        return "\n".join(lines)


def reference_answers(case: Case, budget: Budget) -> frozenset:
    """Semi-naive materialization + selection filter (the ground truth)."""
    materialized = seminaive_evaluate(
        case.program, case.database, budget=budget
    )
    return frozenset(
        fact
        for fact in materialized.tuples(case.query.predicate)
        if case.query.matches(fact)
    )


def applicable_strategies(
    case: Case,
    subset: Optional[Iterable[str]] = None,
) -> list[str]:
    """Strategies the engine's own advisor considers applicable.

    ``auto`` is always included (its dispatch decision is itself under
    test); an explicit ``subset`` intersects the list, preserving the
    canonical :data:`~repro.engine.STRATEGIES` order.
    """
    engine = Engine(case.program, case.database)
    advice = engine.advise(case.query)
    names = {"auto", *advice.applicable}
    if subset is not None:
        wanted = set(subset)
        unknown = wanted - set(STRATEGIES)
        if unknown:
            raise ValueError(
                f"unknown strategies {sorted(unknown)}; "
                f"choose from {STRATEGIES}"
            )
        names &= wanted
    return [s for s in STRATEGIES if s in names]


def _stats_violations(
    outcome_answers: frozenset,
    stats: EvaluationStats,
    strategy: str,
    predicate: str,
) -> list[str]:
    """Sanity invariants every run must satisfy (Definition 4.2 side)."""
    problems: list[str] = []
    for name, size in stats.relation_sizes.items():
        if size < 0:
            problems.append(f"relation {name} recorded negative size {size}")
    for counter in ("iterations", "tuples_produced", "tuples_examined"):
        if getattr(stats, counter) < 0:
            problems.append(f"counter {counter} went negative")
    if stats.max_relation_size > stats.total_relation_size:
        problems.append(
            f"max relation size {stats.max_relation_size} exceeds total "
            f"{stats.total_relation_size}"
        )
    if strategy in ("seminaive", "naive"):
        # Every tuple stored in the materialized IDB passed through the
        # produced counter first: dedup never increases `produced`.
        materialized = stats.relation_sizes.get(predicate, 0)
        if stats.tuples_produced < materialized:
            problems.append(
                f"dedup inflated produced: {predicate} holds "
                f"{materialized} tuples but only "
                f"{stats.tuples_produced} were produced"
            )
    if "ans" in stats.relation_sizes:
        if len(outcome_answers) > stats.relation_sizes["ans"]:
            problems.append(
                f"answer count {len(outcome_answers)} exceeds recorded "
                f"ans relation size {stats.relation_sizes['ans']}"
            )
    return problems


def _diff_detail(reference: frozenset, answers: frozenset) -> str:
    missing = sorted(reference - answers, key=repr)[:5]
    extra = sorted(answers - reference, key=repr)[:5]
    parts = []
    if missing:
        parts.append(f"missing {missing}")
    if extra:
        parts.append(f"extra {extra}")
    return (
        f"{len(answers)} answers vs {len(reference)} reference; "
        + "; ".join(parts)
    )


def _profile_summary(
    strategy: str,
    stats: Optional[EvaluationStats],
    tracer: Tracer,
) -> dict:
    """Evidence attached to findings: what the offending run did.

    A trimmed-down cousin of the CLI profiler's report -- the
    Definition 4.2 totals plus one entry per recorded span -- small
    enough to embed in every :class:`Disagreement` so a fuzz report
    can be triaged without replaying the case.
    """
    spans: list[dict] = []

    def walk(span, depth: int) -> None:
        entry: dict = {
            "name": span.name, "depth": depth, "status": span.status,
        }
        if span.attrs:
            entry["attrs"] = dict(span.attrs)
        if span.counters:
            entry["counters"] = dict(sorted(span.counters.items()))
        spans.append(entry)
        for child in span.children:
            walk(child, depth + 1)

    for root in tracer.roots:
        walk(root, 0)
    summary: dict = {"strategy": strategy, "spans": spans}
    if stats is not None:
        summary.update(
            iterations=stats.iterations,
            tuples_produced=stats.tuples_produced,
            tuples_examined=stats.tuples_examined,
            max_relation_size=stats.max_relation_size,
            relation_sizes=dict(stats.relation_sizes),
        )
    return summary


def _append_trace_findings(
    verdict: "OracleVerdict",
    strategy: str,
    tracer: Tracer,
    profile: Optional[dict] = None,
) -> None:
    for problem in trace_violations(tracer):
        verdict.disagreements.append(
            Disagreement(kind="trace", strategy=strategy, detail=problem,
                         profile=profile)
        )


def _separable_run(case: Case, budget: Budget, traced: bool,
                   reference: bool, order: str) -> tuple:
    """One Separable evaluation on a fresh engine: ``(answers or None,
    stats, limit tripped or None, tracer or None)``.

    ``reference`` runs the carry loops through ``_carry_loop`` instead
    of the generated function.
    """
    engine = Engine(case.program, case.database, budget=budget, order=order)
    stats = EvaluationStats()
    tracer = Tracer() if traced else None
    try:
        with _reference_loops() if reference else nullcontext():
            result = engine.query(
                case.query, strategy="separable", stats=stats, tracer=tracer,
            )
    except BudgetExceeded as exc:
        return None, exc.stats or stats, exc.limit, tracer
    return result.answers, result.stats, None, tracer


def _span_rows(tracer: Tracer) -> list[tuple]:
    """Every span as ``(name, attrs, counters, series)``, in order and
    without the counters of a plan lookup (``plan_cache_hits``, and
    under ``order="cost"`` the ``plan_est_rows`` it adds up): the
    generated loop looks its plans up once per loop entry where the
    reference loop does once per round, which is the one traced
    difference between them."""
    return [
        (s.name, s.attrs,
         {k: v for k, v in s.counters.items()
          if k not in ("plan_cache_hits", "plan_est_rows")},
         s.series)
        for s in tracer.spans()
    ]


def _run_loop_sweep(verdict: OracleVerdict, case: Case, budget: Budget,
                    order: str = "greedy") -> None:
    """Diff the generated carry loops against the reference loop.

    Outcomes are recorded as ``loop[reference]``, ``loop[traced]`` and
    ``loop[untraced]`` (``loop[cost:reference]`` etc. under another
    ``order`` than the default; the first run there warms the plan
    cache and is not diffed).  Required: equal answers (or the same
    budget limit tripped), equal :class:`EvaluationStats`, and, between
    the two traced runs, equal span forests up to the plan-lookup
    counters (:func:`_span_rows`); the reference run's forest is held to
    :func:`trace_violations` like any other, and the traced flavour's
    has to equal it.
    """
    prefix = "" if order == "greedy" else f"{order}:"
    if order != "greedy":  # the strategy run warmed the cache for greedy
        _separable_run(case, budget, False, False, order)
    reference, ref_stats, ref_limit, ref_tracer = _separable_run(
        case, budget, True, True, order)
    verdict.outcomes[f"loop[{prefix}reference]"] = StrategyOutcome(
        strategy=f"loop[{prefix}reference]", answers=reference,
        stats=ref_stats, skipped=ref_limit,
    )
    _append_trace_findings(verdict, f"loop[{prefix}reference]", ref_tracer)
    for traced in (True, False):
        name = f"loop[{prefix}{'traced' if traced else 'untraced'}]"
        answers, stats, limit, tracer = _separable_run(
            case, budget, traced, False, order)
        verdict.outcomes[name] = StrategyOutcome(
            strategy=name, answers=answers, stats=stats, skipped=limit,
        )
        got = {"answers": limit or answers, "stats": stats}
        want = {"answers": ref_limit or reference, "stats": ref_stats}
        if traced:
            got["trace"] = _span_rows(tracer)
            want["trace"] = _span_rows(ref_tracer)
        verdict.disagreements += [
            Disagreement(kind=kind, strategy=name, detail=(
                f"{got[kind]} vs the reference loop's {want[kind]}"))
            for kind in got if got[kind] != want[kind]
        ]


def _run_union_check(verdict: OracleVerdict, case: Case,
                     budget: Budget) -> None:
    """Lemma 2.1 taken literally, against the batch that replaced it.

    The Separable strategy evaluates the ``t_full`` half of a partial
    selection as one fixpoint with a carry and a seen per seed.  This
    evaluates it the way the lemma states it: the sideways pass through
    each rule of the rewritten class, then one run of the plan per seed
    through the reference loop, unioned with ``t_part``.  Recorded
    as outcome ``union[batched]``; the strategy's answers differing from
    the union's is an ``answers`` finding under that name.
    """
    batched = verdict.outcomes["separable"].answers
    engine = Engine(case.program, case.database, budget=budget)
    predicate = case.query.predicate
    analysis = engine.report(predicate).analysis
    selection = classify_selection(analysis, case.query)
    if batched is None or selection.is_full or not selection.has_constants:
        return
    cls = choose_rewrite_class(analysis, set(selection.bound))
    db = engine._database_for(predicate)

    part = classify_selection(
        require_separable(program_without_class(analysis, cls), predicate),
        case.query)
    part_plan = compile_selection(part)
    plan = compile_plan(analysis, selected_class=cls)
    assemble = plan.assembler()
    init = {analysis.head_vars[p]: selection.bound[p]
            for p in cls.positions if p in selection.bound}
    head_terms = tuple(analysis.head_vars[p] for p in cls.positions)
    runs: dict[tuple, frozenset] = {}
    try:
        with _reference_loops():
            union = part_plan.assembler()(part.seed, execute_plan(
                part_plan, db, [part.seed], budget=budget))
            for a in analysis.rules_of_class(cls):
                seed_terms = tuple(
                    a.recursive_atom.args[p] for p in cls.positions)
                rows: set[tuple] = set()
                evaluate_body_into(db, a.nonrecursive_atoms,
                                   seed_terms + head_terms, rows,
                                   initial_bindings=init)
                for row in rows:
                    seed = row[:len(seed_terms)]
                    if seed not in runs:
                        runs[seed] = execute_plan(plan, db, [seed],
                                                  budget=budget)
                    union |= assemble(row[len(seed_terms):], runs[seed])
    except _TOLERATED as exc:
        verdict.outcomes["union[batched]"] = StrategyOutcome(
            strategy="union[batched]", skipped=str(exc))
        return
    answers = frozenset(f for f in union if case.query.matches(f))
    verdict.outcomes["union[batched]"] = StrategyOutcome(
        strategy="union[batched]", answers=answers)
    if batched != answers:
        verdict.disagreements.append(Disagreement(
            kind="answers", strategy="union[batched]",
            detail="the batch against the per-seed union of "
                   f"{len(runs)} runs: " + _diff_detail(answers, batched)))


def _checked_run(verdict: OracleVerdict, name: str, engine: Engine,
                 strategy: str, extra: dict) -> None:
    """One strategy run, held to the reference: the one place a run
    becomes an outcome and findings.

    ``strategy`` answers the case's query on ``engine`` under a
    recording tracer; the outcome is stored as ``name``.  A tolerated
    exception is a skip -- whose span forest must still have unwound
    (exception safety of ``Tracer.span``; invariant checks on the
    aborted loops themselves are status-gated and skipped) -- any other
    :class:`ReproError` an ``error`` finding, and a completed run owes
    ``trace``, ``answers`` and ``stats`` findings, in that order.  Every
    finding carries the run's profile with ``extra`` (the swept
    configuration: ``{"order": ...}``, ``{"backend": ...}``) merged in.
    """
    case = verdict.case
    stats = EvaluationStats()
    tracer = Tracer()

    def profile(run_stats: EvaluationStats) -> dict:
        return {**_profile_summary(name, run_stats, tracer), **extra}

    try:
        result = engine.query(
            case.query, strategy=strategy, stats=stats, tracer=tracer
        )
    except _TOLERATED as exc:
        verdict.outcomes[name] = StrategyOutcome(
            strategy=name, skipped=str(exc)
        )
        _append_trace_findings(
            verdict, name, tracer,
            profile(getattr(exc, "stats", None) or stats))
        return
    except ReproError as exc:
        verdict.outcomes[name] = StrategyOutcome(
            strategy=name, error=str(exc)
        )
        verdict.disagreements.append(
            Disagreement(
                kind="error",
                strategy=name,
                detail=f"{type(exc).__name__}: {exc}",
                profile=profile(stats),
            )
        )
        return
    verdict.outcomes[name] = StrategyOutcome(
        strategy=name, answers=result.answers, stats=result.stats
    )
    evidence = profile(result.stats)
    _append_trace_findings(verdict, name, tracer, evidence)
    if result.answers != verdict.reference:
        verdict.disagreements.append(
            Disagreement(
                kind="answers",
                strategy=name,
                detail=_diff_detail(verdict.reference, result.answers),
                profile=evidence,
            )
        )
    for problem in _stats_violations(
        result.answers, result.stats, result.strategy,
        case.query.predicate,
    ):
        verdict.disagreements.append(
            Disagreement(kind="stats", strategy=name, detail=problem,
                         profile=evidence)
        )


def run_case(
    case: Case,
    strategies: Optional[Sequence[str]] = None,
    budget: Budget = DEFAULT_FUZZ_BUDGET,
    orders: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
) -> OracleVerdict:
    """Evaluate a case under every applicable strategy and diff results.

    Three lists of ``(name, engine, strategy, extra)`` configurations
    go through :func:`_checked_run`, each on a fresh engine:

    * every applicable strategy under its own name;
    * per listed join order (``orders``, typically ``cost``), semi-naive
      on an engine built with that ``order=`` as ``order[cost]`` --
      a planner that changes *answers*, not just join order, surfaces
      as a differential finding -- after which the generated-vs-
      reference loop diff of a separable case repeats under that order;
    * per listed storage backend (``backends``), the case's database
      migrated once (:func:`repro.storage.ensure_backend`) and every
      applicable strategy as ``backend[sqlite:auto]`` etc., plus
      semi-naive per listed order as ``backend[sqlite:order-cost]`` --
      answer-set equality against the same reference is what makes the
      sorted answer digests byte-identical across backends.
    """
    verdict = OracleVerdict(case=case, reference=None)

    # Ground-truth detection check (database-independent, so it runs
    # even when evaluation itself would blow the budget).
    report = analyze_recursion(case.program, case.query.predicate)
    if (
        case.expect_separable is not None
        and report.separable != case.expect_separable
    ):
        verdict.disagreements.append(
            Disagreement(
                kind="detection",
                strategy="detector",
                detail=(
                    f"generator says separable={case.expect_separable} "
                    f"but analyze_recursion says {report.separable}:\n"
                    + report.explain()
                ),
            )
        )

    try:
        verdict.reference = reference_answers(case, budget)
    except _TOLERATED as exc:
        # The case itself is too heavy for the budget: inconclusive.
        verdict.outcomes["seminaive"] = StrategyOutcome(
            strategy="seminaive", skipped=f"reference: {exc}"
        )
        return verdict

    def engine(db=case.database, order: str = "greedy") -> Engine:
        return Engine(case.program, db, budget=budget, order=order)

    applicable = applicable_strategies(case, strategies)
    orders = orders or ()
    strategy_runs = [(s, engine(), s, {}) for s in applicable]
    order_runs = [
        (f"order[{o}]", engine(order=o), "seminaive", {"order": o})
        for o in orders
    ]
    backend_runs = []
    for backend in backends or ():
        db = ensure_backend(case.database, backend)
        extra = {"backend": backend}
        backend_runs += [
            (f"backend[{backend}:{s}]", engine(db), s, extra)
            for s in applicable
        ] + [
            (f"backend[{backend}:order-{o}]", engine(db, o), "seminaive",
             extra)
            for o in orders
        ]

    for run in strategy_runs:
        _checked_run(verdict, *run)
    separable = verdict.outcomes.get("separable")
    loops = separable is not None and separable.error is None
    if loops:
        _run_loop_sweep(verdict, case, budget)
        _run_union_check(verdict, case, budget)
    for run in order_runs:
        _checked_run(verdict, *run)
    if loops:
        for order in orders:
            if order != "greedy":
                _run_loop_sweep(verdict, case, budget, order)
    for run in backend_runs:
        _checked_run(verdict, *run)
    return verdict


def make_failure_predicate(
    signature: tuple[str, str],
    strategies: Optional[Sequence[str]] = None,
    budget: Budget = DEFAULT_FUZZ_BUDGET,
    orders: Optional[Sequence[str]] = None,
    backends: Optional[Sequence[str]] = None,
) -> Callable[[Case], bool]:
    """A shrinker predicate: does the case still show *this* failure?

    Holding the ``(kind, strategy)`` signature fixed keeps delta
    debugging from wandering onto an unrelated failure while it deletes
    rules and facts; any exception a mangled candidate raises counts as
    "does not reproduce".
    """

    def still_fails(candidate: Case) -> bool:
        try:
            verdict = run_case(candidate, strategies=strategies,
                               budget=budget,
                               orders=orders,
                               backends=backends)
        except Exception:
            return False
        return any(
            d.signature == signature for d in verdict.disagreements
        )

    return still_fails
