"""The top-level query engine: strategy selection and base materialization.

:class:`Engine` wraps a program and an EDB, answers queries under any of
the implemented strategies, and implements the paper's deployment story
(Section 1/5): *"because of its superior performance ... and because it
is computationally simple to detect separable recursions, we expect that
this evaluation algorithm will be a useful component of a recursive
query processor"* -- i.e. the ``auto`` strategy detects separability and
compiles the specialized plan for a query with a constant, falling back
to Generalized Magic Sets for every other query, all-free ones included.

Base IDB predicates (predicates the queried recursion depends on but
that are not mutually recursive with it -- the paper's Section 2
assumption) are materialized stratum by stratum before the specialized
strategies run, and the materialization is cached across queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .budget import Budget, UNLIMITED
from .core.api import evaluate_form
from .core.compiler import QueryForm, query_form
from .core.detection import SeparabilityReport, analyze_recursion
from .core.plan import SeparablePlan
from .datalog.atoms import Atom
from .datalog.database import Database
from .datalog.errors import NotSeparableError, UnknownPredicateError
from .datalog.naive import naive_evaluate
from .datalog.parser import parse_query_memo
from .datalog.programs import Program
from .datalog.terms import Constant
from .datalog.seminaive import seminaive_evaluate, seminaive_stratum
from .rewriting.counting import evaluate_counting
from .rewriting.magic import evaluate_magic
from .rewriting.selection_push import evaluate_pushed
from .rewriting.nodedup import execute_plan_nodedup
from .observability.profiler import QueryProfile
from .observability.tracer import Tracer
from .stats import EvaluationStats

__all__ = ["Engine", "QueryResult", "StrategyAdvice", "STRATEGIES"]

#: Every strategy name accepted by :meth:`Engine.query`.
STRATEGIES = (
    "auto",
    "separable",
    "relaxed",
    "magic",
    "counting",
    "pushdown",
    "seminaive",
    "naive",
    "nodedup",
)


@dataclass(slots=True)
class QueryResult:
    """Answers plus provenance for one query evaluation.

    ``strategy`` is the strategy that actually ran (relevant for
    ``auto``); ``report`` carries the separability verdict when
    detection was performed.
    """

    query: Atom
    answers: frozenset[tuple]
    strategy: str
    stats: EvaluationStats
    report: Optional[SeparabilityReport] = None
    plan: Optional[SeparablePlan] = None

    def __len__(self) -> int:
        return len(self.answers)

    def sorted(self) -> list[tuple]:
        """Answers in a stable order (for display and tests)."""
        return sorted(self.answers, key=repr)

    def describe_plan(self) -> str:
        """The compiled Figure 3/4-style plan, when one was used."""
        if self.plan is None:
            return f"(no compiled Separable plan; strategy={self.strategy})"
        return self.plan.describe()


@dataclass(frozen=True)
class StrategyAdvice:
    """Which strategies apply to a query, and why.

    ``notes`` maps every strategy name to a one-line reason it does or
    does not apply; ``recommended`` matches what ``auto`` would pick.
    """

    query: Atom
    applicable: tuple[str, ...]
    recommended: str
    notes: dict[str, str]

    def explain(self) -> str:
        lines = [f"advice for {self.query}?  (recommended: "
                 f"{self.recommended})"]
        for name in STRATEGIES:
            if name == "auto":
                continue
            marker = "+" if name in self.applicable else "-"
            lines.append(f"  {marker} {name}: {self.notes.get(name, '')}")
        return "\n".join(lines)


class Engine:
    """A query engine over one program and one extensional database."""

    def __init__(
        self,
        program: Program,
        edb: Database,
        budget: Budget = UNLIMITED,
        order: str = "greedy",
        tracer=None,
        backend=None,
    ) -> None:
        from .datalog.plan_cache import ORDERS

        if order not in ORDERS:
            raise ValueError(
                f"unknown join order {order!r}; choose from {ORDERS}"
            )
        if backend is not None:
            # Migrate the EDB onto the requested storage backend (a
            # no-op when it is already there -- `backend="memory"` on
            # an ordinary database costs one name comparison).
            from .storage import ensure_backend
            edb = ensure_backend(edb, backend)
        self.program = program
        self.edb = edb
        self.budget = budget
        self.order = order
        #: Default tracer for every query (overridable per call).
        self.tracer = tracer
        self._reports: dict[str, SeparabilityReport] = {}
        self._base_db: dict[str, Database] = {}
        self._base_db_fingerprint = edb.fingerprint()

    def with_edb(self, edb: Database) -> "Engine":
        """An engine for the same program, budget, order and tracer
        over another database.

        Separability reports are functions of the program alone (and
        carry their compiled Separable plans), so the sibling shares
        this engine's cache of them and analyses nothing twice; what is
        cached per database starts empty.  The query service makes its
        engine per EDB snapshot -- one per write -- this way.
        """
        other = Engine(self.program, edb, self.budget, self.order,
                       self.tracer)
        other._reports = self._reports
        return other

    # -- analysis ----------------------------------------------------------

    def join_plan_stats(self) -> dict:
        """Counters of the process-wide compiled-join-plan cache.

        ``{"size", "hits", "misses", "compiles", "evictions",
        "orders"}`` from :data:`repro.datalog.plan_cache.PLAN_CACHE` --
        the cache every evaluator hot path shares.  ``compiles``
        staying flat while queries repeat is the "compiled once,
        executed many times" property benchmark gating asserts;
        ``orders`` is the running ``plan_for`` call mix per requested
        join order.
        """
        from .datalog.plan_cache import PLAN_CACHE

        return PLAN_CACHE.stats()

    def report(self, predicate: str) -> SeparabilityReport:
        """The (cached) separability report for one IDB predicate."""
        cached = self._reports.get(predicate)
        if cached is None:
            cached = analyze_recursion(self.program, predicate)
            self._reports[predicate] = cached
        return cached

    def is_separable(self, predicate: str) -> bool:
        return self.report(predicate).separable

    def plan_for(self, query: Union[Atom, str]) -> Optional[SeparablePlan]:
        """The compiled Separable plan for a query, or ``None``.

        Plans exist for *full* selections on predicates whose analysis
        is available (separable, or conditions 1-3 under the relaxed
        mode): the plan of the query's form
        (:func:`~repro.core.compiler.query_form`), prepared once per
        shape with the analysis, so repeated queries with different
        constants reuse one compilation -- the "compiling" in the
        paper's title.
        """
        if isinstance(query, str):
            query = parse_query_memo(query)
        analysis = self.report(query.predicate).analysis
        return None if analysis is None else query_form(analysis,
                                                        query).plan

    def advise(self, query: Union[Atom, str]) -> StrategyAdvice:
        """Classify a query against every strategy, with reasons.

        A purely static analysis (no data is touched beyond what the
        strategies' own applicability checks need), useful for query
        processors deciding how to route -- the paper's Section 5
        deployment picture made inspectable.
        """
        from .rewriting.counting import (
            CountingNotApplicable,
            compile_counting,
        )
        from .rewriting.selection_push import stable_positions

        if isinstance(query, str):
            query = parse_query_memo(query)
        self._check_query(query)
        report = self.report(query.predicate)
        has_constant = any(isinstance(t, Constant) for t in query.args)
        applicable: list[str] = []
        notes: dict[str, str] = {}
        full = (report.separable and has_constant
                and query_form(report.analysis, query).plan is not None)

        if report.separable and has_constant:
            applicable.append("separable")
            notes["separable"] = (
                "full selection (Definition 2.7); compiles directly"
                if full
                else "partial selection; evaluated via the Lemma 2.1 rewrite"
            )
        elif not report.separable:
            failed = [
                str(c.number) for c in report.conditions if not c.holds
            ]
            notes["separable"] = (
                "prerequisite failed: " + "; ".join(report.prerequisites)
                if report.prerequisites
                else f"condition(s) {', '.join(failed)} of Definition 2.4 fail"
            )
        else:
            notes["separable"] = "query has no selection constants"

        if report.separable_up_to_condition_4 and has_constant:
            applicable.append("relaxed")
            notes["relaxed"] = (
                "conditions 1-3 hold; correct but unfocused if "
                "condition 4 fails (Section 5)"
                if not report.separable
                else "applies (recursion is fully separable anyway)"
            )
        else:
            notes["relaxed"] = notes.get(
                "separable", "query has no selection constants"
            )

        if full:
            applicable.append("nodedup")
            notes["nodedup"] = (
                "full selection; diverges if the reachable data is cyclic"
            )
        else:
            notes["nodedup"] = "needs a separable recursion + full selection"

        try:
            compile_counting(self.program, query)
            applicable.append("counting")
            notes["counting"] = (
                "down/up split exists; requires acyclic reachable data"
            )
        except CountingNotApplicable as exc:
            notes["counting"] = str(exc)

        stable = stable_positions(self.program, query.predicate)
        bound_stable = [
            p + 1
            for p, t in enumerate(query.args)
            if isinstance(t, Constant) and p in stable
        ]
        if bound_stable:
            applicable.append("pushdown")
            notes["pushdown"] = (
                f"stable column(s) {bound_stable} bound ([AU79])"
            )
        else:
            notes["pushdown"] = (
                f"no bound stable column (stable: "
                f"{[p + 1 for p in stable] or 'none'})"
            )

        for always in ("magic", "seminaive", "naive"):
            applicable.append(always)
        notes["magic"] = "always applicable (the general fallback)"
        notes["seminaive"] = "always applicable (full materialization)"
        notes["naive"] = "always applicable (full materialization, slow)"

        recommended = (
            "separable"
            if report.separable and has_constant
            else "magic"
        )
        return StrategyAdvice(
            query=query,
            applicable=tuple(applicable),
            recommended=recommended,
            notes=notes,
        )

    @cached_property
    def _arities(self) -> dict[str, int]:  # of each predicate a query names
        return {p: self.program.arity(p) for p in self.program.idb_predicates}

    def _check_query(self, query: Atom) -> None:
        """Typed errors for a query no strategy can answer."""
        if self._arities.get(query.predicate) == len(query.args):
            return
        if query.predicate not in self.program.idb_predicates:
            raise UnknownPredicateError(
                f"{query.predicate} is not defined by the program"
            )
        self.program.check_arity(query)

    # -- base materialization ------------------------------------------------

    def _database_for(self, predicate: str) -> Database:
        """EDB plus materialized extents of every *base* IDB predicate
        the given predicate depends on (excluding itself).

        The cache is keyed on the EDB's state number: a write between
        queries invalidates every cached materialization, so answers
        reflect the current data -- unless it is the EDB itself.
        """
        cached = self._base_db.get(predicate)
        if cached is self.edb:
            return cached
        fingerprint = self.edb.fingerprint()
        if fingerprint != self._base_db_fingerprint:
            self._base_db.clear()
            self._base_db_fingerprint = fingerprint
        cached = self._base_db.get(predicate)
        if cached is not None:
            return cached
        needed = self.program.depends_on(predicate) - {predicate}
        needed &= self.program.idb_predicates
        if needed or self.edb.shares_storage:
            db = self.edb.copy()
        else:
            # Nothing to materialize: the joins read the EDB itself and
            # the indexes they build stay with its relations -- hash
            # indexes in memory, ``CREATE INDEX`` on a temporary-mode
            # SQLite relation, a frozen snapshot copy included --
            # instead of with a private copy every new engine (one per
            # service snapshot, so one per write) rebuilds.  Only a
            # durable file keeps the private scratch copy: a reader's
            # indexes must not land in it, and its ``mode=ro`` snapshot
            # connections could not create them.
            db = self.edb
        if needed:
            for scc in self.program.evaluation_order:
                members = scc & needed
                if not members:
                    continue
                rules = [
                    r
                    for r in self.program.rules
                    if r.head.predicate in members
                ]
                # A throwaway accumulator: the budget's tuple and
                # iteration limits are metered on one.
                seminaive_stratum(
                    rules, frozenset(members), db, self.program,
                    stats=EvaluationStats(), budget=self.budget,
                    order=self.order,
                )
        self._base_db[predicate] = db
        return db

    # -- querying ------------------------------------------------------------

    def query(
        self,
        query: Union[Atom, str],
        strategy: str = "auto",
        stats: Optional[EvaluationStats] = None,
        tracer=None,
        budget: Optional[Budget] = None,
        memo=None,
        order: Optional[str] = None,
    ) -> QueryResult:
        """Answer a query under the chosen strategy.

        ``query`` may be an :class:`Atom` or source text such as
        ``"buys(tom, Y)?"``.  ``auto`` picks Separable when the queried
        predicate is separable and the query has a constant, and Magic
        Sets for every other query, all-free ones included.  ``tracer``
        overrides the engine's default tracer for this one call;
        base-IDB materialization is cached across queries and therefore
        never traced.

        ``budget`` overrides the engine's budget for this one call (the
        query service threads per-request deadline budgets through
        here); either way the wall clock is armed afresh via
        :meth:`Budget.start_clock`, so a ``max_wall_seconds`` limit
        means "per query", never "since the engine was built".  ``memo``
        is an optional full-selection memo forwarded to the Separable
        strategies (see :func:`repro.core.api.evaluate_separable`).

        ``order`` overrides the engine's join order for this one call
        (one of :data:`repro.datalog.plan_cache.ORDERS`: ``greedy``,
        ``left_to_right``, ``cost``) -- what the bench harness and
        oracle use to sweep orders without rebuilding the engine.
        Base-IDB materialization keeps the engine's default order (it
        is cached across queries).
        """
        if isinstance(query, str):
            query = parse_query_memo(query)
        self._check_query(query)
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
            )
        if order is None:
            order = self.order
        else:
            from .datalog.plan_cache import ORDERS

            if order not in ORDERS:
                raise ValueError(
                    f"unknown join order {order!r}; choose from {ORDERS}"
                )
        if stats is None:
            stats = EvaluationStats()
        if budget is None:
            budget = self.budget
        if budget.deadline is None and budget.max_wall_seconds is not None:
            budget = budget.start_clock()
        if tracer is None:
            tracer = self.tracer

        report: Optional[SeparabilityReport] = None
        if strategy in ("auto", "separable", "relaxed", "nodedup"):
            report = self.report(query.predicate)

        chosen = strategy
        if strategy == "auto":
            chosen = ("separable" if report.separable and -1 in query.shape
                      else "magic")

        stats.strategy = chosen
        form: Optional[QueryForm] = None
        if chosen in ("separable", "relaxed", "nodedup"):
            form = self._form(chosen, query, report)
        answers = self._dispatch(chosen, query, form, stats, tracer,
                                 budget, memo, order)
        return QueryResult(query, answers, chosen, stats, report,
                           form.plan if form is not None else None)

    def profile(
        self,
        query: Union[Atom, str],
        strategy: str = "auto",
        tracer: Optional[Tracer] = None,
    ) -> QueryProfile:
        """Answer a query under a recording tracer; return the profile.

        The ``EXPLAIN ANALYZE`` entry point: runs the query exactly as
        :meth:`query` would (same strategy dispatch, same caches) but
        under a fresh :class:`~repro.observability.Tracer`, and bundles
        the result with the strategy advice and the recorded span
        forest into a :class:`~repro.observability.QueryProfile`.

        ``tracer`` is the :class:`~repro.observability.Tracer` to
        record into (a fresh one by default); its context gains the
        query and strategy.  A caller that passes its own keeps the
        trace of a query that raised -- as ``repro-datalog profile
        --events`` does, to write it out all the same.
        """
        if isinstance(query, str):
            query = parse_query_memo(query)
        if tracer is None:
            tracer = Tracer()
        tracer.context.update(query=str(query), strategy=strategy)
        advice = self.advise(query)
        start = time.perf_counter()
        result = self.query(query, strategy=strategy, tracer=tracer)
        wall_s = time.perf_counter() - start
        return QueryProfile(
            result=result,
            advice=advice,
            tracer=tracer,
            requested=strategy,
            wall_s=wall_s,
        )

    def _form(self, strategy: str, query: Atom,
              report: SeparabilityReport) -> QueryForm:
        """The query form a Separable strategy runs ``query`` through,
        or :class:`NotSeparableError` when the strategy cannot."""
        relaxed = strategy == "relaxed"
        if report.analysis is None or not (
                report.separable
                or relaxed and report.separable_up_to_condition_4):
            raise NotSeparableError(
                f"{query.predicate} is not separable"
                + (" (even with Condition 4 relaxed)" if relaxed else "")
                + ":\n" + report.explain(),
                report=report,
            )
        return query_form(report.analysis, query, relaxed)

    def _dispatch(
        self,
        strategy: str,
        query: Atom,
        form: Optional[QueryForm],
        stats: EvaluationStats,
        tracer,
        budget: Budget,
        memo,
        order: str,
    ) -> frozenset[tuple]:
        if strategy in ("separable", "relaxed"):
            return evaluate_form(
                form, query, self._database_for(query.predicate), stats,
                budget, order, tracer, memo,
            )
        if strategy == "nodedup":
            plan = form.full_plan(query)
            seed = form.seed(query)
            up_tuples = execute_plan_nodedup(
                plan,
                self._database_for(query.predicate),
                [seed],
                stats=stats,
                budget=budget,
                order=order,
                tracer=tracer,
            )
            return frozenset(
                fact for fact in form.assemble(seed, up_tuples)
                if query.matches(fact)
            )
        if strategy == "magic":
            return evaluate_magic(
                self.program, self.edb, query,
                stats=stats, budget=budget, order=order,
                tracer=tracer,
            )
        if strategy == "counting":
            return evaluate_counting(
                self.program,
                self._database_for(query.predicate),
                query,
                stats=stats,
                budget=budget,
                order=order,
                tracer=tracer,
            )
        if strategy == "pushdown":
            return evaluate_pushed(
                self.program,
                self._database_for(query.predicate),
                query,
                stats=stats,
                budget=budget,
                order=order,
                tracer=tracer,
            )
        evaluate = (
            seminaive_evaluate if strategy == "seminaive" else naive_evaluate
        )
        materialized = evaluate(
            self.program, self.edb,
            stats=stats, budget=budget, order=order,
            tracer=tracer,
        )
        return frozenset(
            fact
            for fact in materialized.tuples(query.predicate)
            if query.matches(fact)
        )
