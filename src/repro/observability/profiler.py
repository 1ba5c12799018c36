"""Per-query profiling: ``EXPLAIN ANALYZE`` for the strategy zoo.

:class:`QueryProfile` bundles everything one traced evaluation learned
-- the answers and chosen plan, the strategy advice, the
:class:`~repro.stats.EvaluationStats` relation sizes (the paper's
Definition 4.2 measure), and the full span forest with its counters
and per-iteration series -- and renders it as a report a user can read
to understand *why* Separable beat Magic on their query: which rule
did the work, how many tuples each join examined versus produced, and
how the per-round deltas grew and shrank.

Built by :meth:`repro.engine.Engine.profile` and the
``repro-datalog profile`` CLI subcommand; rendered as text, JSON, or a
Chrome trace (``--format``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .export import to_chrome_trace, to_metrics_text
from .tracer import Span, Tracer

__all__ = ["QueryProfile", "RuleRow", "rule_rows"]

#: Counter-name prefixes the evaluators use for per-rule accounting.
RULE_APPS_PREFIX = "rule_apps:"
RULE_OUT_PREFIX = "rule_out:"


@dataclass(frozen=True)
class RuleRow:
    """Aggregated work attributed to one rule (or plan join term)."""

    label: str
    applications: int
    tuples_out: int


def rule_rows(tracer: Tracer) -> list[RuleRow]:
    """Per-rule application/output totals recorded in a trace.

    The evaluators bump ``rule_apps:<label>`` once per rule evaluation
    and ``rule_out:<label>`` by the tuples that evaluation contributed;
    labels are ``<head>#<index>`` for source rules (Magic shows its
    rewritten rules here) and ``<loop>#<index>`` for compiled plan
    join terms.
    """
    return _rule_rows(tracer.totals())


def _rule_rows(totals: dict[str, int]) -> list[RuleRow]:
    apps: dict[str, int] = {}
    outs: dict[str, int] = {}
    for name, value in totals.items():
        if name.startswith(RULE_APPS_PREFIX):
            apps[name[len(RULE_APPS_PREFIX):]] = value
        elif name.startswith(RULE_OUT_PREFIX):
            outs[name[len(RULE_OUT_PREFIX):]] = value
    return [
        RuleRow(label, apps.get(label, 0), outs.get(label, 0))
        for label in sorted(set(apps) | set(outs))
    ]


def _span_label(span: Span) -> str:
    """A stable one-line identity for a span in report rows."""
    for key in ("relation", "scc"):
        value = span.attrs.get(key)
        if value is not None:
            return f"{span.name}[{value}]"
    return span.name


def _series_lines(tracer: Tracer) -> list[str]:
    lines: list[str] = []
    for span in tracer.spans():
        for name, values in sorted(span.series.items()):
            shown = " ".join(str(v) for v in values[:40])
            if len(values) > 40:
                shown += f" ... ({len(values)} points)"
            lines.append(f"{_span_label(span)}.{name}: {shown}")
    return lines


def _plan_that_ran(result):
    """``result.plan``, or -- for a partial selection the Separable
    strategy answered, which has no one plan of its own -- the plan its
    ``t_full`` half ran for every seed, read off the query's form (its
    ``t_part`` half is a full selection on another recursion)."""
    if result.plan is not None or result.strategy not in (
            "separable", "relaxed"):
        return result.plan
    from ..core.compiler import query_form

    return query_form(result.report.analysis, result.query,
                      result.strategy == "relaxed").batch.plan


def _loop_lines(loops) -> list[str]:
    """The generated loops that ran over each ``(title, joins)`` of
    ``loops`` (:meth:`~repro.datalog.plan_cache.PlanCache.loops_for`):
    a Separable plan's carry loops and exit join, or each stratum's
    semi-naive loop.

    A loop unpacks its constants per join term from ``J<g>``; each
    term's line gives the relation and index signature behind its
    probes ``q`` -- ``(relation, positions -> cols)`` for a projected
    one, which answers with those columns of the facts -- and its
    constants ``k``.
    """
    from ..datalog.plan_cache import PLAN_CACHE

    lines: list[str] = []
    for title, of in loops:
        for traced, source, terms, joins in PLAN_CACHE.loops_for(of):
            lines.append(f"  {title} ({'traced' if traced else 'untraced'}"
                         f" flavour)")
            for g, i, probed, consts in terms:
                q = ", ".join(
                    f"({pred}, {positions})" if cols is None
                    else f"({pred}, {positions} -> {cols})"
                    for pred, positions, cols in probed)
                lines.append(f"    J{g}: {joins[i]}  q=[{q}]  k={consts}")
            lines += [f"    {line}" for line in source.splitlines()]
    return lines


@dataclass
class QueryProfile:
    """One traced query evaluation, ready to explain itself.

    ``result`` and ``advice`` are the engine's
    :class:`~repro.engine.QueryResult` and
    :class:`~repro.engine.StrategyAdvice` (typed loosely here to keep
    the observability layer import-free of the engine); ``tracer``
    holds the recorded span forest and ``requested`` the strategy the
    caller asked for (``result.strategy`` is what actually ran).
    """

    result: object
    advice: object
    tracer: Tracer
    requested: str
    wall_s: float

    # -- derived -----------------------------------------------------------

    @property
    def stats(self):
        return self.result.stats

    @cached_property
    def _totals(self) -> dict[str, int]:
        """The finished trace's counter totals, folded once per profile."""
        return self.tracer.totals()

    def fanout(self) -> Optional[float]:
        """Join output per examined tuple over the whole run."""
        totals = self._totals
        examined = totals.get("tuples_examined")
        if not examined:
            return None
        return totals.get("bindings_out", 0) / examined

    def planner_summary(self) -> Optional[dict]:
        """Estimate-vs-observed digest of a cost-order run.

        ``None`` unless the cost-based planner ran (the ``plan_est_rows``
        counter only moves under ``order="cost"``), so default-order
        profile text stays byte-identical.  The estimate is summed per
        plan lookup: once per rule application of a rewritten program,
        once per loop entry of a compiled carry loop.
        """
        totals = self._totals
        estimated = totals.get("plan_est_rows")
        if not estimated:
            return None
        return {
            "estimated_rows": estimated,
            "observed_bindings": totals.get("bindings_out", 0),
        }

    # -- rendering ---------------------------------------------------------

    def render_text(self, timings: bool = True) -> str:
        """The ``EXPLAIN ANALYZE`` report.

        With ``timings=False`` every wall-clock figure is omitted and
        the remaining content is deterministic for a given program,
        database and query -- what the CLI smoke tests and doc examples
        pin down.
        """
        result = self.result
        rule = "-" * 58
        lines = [f"EXPLAIN ANALYZE  {result.query}?"]
        header = (
            f"strategy: {result.strategy}"
            + (
                f" (requested {self.requested})"
                if self.requested != result.strategy
                else ""
            )
            + f"; answers: {len(result.answers)}"
        )
        if timings:
            header += f"; wall-clock: {self.wall_s * 1e3:.3f} ms"
        lines.append(header)

        plan = _plan_that_ran(result)
        lines += ["", f"-- plan {rule[8:]}", result.describe_plan()
                  if plan is None else plan.describe(plan is not result.plan)]
        if plan is not None:
            lines += _loop_lines([("down loop", plan.down_joins),
                                  ("exit join", plan.exit_joins),
                                  ("up loop", plan.up_joins)])
        else:  # a rewritten program: the generated loop of each stratum
            from ..datalog.plan_cache import DELTA

            strata = dict.fromkeys(
                tuple(span.attrs["scc"]) for span in self.tracer.spans()
                if span.name == "seminaive.scc")
            lines += _loop_lines(
                (f"stratum {', '.join(scc)} loop",
                 tuple(DELTA + p for p in scc)) for scc in strata)
        lines += ["", f"-- strategy advice {rule[19:]}",
                  self.advice.explain()]

        lines += ["", f"-- spans {rule[9:]}"]
        total = sum(
            s.duration_s or 0.0
            for s in self.tracer.roots
            if s.name != "(toplevel)"
        )

        def emit_span(span: Span, depth: int) -> None:
            counters = " ".join(
                f"{k}={v}"
                for k, v in sorted(span.counters.items())
                if not k.startswith((RULE_APPS_PREFIX, RULE_OUT_PREFIX))
            )
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())
            )
            prefix = ""
            if timings:
                share = (
                    (span.duration_s or 0.0) / total * 100.0
                    if total > 0
                    else 0.0
                )
                prefix = (
                    f"{share:5.1f}%  {(span.duration_s or 0) * 1e3:9.3f}ms  "
                )
            lines.append(
                f"{prefix}{'  ' * depth}{span.name}"
                + (f"  {attrs}" if attrs else "")
                + (f"  [{counters}]" if counters else "")
            )
            for child in span.children:
                emit_span(child, depth + 1)

        for root in self.tracer.roots:
            emit_span(root, 0)

        rows = _rule_rows(self._totals)
        if rows:
            lines += ["", f"-- per-rule work {rule[17:]}"]
            width = max(len(r.label) for r in rows)
            lines.append(
                f"{'rule':<{width}}  {'applications':>12}  {'tuples out':>10}"
            )
            for r in rows:
                lines.append(
                    f"{r.label:<{width}}  {r.applications:>12}  "
                    f"{r.tuples_out:>10}"
                )

        lines += [
            "",
            f"-- generated relations (Definition 4.2) {rule[40:]}",
        ]
        sizes = self.stats.relation_sizes
        if sizes:
            width = max(len(n) for n in sizes)
            for name in sorted(sizes):
                lines.append(f"{name:<{width}}  {sizes[name]:>10}")
        else:
            lines.append("(none recorded)")

        series = _series_lines(self.tracer)
        if series:
            lines += ["", f"-- per-iteration series {rule[24:]}"]
            lines.extend(series)

        lines += ["", f"-- totals {rule[10:]}"]
        fanout = self.fanout()
        counter = self._totals.get
        lines.append(
            f"iterations={self.stats.iterations} "
            f"tuples_examined={counter('tuples_examined', 0)} "
            f"bindings_out={counter('bindings_out', 0)} "
            f"tuples_produced={self.stats.tuples_produced} "
            + (f"join_fanout={fanout:.3f}" if fanout is not None
               else "join_fanout=n/a")
        )
        lines.append(
            f"plan_compiles={counter('plan_compiles', 0)} "
            f"plan_cache_hits={counter('plan_cache_hits', 0)} "
            f"plan_cache_misses={counter('plan_cache_misses', 0)}"
        )
        planner = self.planner_summary()
        if planner is not None:
            # Only cost-order profiles print this; greedy report text
            # stays byte-identical.
            lines += ["", f"-- planner (estimate vs observed) {rule[33:]}"]
            lines.append(
                f"estimated_rows={planner['estimated_rows']} "
                f"observed_bindings={planner['observed_bindings']}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-ready summary (stable keys; trace included)."""
        result = self.result
        return {
            "query": str(result.query),
            "strategy": result.strategy,
            "requested": self.requested,
            "answers": len(result.answers),
            "wall_s": self.wall_s,
            "plan": result.describe_plan(),
            "advice": self.advice.explain(),
            "stats": self.stats.as_dict(),
            "planner": self.planner_summary(),
            "rules": [
                {
                    "label": r.label,
                    "applications": r.applications,
                    "tuples_out": r.tuples_out,
                }
                for r in _rule_rows(self._totals)
            ],
            "counters": dict(sorted(self._totals.items())),
            "trace": self.tracer.to_dict(),
        }

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON of the recorded spans."""
        return to_chrome_trace(self.tracer)

    def to_metrics_text(self) -> str:
        """Prometheus-style exposition of the final counters."""
        return to_metrics_text(self.tracer)
