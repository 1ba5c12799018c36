"""Fuzz campaigns: corpus replay + seeded generation + shrink on failure.

:func:`run_fuzz` is the engine behind ``repro-datalog fuzz`` and the
pytest entry point in ``tests/differential/``:

1. every stored corpus case (``*.dl`` repro files) is replayed first --
   the regression half of the oracle;
2. ``iterations`` fresh cases are drawn from a seeded
   :class:`~repro.differential.generator.CaseGenerator` and run through
   :func:`~repro.differential.oracle.run_case`;
3. each failure is minimized with the delta-debugging shrinker while
   the same ``(kind, strategy)`` disagreement persists, and -- when a
   corpus directory is given -- written there as a replayable repro
   file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..budget import Budget
from ..observability.tracer import Tracer
from .cases import Case, load_corpus, save_case
from .generator import CaseGenerator, GeneratorConfig
from .oracle import (
    DEFAULT_FUZZ_BUDGET,
    OracleVerdict,
    make_failure_predicate,
    run_case,
)
from .shrinker import shrink_case

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzReport", "run_fuzz"]


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz campaign's parameters.

    ``orders`` adds, per listed join order (``cost``), a semi-naive run
    to every case (corpus and generated), cross-checked against the
    reference, and a generated-vs-reference diff of the Separable carry
    loops under that order -- the planner-vs-greedy half of the oracle.
    ``backends`` re-runs every applicable strategy (and every listed
    order) over each case migrated onto each named storage backend --
    the backend-vs-memory half.
    """

    iterations: int = 200
    seed: int = 0
    strategies: Optional[Sequence[str]] = None
    corpus_dir: Optional[Path] = None
    budget: Budget = DEFAULT_FUZZ_BUDGET
    shrink: bool = True
    max_shrink_attempts: int = 2000
    generator: GeneratorConfig = GeneratorConfig()
    orders: Optional[Sequence[str]] = None
    backends: Optional[Sequence[str]] = None


@dataclass
class FuzzFailure:
    """One disagreement, before and after shrinking."""

    index: int
    case: Case
    verdict: OracleVerdict
    shrunk: Optional[Case] = None
    repro_path: Optional[Path] = None
    repro_written: bool = False

    def describe(self) -> str:
        rules, facts = self.case.size()
        lines = [
            f"case #{self.index} ({rules} rules, {facts} facts): "
            + "; ".join(str(d) for d in self.verdict.disagreements)
        ]
        for d in self.verdict.disagreements:
            if d.profile is None:
                continue
            trace = Tracer.from_dict(d.profile["trace"])
            lines.append(
                f"  evidence[{d.strategy}]: "
                f"iterations={d.profile.get('iterations', '?')} "
                f"max_relation={d.profile.get('max_relation_size', '?')} "
                f"examined={d.profile.get('tuples_examined', '?')} "
                f"spans={sum(1 for _ in trace.spans())}"
            )
        if self.shrunk is not None:
            s_rules, s_facts = self.shrunk.size()
            lines.append(
                f"  shrunk to {s_rules} rules, {s_facts} facts"
            )
        if self.repro_path is not None:
            verb = "written to" if self.repro_written else "at"
            lines.append(f"  repro {verb} {self.repro_path}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Everything a campaign did, for CLI output and assertions."""

    config: FuzzConfig
    iterations_run: int = 0
    separable_cases: int = 0
    mutant_cases: int = 0
    strategy_runs: int = 0
    skipped_runs: int = 0
    corpus_replayed: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    corpus_failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.corpus_failures

    def summary(self) -> str:
        lines = [
            f"fuzz: seed={self.config.seed} "
            f"iterations={self.iterations_run} "
            f"(separable={self.separable_cases} "
            f"near-miss={self.mutant_cases}) "
            f"strategy runs={self.strategy_runs} "
            f"skipped={self.skipped_runs} "
            f"corpus replayed={self.corpus_replayed}",
        ]
        for failure in self.corpus_failures:
            lines.append("corpus " + failure.describe())
        for failure in self.failures:
            lines.append(failure.describe())
        lines.append(
            "result: "
            + ("all strategies agree" if self.ok else
               f"{len(self.failures) + len(self.corpus_failures)} "
               f"disagreement(s)")
        )
        return "\n".join(lines)


def _account(report: FuzzReport, verdict: OracleVerdict) -> None:
    for outcome in verdict.outcomes.values():
        if outcome.ran:
            report.strategy_runs += 1
        elif outcome.skipped is not None:
            report.skipped_runs += 1


def _shrink_failure(
    failure: FuzzFailure, config: FuzzConfig
) -> None:
    """Minimize the failing case, preserving its first disagreement."""
    signature = failure.verdict.disagreements[0].signature
    predicate = make_failure_predicate(
        signature, strategies=config.strategies, budget=config.budget,
        orders=config.orders, backends=config.backends,
    )
    result = shrink_case(
        failure.case, predicate, max_attempts=config.max_shrink_attempts
    )
    failure.shrunk = result.case.annotated(
        (failure.case.note + " shrunk").strip()
    )


def run_fuzz(config: FuzzConfig = FuzzConfig()) -> FuzzReport:
    """Run one campaign; see the module docstring for the phases."""
    report = FuzzReport(config=config)

    if config.corpus_dir is not None:
        for path, case in load_corpus(config.corpus_dir):
            verdict = run_case(
                case, strategies=config.strategies, budget=config.budget,
                orders=config.orders,
                backends=config.backends,
            )
            report.corpus_replayed += 1
            _account(report, verdict)
            if not verdict.ok:
                report.corpus_failures.append(
                    FuzzFailure(
                        index=-1, case=case, verdict=verdict,
                        repro_path=path,
                    )
                )

    generator = CaseGenerator(seed=config.seed, config=config.generator)
    for index in range(config.iterations):
        case = generator.draw_case()
        if case.expect_separable:
            report.separable_cases += 1
        else:
            report.mutant_cases += 1
        verdict = run_case(
            case, strategies=config.strategies, budget=config.budget,
            orders=config.orders,
            backends=config.backends,
        )
        report.iterations_run += 1
        _account(report, verdict)
        if verdict.ok:
            continue
        failure = FuzzFailure(index=index, case=case, verdict=verdict)
        if config.shrink:
            _shrink_failure(failure, config)
        if config.corpus_dir is not None:
            kind, strategy = verdict.disagreements[0].signature
            target = (
                Path(config.corpus_dir)
                / f"shrunk-seed{config.seed}-case{index}-"
                  f"{kind}-{strategy}.dl"
            )
            failure.repro_path = save_case(
                failure.shrunk or failure.case, target
            )
            failure.repro_written = True
        report.failures.append(failure)
    return report
