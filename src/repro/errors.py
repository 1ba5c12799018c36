"""Exception hierarchy for the Datalog substrate and the evaluation strategies.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses carry
structured context (offending rule, predicate, position in source text)
where that helps diagnose a problem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DatalogSyntaxError(ReproError):
    """Raised by the parser on malformed program text.

    Attributes
    ----------
    line, column:
        1-based position of the offending token in the source text, when
        known; ``None`` otherwise.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ArityError(ReproError):
    """A predicate was used with two different arities."""


class SafetyError(ReproError):
    """A rule is unsafe: some head variable does not occur in its body."""


class NotLinearError(ReproError):
    """A rule or program is not linear recursive where linearity is required."""


class NotSeparableError(ReproError):
    """A recursion failed one of the four conditions of Definition 2.4.

    The :attr:`report` attribute (when present) is the full
    :class:`repro.core.detection.SeparabilityReport` explaining which
    conditions failed and why.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        self.report = report
        super().__init__(message)


class NotFullSelectionError(ReproError):
    """A query is not a full selection (Definition 2.7) where one is required."""


class UnknownPredicateError(ReproError):
    """A query or rule referenced a predicate that is neither IDB nor EDB."""


class EvaluationError(ReproError):
    """Generic failure during bottom-up evaluation."""


class BudgetExceeded(EvaluationError):
    """An evaluation exceeded one of its budget limits.

    Used to stop the exponential baselines (Generalized Counting, the
    Henschen-Naqvi-style levelwise method) gracefully in benchmarks, and
    by the query service to enforce per-request deadlines.

    Attributes
    ----------
    stats:
        The partially accumulated :class:`repro.stats.EvaluationStats`.
        When the trip happened inside a Lemma 2.1 union evaluation this
        is the *merged* accumulator over everything that ran (``t_part``
        and the ``t_full`` batch), not just the failing run's.
    limit:
        Which limit tripped: ``"relation_tuples"``, ``"total_tuples"``,
        ``"iterations"`` or ``"wall_clock"`` (``None`` for callers that
        raise without tagging).  ``"wall_clock"`` trips are the only
        ones worth retrying -- every other limit is deterministic.
    partial:
        Answers of what completed of a Lemma 2.1 union (when the
        ``t_full`` batch trips: ``t_part``, and the seeds a memo had
        answered by then), when the evaluation can degrade gracefully
        (``None`` when nothing was completed or the strategy cannot
        produce partial answers).
    """

    def __init__(
        self,
        message: str,
        stats: object | None = None,
        limit: str | None = None,
        partial: frozenset | None = None,
    ) -> None:
        self.stats = stats
        self.limit = limit
        self.partial = partial
        super().__init__(message)

    @property
    def retryable(self) -> bool:
        """True when retrying might succeed (wall-clock contention)."""
        return self.limit == "wall_clock"


class CyclicDataError(EvaluationError):
    """A method that requires acyclic data detected a cycle.

    The paper notes that both the Henschen-Naqvi algorithm and the
    Counting method fail on cyclic data; we surface that failure as this
    exception rather than looping forever.
    """

    def __init__(self, message: str, stats: object | None = None) -> None:
        self.stats = stats
        super().__init__(message)
