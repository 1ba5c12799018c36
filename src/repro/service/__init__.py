"""Concurrent query serving over the Separable evaluator.

The paper closes (Section 5) by casting the compiled Separable method
as "a useful component of a recursive query processor".  This package
is that component grown to service shape: a thread pool answering many
selections at once over a mutating EDB, with snapshot isolation
(:meth:`~repro.datalog.database.Database.fingerprint`-keyed immutable
copies), cross-request full-selection memoization (the Lemma 2.1 cache
unit, with in-flight coalescing), and per-request wall-clock deadline
budgets with graceful degradation to partial union results.

Entry points: :class:`QueryService` (the server),
:class:`ServiceConfig` (tunables), :class:`ServiceResult` /
:class:`PartialResult` (responses), :class:`FullSelectionMemo` (the
cache), :class:`ServiceMetrics` (request aggregates, plus the evaluator
counters and span widths of the requests a private
:class:`~repro.observability.Tracer` recorded -- the sampled ones, or
every one under a slow-query threshold; any other request runs
untraced -- exportable as Prometheus text or JSON),
:class:`ServiceHTTPD` (live ``/metrics`` + ``/healthz`` + ``/slowlog``
exposition), and the ``repro-slowlog/1`` record helpers
(:data:`SLOWLOG_SCHEMA`, :func:`build_slowlog_record`,
:func:`validate_slowlog_record`, :class:`SlowlogRing`).
"""

from .httpd import ServiceHTTPD
from .memo import FullSelectionMemo
from .metrics import ServiceMetrics
from .service import (
    PartialResult,
    QueryService,
    ServiceConfig,
    ServiceResult,
)
from .slowlog import (
    SLOWLOG_SCHEMA,
    SlowlogRing,
    build_slowlog_record,
    validate_slowlog_record,
)

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServiceResult",
    "PartialResult",
    "FullSelectionMemo",
    "ServiceMetrics",
    "ServiceHTTPD",
    "SLOWLOG_SCHEMA",
    "SlowlogRing",
    "build_slowlog_record",
    "validate_slowlog_record",
]
