"""Concurrent query serving over the Separable evaluator.

The paper closes (Section 5) by casting the compiled Separable method
as "a useful component of a recursive query processor".  This package
is that component grown to service shape: a thread pool answering many
selections at once over a mutating EDB, with snapshot isolation
(:meth:`~repro.datalog.database.Database.fingerprint`-keyed immutable
copies), cross-request full-selection memoization (the Lemma 2.1 cache
unit; a miss never waits on another), and per-request wall-clock deadline
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
exposition).  A request leaves one ``service_request`` record; a
recorded one's holds its span tree (:meth:`Tracer.to_dict
<repro.observability.Tracer.to_dict>`), so it loads with
``Tracer.from_dict`` and is checked by
:func:`~repro.observability.trace_violations` like any trace.
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

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServiceResult",
    "PartialResult",
    "FullSelectionMemo",
    "ServiceMetrics",
    "ServiceHTTPD",
]
