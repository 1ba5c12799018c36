"""Lightweight tracing for the evaluation hot paths.

Every evaluator in the package accepts an optional ``tracer``; when one
is live it receives nested wall-clock spans (one per fixpoint loop,
rewrite, or strategy run), per-span counters (tuples fetched, index
builds, join fan-out), and per-span *series* (per-iteration delta and
carry sizes) -- the dynamic quantities that
:class:`repro.stats.EvaluationStats` aggregates away.

The default is no tracer at all: hot loops guard every emission with a
single ``tracer is not None`` check, so the untraced path costs one
pointer comparison (see ``tests/observability/test_overhead.py``), and
``tracer=None`` is the one way to say "off".

The span tree with its counter totals (:meth:`Tracer.totals`) is the
one telemetry model; everything else is a function of it:

* :mod:`repro.observability.events` -- an :class:`EventSink` protocol
  with ring-buffer and JSONL-file sinks, the schema-versioned
  ``trace_start`` header every stream opens with, and trace files:
  :func:`write_trace` stores the finished tree (:meth:`Tracer.to_dict`)
  and :func:`replay_file` rebuilds it (:meth:`Tracer.from_dict`);
* :mod:`repro.observability.export` -- pure-function exporters over a
  completed (live or rebuilt) trace: Chrome trace-event JSON and
  Prometheus-style metrics text;
* :mod:`repro.observability.profiler` -- :class:`QueryProfile`, the
  ``EXPLAIN ANALYZE``-style per-query report behind
  :meth:`repro.engine.Engine.profile` and ``repro-datalog profile``.
"""

from .events import (
    EVENT_SCHEMA,
    EventSink,
    JsonlFileSink,
    RingBufferSink,
    read_events,
    replay_file,
    trace_start,
    write_trace,
)
from .export import escape_label_value, to_chrome_trace, to_metrics_text
from .invariants import trace_violations
from .profiler import QueryProfile, RuleRow, rule_rows
from .tracer import Span, Tracer

__all__ = [
    "EVENT_SCHEMA",
    "EventSink",
    "JsonlFileSink",
    "QueryProfile",
    "RingBufferSink",
    "RuleRow",
    "Span",
    "Tracer",
    "escape_label_value",
    "read_events",
    "replay_file",
    "rule_rows",
    "to_chrome_trace",
    "to_metrics_text",
    "trace_start",
    "trace_violations",
    "write_trace",
]
