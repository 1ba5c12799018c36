"""Service metrics: thread-safe counters, latency quantiles, exports.

:class:`ServiceMetrics` keeps the request-level aggregates -- queue
depth, per-status request counts, retries, deadline trips, a latency
reservoir with p50/p99 -- and the evaluator aggregates of the
*recorded* requests: :meth:`ServiceMetrics.absorb` folds each one's
finished :class:`~repro.observability.Tracer` in (its counter totals,
a ``span:<name>`` count per span and the spans' widths per name), so
``evaluator_counters`` / ``evaluator_phases`` cover what the sampler
or the slow-query threshold selected, every request at
``trace_sample=1.0``.  An unrecorded request runs with
``tracer=None`` and adds nothing.  The exporters:
:meth:`ServiceMetrics.to_metrics_text` renders the Prometheus text
format (the service's own lines, then the evaluator counters through
the renderer :func:`repro.observability.export.to_metrics_text` uses,
so one scrape pipeline handles traces and the service alike), and
:meth:`ServiceMetrics.as_dict` the JSON shape the CLI batch driver
writes as its artifact.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from ..observability.export import (
    MetricFamilies,
    counter_lines,
    escape_label_value,
)

__all__ = ["ServiceMetrics"]


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted nonempty list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


#: Request latencies a :class:`ServiceMetrics` keeps for its quantiles.
LATENCY_CAPACITY = 65_536

#: The service's event counters: ``as_dict`` key -> (metric name less
#: the ``repro_service_`` prefix, help text), in exposition order.
_EVENTS = {
    "retries": ("retries_total",
                "Attempts retried after a transient trip."),
    "deadline_trips": ("deadline_trips_total", "Wall-clock budget trips."),
    "snapshots_created": ("snapshots_total", "EDB snapshots materialized."),
    # Never bumped since a write stopped capturing the next snapshot;
    # the key stays for the ledger's reader.
    "snapshots_repaired": (
        "snapshots_repaired_total",
        "Snapshots captured eagerly by a mutation (always 0)."),
    "view_repairs": (
        "view_repairs_total",
        "Incremental IDB repairs applied by the maintained view."),
    "view_rebuilds": (
        "view_rebuilds_total",
        "Full view rebuilds after a delta-capture overflow."),
    "view_probes": (
        "view_probes_total",
        "Reads answered by an index lookup on the maintained view."),
}


class ServiceMetrics:
    """Request-level aggregates for one :class:`~repro.service.QueryService`.

    All methods are thread-safe.  :data:`LATENCY_CAPACITY` bounds the
    latency reservoir (most recent completions win), keeping a
    long-lived service's memory flat while the quantiles track current
    behaviour.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._span_seconds: dict[str, float] = {}
        self._submitted = 0
        self._started = 0
        self._completed = 0
        self._by_status: dict[str, int] = {}
        self._events = dict.fromkeys(_EVENTS, 0)
        self._latencies: deque[float] = deque(maxlen=LATENCY_CAPACITY)

    # -- recording (called by the service) --------------------------------

    def request_submitted(self) -> None:
        with self._lock:
            self._submitted += 1

    def request_started(self) -> None:
        with self._lock:
            self._started += 1

    def request_completed(self, status: str, latency_s: float) -> None:
        with self._lock:
            self._completed += 1
            self._by_status[status] = self._by_status.get(status, 0) + 1
            self._latencies.append(latency_s)

    def bump(self, event: str) -> None:
        """Count one service event (a key of :data:`_EVENTS`)."""
        with self._lock:
            self._events[event] += 1

    def absorb(self, tracer) -> None:
        """Fold a recorded request's finished tracer into the evaluator
        aggregates: its counter totals, one ``span:<name>`` per span,
        and each span's wall-clock width under its name."""
        totals = tracer.totals()
        with self._lock:
            for span in tracer.spans():
                name = f"span:{span.name}"
                totals[name] = totals.get(name, 0) + 1
                if span.end_s is not None:
                    self._span_seconds[span.name] = (
                        self._span_seconds.get(span.name, 0.0)
                        + (span.end_s - span.start_s)
                    )
            for name, value in totals.items():
                self._counters[name] = self._counters.get(name, 0) + value

    # -- reading ------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a worker (a ``query()`` never waits)."""
        with self._lock:
            return self._submitted - self._started

    @property
    def in_flight(self) -> int:
        """Requests currently being evaluated."""
        with self._lock:
            return self._started - self._completed

    def as_dict(
        self,
        memo_stats: Optional[dict] = None,
        plan_cache_stats: Optional[dict] = None,
    ) -> dict:
        """JSON-ready snapshot (the batch driver's artifact payload)."""
        with self._lock:
            values = sorted(self._latencies)
            out: dict = {
                "requests_submitted": self._submitted,
                "requests_completed": self._completed,
                "queue_depth": self._submitted - self._started,
                "in_flight": self._started - self._completed,
                "by_status": dict(self._by_status),
                **self._events,
                "latency_s": {
                    "count": len(values),
                    "p50": _quantile(values, 0.50),
                    "p99": _quantile(values, 0.99),
                    "max": values[-1] if values else 0.0,
                },
            }
            counters = dict(self._counters)
            seconds = dict(self._span_seconds)
        out["evaluator_counters"] = counters
        total = sum(seconds.values())
        out["evaluator_phases"] = {
            name: {
                "seconds": seconds[name],
                "count": counters.get(f"span:{name}", 0),
                "share": seconds[name] / total if total else 0.0,
            }
            for name in sorted(seconds)
        }
        if memo_stats is not None:
            out["memo"] = dict(memo_stats)
        if plan_cache_stats is not None:
            out["plan_cache"] = dict(plan_cache_stats)
        return out

    def to_metrics_text(
        self,
        memo_stats: Optional[dict] = None,
        plan_cache_stats: Optional[dict] = None,
    ) -> str:
        """Prometheus text exposition of the service's current state.

        ``repro_service_*`` gauges/counters/summary plus every
        aggregated evaluator counter under the same
        ``repro_<counter>_total`` names
        :func:`repro.observability.export.to_metrics_text` uses -- one
        scrape config covers offline traces and the live service.
        ``# HELP``/``# TYPE`` are emitted once per family and label
        values are escaped per the exposition format.
        """
        snap = self.as_dict()
        lines: list[str] = []
        families = MetricFamilies(lines)

        def gauge(name: str, help_text: str, value) -> None:
            metric = f"repro_service_{name}"
            families.declare(metric, help_text, kind="gauge")
            lines.append(f"{metric} {value}")

        gauge("queue_depth", "Requests waiting for a worker.",
              snap["queue_depth"])
        gauge("in_flight", "Requests currently evaluating.",
              snap["in_flight"])

        families.declare(
            "repro_service_requests_total",
            "Completed requests by status.",
        )
        for status in sorted(snap["by_status"]):
            lines.append(
                f"repro_service_requests_total"
                f'{{status="{escape_label_value(status)}"}} '
                f"{snap['by_status'][status]}"
            )
        for key, (name, help_text) in _EVENTS.items():
            metric = f"repro_service_{name}"
            families.declare(metric, help_text)
            lines.append(f"{metric} {snap[key]}")

        lat = snap["latency_s"]
        families.declare(
            "repro_service_latency_seconds",
            "Request latency quantiles over the recent reservoir.",
            kind="summary",
        )
        lines.append(
            f'repro_service_latency_seconds{{quantile="0.5"}} '
            f"{lat['p50']:.6f}"
        )
        lines.append(
            f'repro_service_latency_seconds{{quantile="0.99"}} '
            f"{lat['p99']:.6f}"
        )
        lines.append(f"repro_service_latency_seconds_count {lat['count']}")

        if memo_stats is not None:
            families.declare(
                "repro_service_memo_events_total",
                "Full-selection memo events by kind.",
            )
            for kind in ("hits", "misses", "coalesced", "evictions",
                         "repaired", "survived", "absorbed"):
                lines.append(
                    f'repro_service_memo_events_total{{kind="{kind}"}} '
                    f"{memo_stats.get(kind, 0)}"
                )
            gauge("memo_size", "Entries resident in the memo.",
                  memo_stats.get("size", 0))
            lookups = memo_stats.get("hits", 0) + memo_stats.get(
                "misses", 0
            )
            gauge(
                "memo_hit_ratio",
                "Memo hits over lookups (0 when idle).",
                f"{memo_stats.get('hits', 0) / lookups:.6f}"
                if lookups else "0.000000",
            )

        if plan_cache_stats is not None:
            gauge(
                "plan_cache_entries",
                "Compiled join plans resident process-wide.",
                plan_cache_stats.get("size", 0),
            )
            plan_lookups = plan_cache_stats.get(
                "hits", 0
            ) + plan_cache_stats.get("misses", 0)
            gauge(
                "plan_cache_hit_ratio",
                "Join-plan cache hits over lookups (0 when idle).",
                f"{plan_cache_stats.get('hits', 0) / plan_lookups:.6f}"
                if plan_lookups else "0.000000",
            )
            metric = "repro_service_plan_cache_evictions_total"
            families.declare(
                metric, "Compiled join plans evicted by the size bound."
            )
            lines.append(
                f"{metric} {plan_cache_stats.get('evictions', 0)}"
            )
            orders = plan_cache_stats.get("orders") or {}
            if orders:
                metric = "repro_service_plan_requests_total"
                families.declare(
                    metric, "Join-plan lookups by requested order."
                )
                for order in sorted(orders):
                    lines.append(
                        f'{metric}{{order="{escape_label_value(order)}"}} '
                        f"{orders[order]}"
                    )

        phases = snap["evaluator_phases"]
        if phases:
            families.declare(
                "repro_service_span_seconds_total",
                "Evaluator wall-clock seconds by span name.",
            )
            for name in sorted(phases):
                lines.append(
                    f"repro_service_span_seconds_total"
                    f'{{span="{escape_label_value(name)}"}} '
                    f"{phases[name]['seconds']:.6f}"
                )

        counter_lines(
            snap["evaluator_counters"], families,
            "Evaluator counter {!r} summed over the recorded requests.",
            "Evaluator counter {!r} by label.",
        )
        return "\n".join(lines) + "\n"
