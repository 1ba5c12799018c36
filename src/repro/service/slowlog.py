"""Slow-query log: schema-versioned records for sampled/slow requests.

Every served request gets a trace id; a deterministic sampler (and an
optional latency threshold) decides which requests run under a real
recording :class:`~repro.observability.Tracer` and land here as one
JSONL record each -- the ``EXPLAIN ANALYZE`` the operator wishes they
had run, captured after the fact.

Records follow the ``repro-slowlog/1`` schema: query text, strategy,
latency, why the record exists (``sampled`` / ``slow`` / both), the
trace's counter totals (:func:`work_counter_totals`) and the memo
disposition over the request.  They travel through the service's existing
event sink (interleaved with ``service_request`` events; replay skips
unknown types) and a bounded in-memory ring serves the HTTP
``/slowlog`` endpoint.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = [
    "SLOWLOG_SCHEMA",
    "SlowlogRing",
    "build_slowlog_record",
    "validate_slowlog_record",
    "work_counter_totals",
]

#: Version stamp carried by every slow-query record.
SLOWLOG_SCHEMA = "repro-slowlog/1"

#: Counters that describe cache warmup rather than work: what they read
#: depends on what the process-wide plan cache and the relations' lazy
#: indexes already held when the request arrived.
_WARMUP_COUNTERS = frozenset({
    "plan_compiles",
    "plan_cache_hits",
    "plan_cache_misses",
    "index_builds",
    "index_tuples",
})

#: Field -> required type(s) for schema validation.
_REQUIRED: dict[str, tuple] = {
    "type": (str,),
    "schema": (str,),
    "trace_id": (str,),
    "query": (str,),
    "strategy": (str,),
    "status": (str,),
    "reason": (list,),
    "latency_s": (int, float),
    "answers": (int,),
    "attempts": (int,),
    "counter_totals": (dict,),
    "memo": (dict,),
    "spans": (int,),
}


def build_slowlog_record(
    *,
    trace_id: str,
    query: str,
    strategy: str,
    status: str,
    reason: list[str],
    latency_s: float,
    answers: int,
    attempts: int,
    counter_totals: dict,
    memo: dict,
    spans: int,
    error: Optional[str] = None,
) -> dict:
    """Assemble one ``repro-slowlog/1`` record (plain JSON-ready dict).

    ``reason`` says why the record exists: ``["sampled"]``,
    ``["slow"]``, or both.  ``memo`` is the request's memo disposition
    -- the delta of :meth:`FullSelectionMemo.stats` across the request
    (hits/misses/coalesced the request itself caused).
    """
    record = {
        "type": "slow_query",
        "schema": SLOWLOG_SCHEMA,
        "trace_id": trace_id,
        "query": query,
        "strategy": strategy,
        "status": status,
        "reason": list(reason),
        "latency_s": latency_s,
        "answers": answers,
        "attempts": attempts,
        "counter_totals": dict(counter_totals),
        "memo": dict(memo),
        "spans": spans,
    }
    if error is not None:
        record["error"] = error
    return record


def work_counter_totals(tracer) -> dict[str, int]:
    """A trace's counter totals less the cache-warmup counters: the
    same request reads the same whatever ran before it."""
    return {name: value for name, value in tracer.totals().items()
            if name not in _WARMUP_COUNTERS}


def validate_slowlog_record(record: dict) -> list[str]:
    """Problems with a record against ``repro-slowlog/1`` (empty = valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, not dict"]
    for field, types in _REQUIRED.items():
        if field not in record:
            problems.append(f"missing field {field!r}")
        elif not isinstance(record[field], types):
            problems.append(
                f"field {field!r} is {type(record[field]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if not problems:
        if record["type"] != "slow_query":
            problems.append(f"type is {record['type']!r}")
        if record["schema"] != SLOWLOG_SCHEMA:
            problems.append(
                f"schema is {record['schema']!r}, "
                f"expected {SLOWLOG_SCHEMA!r}"
            )
        bad = [r for r in record["reason"]
               if r not in ("sampled", "slow")]
        if bad or not record["reason"]:
            problems.append(f"bad reason list {record['reason']!r}")
        for key, value in record["counter_totals"].items():
            if not isinstance(key, str) or not isinstance(value, int):
                problems.append(
                    f"counter_totals entry {key!r}: {value!r}"
                )
                break
    return problems


class SlowlogRing:
    """Thread-safe bounded ring of recent slow-query records.

    The HTTP ``/slowlog`` endpoint reads from here; the sink (when the
    service has one) gets every record regardless, so the ring bounds
    memory, not durability.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._lock = threading.Lock()
        self._capacity = max(1, capacity)
        self._records: list[dict] = []
        self._total = 0

    def append(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)
            self._total += 1
            if len(self._records) > self._capacity:
                del self._records[: -self._capacity]

    def recent(self, n: Optional[int] = None) -> list[dict]:
        """The most recent ``n`` records, oldest first (all if ``None``)."""
        with self._lock:
            records = list(self._records)
        if n is not None and n >= 0:
            records = records[len(records) - min(n, len(records)):]
        return records

    @property
    def total(self) -> int:
        """Records ever appended (survives ring eviction)."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
