"""A request leaves one record, and a recorded request's record is its
trace.

Every completed request writes one ``service_request`` record carrying
its ``trace_id``; a recorded one (sampled, or over the slow threshold)
also carries ``reason``, the memo disposition and ``trace`` -- the span
tree :meth:`Tracer.to_dict` gives, so it loads with ``Tracer.from_dict``
and is checked by ``trace_violations`` like any other trace.  The ring
behind ``service.slowlog()`` keeps the recorded ones, and a sink that
raises fails no request.
"""

import errno
import json
import random
import sys
import threading

import pytest

from repro.observability import RingBufferSink, Tracer, trace_violations
from repro.service import QueryService, ServiceConfig
from repro.service.service import SLOWLOG_CAPACITY

from .test_memo_absorb import communities, reads
from .test_memo_survival import SOCIAL


@pytest.mark.parametrize("incremental", [False, True],
                         ids=["plain", "incremental"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_every_recorded_record_is_a_trace(backend, incremental):
    """A ``serve-read``-shaped stream at ``trace_sample=1.0``: each
    request's record is its result, its memo delta and a trace that
    loads after a JSON round trip, keeps Lemma 3.4 and is closed."""
    rng = random.Random(7)
    db = communities(rng)
    sink = RingBufferSink()
    with QueryService(SOCIAL, db, ServiceConfig(
            workers=1, trace_sample=1.0, incremental=incremental,
            backend=backend), sink=sink) as service:
        served = []
        for query in reads(rng, 60):
            before = service.memo.stats()
            result = service.query(query)
            after = service.memo.stats()
            memo = {key: after[key] - before[key]
                    for key in ("hits", "misses", "resumed")}
            served.append((result, {**memo, "size": after["size"]}))
        records = service.slowlog()
    assert sink.events[0]["type"] == "trace_start"
    assert len(records) == len(served) == len(sink) - 1
    for record, sunk, (result, memo) in zip(records, list(sink)[1:],
                                            served):
        assert record is sunk
        assert result.ok
        assert {key: record[key] for key in (
            "trace_id", "status", "answers", "reason", "memo")} == {
            "trace_id": result.trace_id, "status": "ok",
            "answers": len(result.answers), "reason": ["sampled"],
            "memo": memo}
        tracer = Tracer.from_dict(json.loads(json.dumps(record))["trace"])
        assert trace_violations(tracer) == []
        assert tracer.all_closed()
        assert tracer.context["trace_id"] == result.trace_id
    strategies = {record["strategy"] for record in records}
    assert strategies == ({"view"} if incremental else {"separable"})


def test_an_unrecorded_record_carries_its_trace_id_only():
    rng = random.Random(3)
    sink = RingBufferSink()
    with QueryService(SOCIAL, communities(rng), ServiceConfig(
            workers=1, trace_sample=0.5), sink=sink) as service:
        first = service.query("buys(u0_0, Y)?")
        second = service.query("buys(u0_1, Y)?")
    _, unrecorded, recorded = sink.events
    assert unrecorded["trace_id"] == first.trace_id
    assert not {"reason", "memo", "trace"} & unrecorded.keys()
    assert recorded["trace_id"] == second.trace_id
    assert service.slowlog() == [recorded]


def test_an_unrecorded_request_without_a_sink_takes_no_lock():
    class Untouchable:
        def __enter__(self):
            raise AssertionError("the record lock was taken")

        def __exit__(self, *exc):
            return False

    with QueryService(SOCIAL, communities(random.Random(3)),
                      ServiceConfig(workers=1)) as service:
        service._sink_lock = Untouchable()
        assert service.query("buys(u0_0, Y)?").ok
        assert service.submit("buys(u0_1, Y)?").result().ok
        assert service.metrics_dict()["requests_completed"] == 2


class _FullDisk:
    """A sink whose disk filled after the stream's header."""

    def __init__(self) -> None:
        self.header = None

    def emit(self, event: dict) -> None:
        if self.header is None:
            self.header = event
            return
        raise OSError(errno.ENOSPC, "No space left on device")

    def close(self) -> None:
        pass


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_a_raising_sink_fails_no_request(rate):
    with QueryService(SOCIAL, communities(random.Random(3)), ServiceConfig(
            workers=1, trace_sample=rate), sink=_FullDisk()) as service:
        assert service.query("buys(u0_0, Y)?").ok
        assert service.submit("buys(u0_1, Y)?").result().ok
        snap = service.metrics_dict()
        assert snap["in_flight"] == 0
        assert snap["requests_completed"] == 2
        assert snap["sink_errors"] == 2
        assert "repro_service_sink_errors_total 2" in service.metrics_text()
        # The ring is written before the sink is tried.
        assert len(service.slowlog()) == (2 if rate else 0)
        assert service.query("buys(u0_2, Y)?").ok
        assert service.metrics_dict()["sink_errors"] == 3


def test_threads_serve_sampled_requests_while_one_reads_the_ring():
    rng = random.Random(11)
    db = communities(rng, 4, 8)
    queries = reads(rng, 480, 4, 8)
    errors: list = []
    done = threading.Event()

    with QueryService(SOCIAL, db, ServiceConfig(
            workers=1, trace_sample=1.0)) as service:
        def serve(part):
            try:
                for query in part:
                    assert service.query(query).ok
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        def read_ring():
            try:
                while not done.is_set():
                    service.slowlog()
                    service.slowlog(5)
            except BaseException as exc:
                errors.append(exc)

        servers = [threading.Thread(target=serve, args=(queries[k::4],))
                   for k in range(4)]
        reader = threading.Thread(target=read_ring)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for thread in servers:
                thread.start()
            for thread in servers:
                thread.join(timeout=120)
        finally:
            done.set()
            reader.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in servers + [reader])
        records = service.slowlog()
    assert errors == []
    assert len({r["trace_id"] for r in records}) == SLOWLOG_CAPACITY
