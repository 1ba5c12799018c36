"""Request tracing, the recorded requests' records, and HTTP telemetry
endpoints."""

import json
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.core.evaluator import loop_source
from repro.datalog.database import Database
from repro.datalog.plan_cache import PLAN_CACHE
import repro.service.service as service_module
from repro.observability import (
    JsonlFileSink,
    RingBufferSink,
    Tracer,
    read_events,
    trace_violations,
)
from repro.service import (
    QueryService,
    ServiceConfig,
    ServiceHTTPD,
    ServiceMetrics,
)
from repro.workloads import paper

from ..core.test_evaluator import plan_of


@pytest.fixture
def ex11():
    program = paper.example_1_1_program()
    db = Database.from_facts(
        {
            "friend": [("tom", "sue"), ("sue", "ann")],
            "idol": [("tom", "ann")],
            "perfectFor": [("ann", "camera"), ("sue", "boat")],
        }
    )
    return program, db


def _service(program, db, **config_kwargs):
    config_kwargs.setdefault("workers", 1)
    return QueryService(program, db, ServiceConfig(**config_kwargs))


def trace_problems(record: dict) -> list[str]:
    """A recorded request's record checked as what it holds, a trace
    (after the JSON round trip a sink makes): its span tree loads,
    keeps the fixpoint invariants and has no open span."""
    tracer = Tracer.from_dict(json.loads(json.dumps(record))["trace"])
    problems = trace_violations(tracer)
    if not tracer.all_closed():
        problems.append("a span is open")
    return problems


class TestSampler:
    @pytest.mark.parametrize(
        "rate,sampled_seqs",
        [
            (0.0, set()),
            (1.0, {1, 2, 3, 4, 5, 6, 7, 8}),
            (0.5, {2, 4, 6, 8}),
            (0.25, {4, 8}),
        ],
    )
    def test_deterministic_over_sequence_numbers(
        self, ex11, rate, sampled_seqs
    ):
        program, db = ex11
        with _service(program, db, trace_sample=rate) as service:
            got = {
                seq for seq in range(1, 9) if service._sampled(seq)
            }
        assert got == sampled_seqs

    def test_rate_validated_by_records_landed(self, ex11):
        # End to end: rate 0.5 over 4 serial requests lands exactly
        # the 2nd and 4th in the slowlog.
        program, db = ex11
        with _service(program, db, trace_sample=0.5) as service:
            results = [
                service.query("buys(tom, Y)?") for _ in range(4)
            ]
        records = service.slowlog()
        assert [r["trace_id"] for r in records] == [
            results[1].trace_id, results[3].trace_id,
        ]

    def test_every_request_gets_a_trace_id(self, ex11):
        program, db = ex11
        with _service(program, db) as service:  # sampling off
            first = service.query("buys(tom, Y)?")
            second = service.query("buys(sue, Y)?")
        assert first.trace_id == "req-00000001"
        assert second.trace_id == "req-00000002"
        assert service.slowlog() == []  # ids exist even when untraced


class TestSlowlogRecords:
    def test_sampled_records_validate_against_schema(self, ex11):
        program, db = ex11
        with _service(program, db, trace_sample=1.0) as service:
            result = service.query("buys(tom, Y)?")
        (record,) = service.slowlog()
        assert trace_problems(record) == []
        assert record["type"] == "service_request"
        assert record["trace_id"] == result.trace_id
        assert record["query"] == "buys(tom, Y)"
        assert record["reason"] == ["sampled"]
        assert record["status"] == "ok"
        assert record["answers"] == len(result.answers)
        trace = Tracer.from_dict(record["trace"])
        assert trace.context == {"trace_id": result.trace_id,
                                 "query": "buys(tom, Y)"}
        assert list(trace.spans("separable.loop"))
        assert trace.counter_total("tuples_examined") > 0
        assert record["memo"] == {
            "hits": 0, "misses": 1, "resumed": 0, "size": 1,
        }
        # JSON round-trips (the sink writes these as JSONL).
        assert json.loads(json.dumps(record)) == record

    def test_threshold_zero_marks_every_request_slow(self, ex11):
        program, db = ex11
        with _service(
            program, db, trace_sample=0.5, slow_query_threshold_s=0.0
        ) as service:
            for _ in range(4):
                service.query("buys(tom, Y)?")
        records = service.slowlog()
        assert [r["reason"] for r in records] == [
            ["slow"], ["sampled", "slow"], ["slow"], ["sampled", "slow"],
        ]
        assert all(trace_problems(r) == [] for r in records)

    def test_high_threshold_records_nothing(self, ex11):
        program, db = ex11
        with _service(
            program, db, slow_query_threshold_s=3600.0
        ) as service:
            service.query("buys(tom, Y)?")
        assert service.slowlog() == []

    def test_error_requests_still_land_with_error_field(self, ex11):
        program, db = ex11
        with _service(program, db, trace_sample=1.0) as service:
            result = service.query("nosuch(X)?")
        assert result.status == "error"
        (record,) = service.slowlog()
        assert trace_problems(record) == []
        assert record["status"] == "error"
        assert record["error"] == result.error

    def test_records_flow_through_the_sink(self, ex11):
        program, db = ex11
        sink = RingBufferSink()
        with QueryService(
            program, db,
            ServiceConfig(workers=1, trace_sample=1.0),
            sink=sink,
        ) as service:
            service.query("buys(tom, Y)?")
            service.query("nosuch(X)?")
        start, *records = sink.events
        assert start["type"] == "trace_start"
        # One record per request, the very dicts the ring keeps.
        assert [r["type"] for r in records] == ["service_request"] * 2
        assert all(a is b for a, b in zip(records, service.slowlog()))
        assert all(trace_problems(r) == [] for r in records)


class TestRecordedAggregates:
    """The evaluator aggregates are the recorded requests' traces: none
    at rate 0, where every loop runs untraced, and at rate 1.0 the sum
    over a miss, a view read and a write."""

    def test_rate_zero_records_nothing_and_runs_untraced_loops(self, ex11):
        program, db = ex11
        PLAN_CACHE.clear()  # so every loop below is one these requests ran
        with _service(program, db.copy()) as plain, \
                _service(program, db.copy(), incremental=True) as viewed:
            plain.query("buys(tom, Y)?")
            viewed.query("buys(tom, Y)?")
            viewed.mutate(lambda d: d.add_fact("friend", ("joe", "tom")))
            viewed.mutate(lambda d: d.remove_fact("friend", ("tom", "sue")))
            snaps = [plain.metrics_dict(), viewed.metrics_dict()]
            paths = list(viewed._view._paths.values())
        assert snaps[1]["view_probes"] == 1 and snaps[1]["view_repairs"] == 2
        for snap in snaps:
            assert snap["evaluator_counters"] == {}
            assert snap["evaluator_phases"] == {}
        plan, _ = plan_of(program, "buys", "buys(tom, Y)")
        assert loop_source(plan, "down")
        assert loop_source(plan, "down", traced=True) == []
        assert loop_source(plan, "up", traced=True) == []
        written = [traced for _, terms, *_ in paths
                   for traced, *_ in PLAN_CACHE.loops_for(terms)]
        assert written and not any(written)

    def test_rate_one_sums_every_request(self, ex11, monkeypatch):
        program, db = ex11
        recorded = []
        absorb = ServiceMetrics.absorb

        def keep(self, tracer):
            recorded.append(tracer)
            absorb(self, tracer)

        monkeypatch.setattr(ServiceMetrics, "absorb", keep)
        with _service(program, db, incremental=True,
                      trace_sample=1.0) as service:
            service.query("buys(tom, Y)?", strategy="separable")  # a miss
            assert service.query("buys(tom, Y)?").strategy == "view"
            service.mutate(lambda d: d.add_fact("friend", ("joe", "tom")))
            snap = service.metrics_dict()
        assert len(recorded) == 3
        counters, seconds = Counter(), Counter()
        for tracer in recorded:
            counters.update(tracer.totals())
            for span in tracer.spans():
                counters[f"span:{span.name}"] += 1
                seconds[span.name] += span.duration_s
        assert {"span:separable.loop", "span:service.view_read",
                "span:service.mutate.apply", "span:view.restart",
                "rounds"} <= counters.keys()
        assert snap["evaluator_counters"] == dict(counters)
        phases = snap["evaluator_phases"]
        assert {name: p["count"] for name, p in phases.items()} == {
            name: counters[f"span:{name}"] for name in seconds}
        for name, phase in phases.items():
            assert phase["seconds"] == pytest.approx(seconds[name])


class TestConfig:
    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
    def test_a_trace_sample_outside_the_unit_interval_raises(self, rate):
        with pytest.raises(ValueError, match="trace_sample"):
            ServiceConfig(trace_sample=rate)

    @pytest.mark.parametrize("field", [
        "default_deadline_s", "slow_query_threshold_s"])
    @pytest.mark.parametrize("seconds", [
        float("nan"), float("inf"), -0.5])
    def test_a_negative_or_non_finite_duration_raises(self, field,
                                                       seconds):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: seconds})

    @pytest.mark.parametrize("field", [
        "default_deadline_s", "slow_query_threshold_s"])
    def test_zero_and_none_are_durations(self, field):
        assert getattr(ServiceConfig(**{field: 0.0}), field) == 0.0
        assert getattr(ServiceConfig(**{field: None}), field) is None

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -0.5])
    def test_a_request_deadline_is_checked_before_numbering(
            self, ex11, seconds):
        program, db = ex11
        with _service(program, db, default_deadline_s=5.0) as service:
            with pytest.raises(ValueError, match="deadline_s"):
                service.query("buys(tom, Y)?", deadline_s=seconds)
            with pytest.raises(ValueError, match="deadline_s"):
                service.submit("buys(tom, Y)?", deadline_s=seconds)
            served = service.query("buys(tom, Y)?", deadline_s=0.0)
            assert service.metrics_dict()["requests_submitted"] == 1
        # Refused requests took no sequence number.
        assert served.trace_id == "req-00000001"

    def test_a_served_request_leaves_nothing_in_flight(self, ex11):
        program, db = ex11
        with _service(program, db, trace_sample=0.3) as service:
            assert service.query("buys(tom, Y)?").ok
            assert service.metrics.in_flight == 0


class TestSlowlogValidation:
    """A record is checked as the trace it holds (``Tracer.from_dict``,
    ``trace_violations``, ``all_closed``); its stream by its schema."""

    def test_builder_output_is_valid(self, ex11):
        program, db = ex11
        with _service(program, db, trace_sample=1.0,
                      incremental=True) as service:
            service.query("buys(tom, Y)?")  # a view read
            service.query("buys(tom, Y)?", strategy="magic")
            service.query("buys(sue, Y)?", strategy="separable")
            records = service.slowlog()
        assert [r["strategy"] for r in records] == [
            "view", "magic", "separable"]
        assert [trace_problems(r) for r in records] == [[]] * 3

    def test_rejects_a_broken_trace(self, ex11):
        program, db = ex11
        with _service(program, db, trace_sample=1.0) as service:
            service.query("buys(tom, Y)?")
        (record,) = service.slowlog()
        broken = json.loads(json.dumps(record))
        (loop, *_) = (span for root in broken["trace"]["spans"]
                      for span in _walk(root)
                      if span["name"] == "separable.loop")
        loop["attrs"]["final_seen"] += 1
        assert any("seen size inconsistent" in p
                   for p in trace_problems(broken))
        loop["attrs"]["final_seen"] -= 1
        loop["end_s"] = None
        assert "a span is open" in trace_problems(broken)

    def test_rejects_wrong_schema_version(self, ex11, tmp_path):
        # A service stream reads back as records that are traces; the
        # same file under the schema-2 header, whose records were not,
        # is refused.
        program, db = ex11
        path = tmp_path / "events.jsonl"
        with JsonlFileSink(path) as sink, QueryService(
                program, db, ServiceConfig(workers=1, trace_sample=0.5),
                sink=sink) as service:
            service.query("buys(tom, Y)?")
            service.query("buys(sue, Y)?")
        _, unrecorded, recorded = read_events(path)
        assert "trace" not in unrecorded and trace_problems(recorded) == []
        path.write_text(path.read_text().replace(
            "repro-events/3", "repro-events/2"))
        with pytest.raises(ValueError, match="repro-events/2"):
            read_events(path)


def _walk(span: dict):
    yield span
    for child in span["children"]:
        yield from _walk(child)


class TestSlowlogRing:
    def test_bounded_eviction_keeps_newest(self, ex11, monkeypatch):
        program, db = ex11
        monkeypatch.setattr(service_module, "SLOWLOG_CAPACITY", 3)
        sink = RingBufferSink()
        with QueryService(program, db, ServiceConfig(
                workers=1, trace_sample=1.0), sink=sink) as service:
            ids = [service.query("buys(tom, Y)?").trace_id
                   for _ in range(5)]
        assert [r["trace_id"] for r in service.slowlog()] == ids[2:]
        # The sink still got every record.
        assert len(sink) == 1 + 5

    def test_recent_n_returns_newest_oldest_first(self, ex11):
        program, db = ex11
        with _service(program, db, trace_sample=1.0) as service:
            ids = [service.query("buys(tom, Y)?").trace_id
                   for _ in range(4)]
        assert [r["trace_id"] for r in service.slowlog(2)] == ids[2:]
        assert service.slowlog(0) == []
        assert [r["trace_id"] for r in service.slowlog(99)] == ids


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers, resp.read().decode("utf-8")


class TestServiceHTTPD:
    @pytest.fixture
    def served(self, ex11):
        program, db = ex11
        with _service(
            program, db, trace_sample=1.0
        ) as service, ServiceHTTPD(service) as httpd:
            service.query("buys(tom, Y)?")
            yield service, httpd

    def test_metrics_endpoint_serves_the_exposition(self, served):
        service, httpd = served
        status, headers, body = _get(httpd.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        assert body == service.metrics_text()
        for pinned in (
            'repro_service_requests_total{status="ok"} 1',
            "repro_service_memo_hit_ratio",
            "repro_service_plan_cache_entries",
            'repro_service_span_seconds_total{span="separable.',
        ):
            assert pinned in body, pinned

    def test_healthz_flips_to_503_on_close(self, served):
        service, httpd = served
        status, _, body = _get(httpd.url + "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["queue_depth"] == 0
        assert payload["in_flight"] == 0
        service.close()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(httpd.url + "/healthz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["status"] == "closed"

    def test_slowlog_endpoint_slices_newest(self, served):
        service, httpd = served
        service.query("buys(sue, Y)?")
        _, _, body = _get(httpd.url + "/slowlog")
        records = json.loads(body)
        assert [r["query"] for r in records] == [
            "buys(tom, Y)", "buys(sue, Y)",
        ]
        assert all(trace_problems(r) == [] for r in records)
        _, _, body = _get(httpd.url + "/slowlog?n=1")
        assert [r["query"] for r in json.loads(body)] == [
            "buys(sue, Y)",
        ]

    def test_slowlog_rejects_non_integer_n(self, served):
        _, httpd = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(httpd.url + "/slowlog?n=soon")
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, served):
        _, httpd = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(httpd.url + "/nope")
        assert excinfo.value.code == 404

    def test_ephemeral_port_is_real(self, served):
        _, httpd = served
        assert httpd.port > 0
        assert httpd.url.endswith(str(httpd.port))


class TestMetricsDict:
    def test_evaluator_phases_report_time_shares(self, ex11):
        from repro.datalog.plan_cache import PLAN_CACHE

        program, db = ex11
        # The stats are process-global and cumulative; reset so the
        # order-mix assertion below sees only this service's requests.
        PLAN_CACHE.clear()
        with _service(program, db, trace_sample=1.0) as service:
            service.query("buys(tom, Y)?")
            snap = service.metrics_dict()
        phases = snap["evaluator_phases"]
        assert phases  # the separable evaluator opened spans
        total_share = sum(p["share"] for p in phases.values())
        assert total_share == pytest.approx(1.0)
        for phase in phases.values():
            assert phase["seconds"] >= 0.0
            assert phase["count"] >= 1
        assert set(snap["plan_cache"]) >= {
            "size", "hits", "misses", "evictions", "orders",
        }
        # The service plans with the engine's default order only.
        assert set(snap["plan_cache"]["orders"]) <= {"greedy"}


class TestPlanCacheExposition:
    def test_evictions_and_order_mix_are_exported(self):
        from repro.service.metrics import ServiceMetrics

        text = ServiceMetrics().to_metrics_text(plan_cache_stats={
            "size": 2, "hits": 5, "misses": 3, "compiles": 3,
            "evictions": 1, "orders": {"greedy": 6, "cost": 2},
        })
        for pinned in (
            "repro_service_plan_cache_entries 2",
            "repro_service_plan_cache_evictions_total 1",
            'repro_service_plan_requests_total{order="cost"} 2',
            'repro_service_plan_requests_total{order="greedy"} 6',
        ):
            assert pinned in text, pinned

    def test_idle_cache_omits_order_series(self):
        from repro.service.metrics import ServiceMetrics

        text = ServiceMetrics().to_metrics_text(plan_cache_stats={
            "size": 0, "hits": 0, "misses": 0, "compiles": 0,
            "evictions": 0, "orders": {},
        })
        assert "repro_service_plan_cache_evictions_total 0" in text
        assert "repro_service_plan_requests_total" not in text
