"""Request tracing, slow-query log, and HTTP telemetry endpoints."""

import json
import urllib.error
import urllib.request

import pytest

from repro.datalog.database import Database
from repro.datalog.plan_cache import PLAN_CACHE
from repro.observability import RingBufferSink
from repro.service import (
    QueryService,
    SLOWLOG_SCHEMA,
    ServiceConfig,
    ServiceHTTPD,
    SlowlogRing,
    build_slowlog_record,
    validate_slowlog_record,
)
from repro.workloads import paper


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
        assert validate_slowlog_record(record) == []
        assert record["schema"] == SLOWLOG_SCHEMA
        assert record["trace_id"] == result.trace_id
        assert record["query"] == "buys(tom, Y)"
        assert record["reason"] == ["sampled"]
        assert record["status"] == "ok"
        assert record["answers"] == len(result.answers)
        assert record["spans"] > 0
        assert record["counter_totals"].get("tuples_examined", 0) > 0
        assert set(record["memo"]) == {
            "hits", "misses", "coalesced", "size",
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
        assert all(validate_slowlog_record(r) == [] for r in records)

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
        assert validate_slowlog_record(record) == []
        assert record["status"] == "error"
        assert record["error"]

    def test_records_flow_through_the_sink(self, ex11):
        program, db = ex11
        sink = RingBufferSink()
        with QueryService(
            program, db,
            ServiceConfig(workers=1, trace_sample=1.0),
            sink=sink,
        ) as service:
            service.query("buys(tom, Y)?")
        slow = [
            e for e in sink.events if e.get("type") == "slow_query"
        ]
        assert len(slow) == 1
        assert validate_slowlog_record(slow[0]) == []
        # The regular per-completion event still arrives too.
        assert any(
            e.get("type") == "service_request" for e in sink.events
        )

    def test_lifetime_counters_identical_traced_or_not(self, ex11):
        program, db = ex11

        def run(rate):
            # Both runs start on a cold process-wide plan cache, so the
            # plan counters are comparable whatever ran before.
            PLAN_CACHE.clear()
            with _service(program, db, trace_sample=rate) as service:
                service.query("buys(tom, Y)?")
            return service.metrics.tracer.counters()

        assert run(0.0) == run(1.0)


class TestSlowlogValidation:
    def _valid(self):
        return build_slowlog_record(
            trace_id="req-00000001",
            query="t(X)",
            strategy="separable",
            status="ok",
            reason=["sampled"],
            latency_s=0.01,
            answers=3,
            attempts=1,
            counter_totals={"tuples_examined": 5},
            memo={"hits": 0, "misses": 1, "coalesced": 0, "size": 1},
            spans=4,
        )

    def test_builder_output_is_valid(self):
        assert validate_slowlog_record(self._valid()) == []

    def test_rejects_non_dict(self):
        assert validate_slowlog_record([]) != []

    @pytest.mark.parametrize("field", [
        "schema", "trace_id", "latency_s", "counter_totals",
    ])
    def test_rejects_missing_field(self, field):
        record = self._valid()
        del record[field]
        problems = validate_slowlog_record(record)
        assert any(field in p for p in problems)

    def test_rejects_wrong_schema_version(self):
        record = self._valid()
        record["schema"] = "repro-slowlog/99"
        assert validate_slowlog_record(record) != []

    def test_rejects_unknown_or_empty_reason(self):
        record = self._valid()
        record["reason"] = ["because"]
        assert validate_slowlog_record(record) != []
        record["reason"] = []
        assert validate_slowlog_record(record) != []

    def test_rejects_non_int_counter_totals(self):
        record = self._valid()
        record["counter_totals"] = {"tuples_examined": "5"}
        assert validate_slowlog_record(record) != []

    def test_rejects_wrong_field_type(self):
        record = self._valid()
        record["attempts"] = "1"
        assert validate_slowlog_record(record) != []


class TestSlowlogRing:
    def test_bounded_eviction_keeps_newest(self):
        ring = SlowlogRing(capacity=3)
        for i in range(5):
            ring.append({"i": i})
        assert len(ring) == 3
        assert ring.total == 5
        assert [r["i"] for r in ring.recent()] == [2, 3, 4]

    def test_recent_n_returns_newest_oldest_first(self):
        ring = SlowlogRing(capacity=10)
        for i in range(4):
            ring.append({"i": i})
        assert [r["i"] for r in ring.recent(2)] == [2, 3]
        assert ring.recent(0) == []
        assert [r["i"] for r in ring.recent(99)] == [0, 1, 2, 3]


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
        assert all(validate_slowlog_record(r) == [] for r in records)
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
        with _service(program, db) as service:
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
