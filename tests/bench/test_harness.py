"""Unit and smoke tests for the bench harness.

The full Section 4 sweeps live behind ``pytest -m bench``; here the
fits, the schema, and the report plumbing are pinned with workloads
small enough for every CI run.
"""

import json

import pytest

import repro.bench.harness as harness
from repro.bench import (
    SCHEMA,
    calibrate,
    classify_exponent,
    fit_exponent,
    git_sha,
    machine_info,
    report_path,
    run_family,
    write_report,
)
from repro.bench.families import FAMILIES

#: Keys every report must carry (docs/benchmarking.md documents them).
REPORT_KEYS = {
    "schema",
    "family",
    "title",
    "size_means",
    "expectation",
    "generated_at",
    "git_sha",
    "machine",
    "budget_max_relation_tuples",
    "backend",
    "repeats",
    "sizes",
    "calibration",
    "results",
    "fits",
}

CELL_KEYS = {
    "strategy",
    "n",
    "outcome",
    "answers",
    "answers_sha",
    "max_relation_size",
    "tuples_produced",
    "tuples_examined",
    "iterations",
    "counters",
    "trace_violations",
    "median_s",
    "unit_s",
    "normalized",
}


@pytest.fixture(scope="module")
def calibration():
    return calibrate(repeats=1)


@pytest.fixture(scope="module")
def e2_report(calibration):
    return run_family(
        FAMILIES["e2"], [4, 6], repeats=1, calibration=calibration
    )


class TestFitExponent:
    def test_linear_points(self):
        points = [(n, 3.0 * n) for n in (4, 8, 16, 32)]
        assert fit_exponent(points) == pytest.approx(1.0)

    def test_quadratic_points(self):
        points = [(n, 0.5 * n * n) for n in (4, 8, 16, 32)]
        assert fit_exponent(points) == pytest.approx(2.0)

    def test_exponential_lands_far_above_cubic(self):
        points = [(n, 2.0 ** n) for n in (4, 8, 16, 32)]
        exponent = fit_exponent(points)
        assert exponent > 3.5
        assert classify_exponent(exponent) == "superpolynomial"

    def test_too_few_points_is_none(self):
        assert fit_exponent([]) is None
        assert fit_exponent([(8, 64.0)]) is None

    def test_zero_values_are_dropped(self):
        assert fit_exponent([(4, 0.0), (8, 0.0), (16, 0.0)]) is None

    def test_coincident_sizes_are_unfittable(self):
        assert fit_exponent([(8, 1.0), (8, 100.0)]) is None

    @pytest.mark.parametrize(
        "exponent,bucket",
        [
            (None, "unknown"),
            (0.02, "constant"),
            (1.0, "linear"),
            (1.97, "quadratic"),
            (3.0, "cubic"),
            (8.0, "superpolynomial"),
        ],
    )
    def test_classification_buckets(self, exponent, bucket):
        assert classify_exponent(exponent) == bucket


class TestCalibration:
    def test_unit_is_positive_and_labelled(self, calibration):
        assert calibration["unit_s"] > 0
        assert "plain-python" in calibration["workload"]
        assert calibration["repeats"] == 1


class TestReportShape:
    def test_required_keys(self, e2_report):
        assert set(e2_report) == REPORT_KEYS
        assert e2_report["schema"] == SCHEMA
        assert e2_report["family"] == "e2"
        assert e2_report["sizes"] == [4, 6]

    def test_cells_are_complete(self, e2_report):
        assert e2_report["results"], "sweep produced no cells"
        for cell in e2_report["results"]:
            assert set(cell) == CELL_KEYS
            assert cell["outcome"] == "ok"
            assert cell["answers"] is not None
            assert cell["median_s"] > 0
            assert cell["normalized"] == cell["median_s"] / cell["unit_s"]
            assert cell["trace_violations"] == []
            assert cell["counters"]["tuples_examined"] > 0

    def test_one_cell_per_strategy_size_pair(self, e2_report):
        keys = [(c["strategy"], c["n"]) for c in e2_report["results"]]
        assert len(keys) == len(set(keys))
        assert len(keys) == len(FAMILIES["e2"].cells) * 2

    def test_fits_cover_both_metrics(self, e2_report):
        pairs = {(f["strategy"], f["metric"]) for f in e2_report["fits"]}
        for cell in FAMILIES["e2"].cells:
            assert (cell.label, "max_relation_size") in pairs
            assert (cell.label, "median_s") in pairs

    def test_report_is_json_serializable(self, e2_report, tmp_path):
        path = write_report(e2_report, tmp_path)
        assert path == report_path(tmp_path, "e2")
        assert path.name == "BENCH_e2.json"
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCHEMA
        assert loaded["results"] == e2_report["results"]

    def test_machine_and_sha_blocks(self):
        info = machine_info()
        assert info["python"]
        assert info["platform"]
        sha = git_sha()
        assert sha == "unknown" or all(
            ch in "0123456789abcdef" for ch in sha
        )


class TestTraceExport:
    def test_trace_dir_writes_chrome_traces_per_cell(
        self, calibration, tmp_path
    ):
        trace_dir = tmp_path / "traces"
        report = run_family(
            FAMILIES["e2"], [4], repeats=1, calibration=calibration,
            trace_dir=trace_dir,
        )
        for cell in report["results"]:
            assert "trace" in cell
            path = tmp_path / "traces" / (
                f"e2-{cell['strategy']}-n{cell['n']}.trace.json"
            )
            assert str(path) == cell["trace"]
            data = json.loads(path.read_text())
            assert data["otherData"]["context"] == {
                "family": "e2",
                "strategy": cell["strategy"],
                "n": cell["n"],
            }
            depth = 0
            for event in data["traceEvents"]:
                if event["ph"] == "B":
                    depth += 1
                elif event["ph"] == "E":
                    depth -= 1
            assert depth == 0

    def test_without_trace_dir_cells_have_no_trace_key(self, e2_report):
        assert all("trace" not in c for c in e2_report["results"])


class TestDeterminism:
    def test_counters_and_sizes_repeat_exactly(self, calibration):
        """The hard-gated quantities are run-to-run stable."""
        first = run_family(
            FAMILIES["e2"], [6], repeats=1, calibration=calibration
        )
        second = run_family(
            FAMILIES["e2"], [6], repeats=1, calibration=calibration
        )
        for a, b in zip(first["results"], second["results"]):
            assert a["counters"] == b["counters"]
            assert a["max_relation_size"] == b["max_relation_size"]
            assert a["answers"] == b["answers"]


class TestDigest:
    def test_strategies_agree_on_the_answer_digest(self, e2_report):
        by_n = {}
        for cell in e2_report["results"]:
            by_n.setdefault(cell["n"], set()).add(cell["answers_sha"])
        assert all(len(digests) == 1 for digests in by_n.values())
        assert len({min(d) for d in by_n.values()}) == len(by_n)

    def test_digest_is_taken_outside_the_timed_region(
        self, calibration, fake_clock, monkeypatch
    ):
        """Sorting and hashing the answer set must not move
        ``median_s``: on the fixed-tick clock a timed repeat lasts one
        tick however long a ``_digest`` that reads the clock takes."""
        real_digest = harness._digest
        slow_calls = []

        def slow_digest(answers):
            slow_calls.append(fake_clock())  # a "slow" sort: 1 tick
            return real_digest(answers)

        monkeypatch.setattr(harness, "_digest", slow_digest)
        report = run_family(
            FAMILIES["e2"], [4], repeats=3, calibration=calibration
        )
        assert len(slow_calls) == len(report["results"])  # warmup only
        for cell in report["results"]:
            assert cell["median_s"] == pytest.approx(fake_clock.TICK_S)


class TestIncrementalWriteFamily:
    """The maintenance cells through the real harness."""

    @pytest.fixture(scope="class")
    def iw_report(self, calibration):
        return run_family(
            FAMILIES["incremental-write"], [6], repeats=2,
            calibration=calibration,
        )

    def test_both_strategies_complete(self, iw_report):
        cells = {c["strategy"]: c for c in iw_report["results"]}
        assert set(cells) == {"incremental", "fromscratch", "build"}
        for cell in cells.values():
            assert cell["outcome"] == "ok"
            assert cell["median_s"] > 0

    def test_answers_agree_across_strategies(self, iw_report):
        """The in-report delta oracle: repairs count the same answers
        after every write as a from-scratch recomputation."""
        cells = {c["strategy"]: c for c in iw_report["results"]}
        answers = cells["incremental"]["answers"]
        assert answers == cells["fromscratch"]["answers"]
        assert answers > 0

    def test_counters_stay_deterministic_zeros(self, iw_report):
        # Both runners bypass the tracer, so the hard counter gate
        # compares exact zeros instead of machine-dependent noise.
        for cell in iw_report["results"]:
            assert all(v == 0 for v in cell["counters"].values())
            assert cell["max_relation_size"] == 0

    def test_balanced_stream_restores_the_database(self):
        family = FAMILIES["incremental-write"]
        workload = family.build(6)
        before = workload.db.fingerprint()
        report = run_family(
            family, [6], repeats=1, calibration=calibrate(repeats=1)
        )
        assert report["results"][0]["outcome"] == "ok"
        assert family.build(6).db.fingerprint() == before


class TestSkewedJoinFamily:
    """The join-order cells through the real harness."""

    @pytest.fixture(scope="class")
    def sj_report(self, calibration):
        return run_family(
            FAMILIES["skewed-join"], [8], repeats=2,
            calibration=calibration,
        )

    def test_all_orders_complete_with_identical_digests(self, sj_report):
        cells = {c["strategy"]: c for c in sj_report["results"]}
        assert set(cells) == {
            "order-greedy", "order-left_to_right", "order-cost",
        }
        digests = set()
        for cell in cells.values():
            assert cell["outcome"] == "ok"
            assert cell["answers"] > 0
            digests.add(cell["answers_sha"])
        assert len(digests) == 1

    def test_cost_strictly_reduces_fanout(self, sj_report):
        cells = {c["strategy"]: c for c in sj_report["results"]}
        assert (cells["order-cost"]["counters"]["bindings_out"]
                < cells["order-greedy"]["counters"]["bindings_out"])


@pytest.mark.bench
class TestSectionFourSeparations:
    """Opt-in (``pytest -m bench``): the paper's growth separations."""

    def test_e2_separable_linear_magic_quadratic(self):
        report = run_family(FAMILIES["e2"], [8, 16, 32], repeats=1)
        fits = {
            (f["strategy"], f["metric"]): f for f in report["fits"]
        }
        sep = fits[("separable", "max_relation_size")]
        magic = fits[("magic", "max_relation_size")]
        assert sep["classification"] == "linear", sep
        assert magic["classification"] == "quadratic", magic

    def test_e1_counting_superpolynomial(self):
        report = run_family(FAMILIES["e1"], [8, 16, 32], repeats=1)
        fits = {
            (f["strategy"], f["metric"]): f for f in report["fits"]
        }
        counting = fits[("counting", "max_relation_size")]
        assert counting["classification"] == "superpolynomial", counting
        sep = fits[("separable", "max_relation_size")]
        assert sep["classification"] == "linear", sep
