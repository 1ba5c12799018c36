"""The ``repro-datalog bench`` subcommand end to end (in process).

Covers the write mode, the ``--check`` regression mode against a real
baseline (pass, injected-slowdown fail, nothing-gated fail, missing
baseline), and the argument-validation exits.  Sizes are tiny so the
whole module stays CI-cheap; every ``--check`` runs on the fixed-tick
clock, where each cell clears the gating noise floor on any machine.
"""

import json

import pytest

import repro.bench.harness as harness
from repro.cli import main

from .conftest import FakeClock


def _bench(tmp_path, *extra):
    return main(
        [
            "bench",
            "--families",
            "e2",
            "--sizes",
            "4,6",
            "--repeats",
            "2",
            "--out-dir",
            str(tmp_path),
            *extra,
        ]
    )


@pytest.fixture(scope="module")
def baseline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_CLOCK", FakeClock())
        assert _bench(out) == 0
    return out


class TestWriteMode:
    def test_writes_schema_valid_report(self, baseline_dir, capsys):
        path = baseline_dir / "BENCH_e2.json"
        assert path.is_file()
        report = json.loads(path.read_text())
        assert report["schema"] == "repro-bench/1"
        assert report["family"] == "e2"
        assert report["sizes"] == [4, 6]
        assert all(
            cell["outcome"] == "ok" for cell in report["results"]
        )

    def test_summary_goes_to_stdout(self, tmp_path, capsys):
        assert _bench(tmp_path) == 0
        out = capsys.readouterr().out
        assert "e2:" in out
        assert "separable" in out
        assert "magic" in out
        assert "wrote" in out


class TestCheckMode:
    def test_passes_against_own_baseline(
        self, baseline_dir, capsys, fake_clock
    ):
        code = _bench(
            baseline_dir, "--check", "--baseline-dir", str(baseline_dir)
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out.lower()

    def test_reduced_sizes_smoke_check_passes(
        self, baseline_dir, capsys, fake_clock
    ):
        """CI smoke mode: sweep a subset of the baseline's sizes."""
        code = main(
            [
                "bench",
                "--families",
                "e2",
                "--sizes",
                "6",
                "--repeats",
                "2",
                "--check",
                "--baseline-dir",
                str(baseline_dir),
            ]
        )
        assert code == 0

    def test_injected_slowdown_fails(
        self, tmp_path, capsys, monkeypatch, fake_clock
    ):
        # Baseline and check both run on the fake clock: every cell
        # lasts one tick (above the noise floor) on any machine, so all
        # four are time-gated and the 3x shim trips every one.
        assert _bench(tmp_path) == 0
        monkeypatch.setattr(harness, "_TEST_SLOWDOWN", 3.0)
        code = _bench(tmp_path, "--check", "--baseline-dir", str(tmp_path))
        assert code == 1
        out = capsys.readouterr().out
        # 4 time cells, magic-agrees-with-separable and separable's
        # plan_cache_hits bound at 2 sizes each, plan_compiles flat for
        # 2 strategies.
        assert "gates: 10 applied (4 baseline time cells), 0 skipped" in out
        assert "REGRESSIONS (4)" in out
        assert out.count("[time]") == 4

    def test_family_that_gated_no_time_cell_fails(
        self, tmp_path, capsys, monkeypatch, fake_clock
    ):
        # A baseline whose cells all sit under the floor gates nothing:
        # every cell says it was skipped, and the check fails instead of
        # passing a 3x slowdown silently.
        monkeypatch.setattr(fake_clock, "TICK_S", 1e-5)
        assert _bench(tmp_path) == 0
        monkeypatch.setattr(harness, "_TEST_SLOWDOWN", 3.0)
        code = _bench(tmp_path, "--check", "--baseline-dir", str(tmp_path))
        assert code == 1
        out = capsys.readouterr().out
        assert "gates: 6 applied (0 baseline time cells), 4 skipped" in out
        assert out.count("[skipped]") == 4
        assert "below the 1ms noise floor" in out
        assert "REGRESSIONS (1)" in out
        assert "[ungated] e2/-: none of the 4 compared time cell(s)" in out

    def test_check_mode_never_writes(
        self, baseline_dir, tmp_path, fake_clock
    ):
        code = _bench(
            tmp_path, "--check", "--baseline-dir", str(baseline_dir)
        )
        assert code == 0
        assert not list(tmp_path.iterdir())

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        code = _bench(
            tmp_path, "--check", "--baseline-dir", str(tmp_path)
        )
        assert code == 2
        assert "no baseline" in capsys.readouterr().err


class TestArgumentValidation:
    def test_unknown_family(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--families",
                "e99",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "unknown family" in capsys.readouterr().err

    def test_bad_sizes(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--families",
                "e2",
                "--sizes",
                "8,banana",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "--sizes" in capsys.readouterr().err

    def test_nonpositive_sizes(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--families",
                "e2",
                "--sizes",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "positive" in capsys.readouterr().err

