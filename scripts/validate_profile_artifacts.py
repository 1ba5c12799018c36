#!/usr/bin/env python
"""CI smoke check for the profiler artifact chain.

Profiles the Example 1.2 query through the public CLI, then validates
every artifact the observability pipeline promises:

1. the chrome-trace JSON parses and its B/E events are balanced;
2. the JSONL trace file replays into a tracer whose exporter output is
   byte-identical to the live trace's;
3. the deterministic (``--no-timings``) text report is stable across
   two runs, and its ``-- plan --`` section shows the generated source
   of the carry loops that ran (a ``while carry:`` line) -- for
   Example 1.2 with the innermost level of both loops in the projected
   form, ``produced |= c1``, not a per-fact comprehension;
4. a partial selection (Example 2.4) runs its Lemma 2.1 union as one
   grouped fixpoint, a carry and a seen per seed: the report prints the
   one-seed plan, its loops' per-seed text, and the number of
   ``separable.loop`` spans does not grow with the seeds;
5. ``--strategy magic`` and ``--strategy seminaive`` print, under
   ``-- plan --``, the generated semi-naive loop of every stratum they
   evaluated, and no text that plans per round (``plan_for``).

``http-smoke`` mode instead drives a live ``repro-datalog serve
--http-port`` process and curls ``/metrics``, ``/healthz`` and
``/slowlog`` off its ephemeral port, checking each recorded request's
record as the trace it holds: it loads with ``Tracer.from_dict``, passes
``trace_violations`` and has no open span.

Exit status 0 on success; any failure raises.

Usage: python scripts/validate_profile_artifacts.py [program.dl] [query]
       python scripts/validate_profile_artifacts.py http-smoke
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PROGRAM = REPO / "examples" / "example_1_2.dl"
PARTIAL_PROGRAM = (REPO / "tests" / "differential" / "corpus"
                   / "example-2-4-partial-selection.dl")


def run_cli(*args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    if result.returncode != 0:
        raise SystemExit(
            f"repro {' '.join(args)} failed ({result.returncode}):\n"
            f"{result.stderr}"
        )
    return result.stdout


def check_balanced(events: list[dict]) -> None:
    stack: list[str] = []
    for event in events:
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            assert stack, f"E event for {event['name']} with no open B"
            opened = stack.pop()
            assert opened == event["name"], (
                f"mismatched close: B {opened} vs E {event['name']}"
            )
    assert not stack, f"unclosed B events: {stack}"


def main(argv: list[str]) -> int:
    program = argv[1] if len(argv) > 1 else str(DEFAULT_PROGRAM)
    query = argv[2] if len(argv) > 2 else None
    base = [program] + ([query] if query else [])
    workdir = Path(tempfile.mkdtemp(prefix="repro-profile-smoke-"))

    # 1. chrome trace parses and is balanced.
    trace_path = workdir / "smoke.trace.json"
    events_path = workdir / "smoke.jsonl"
    run_cli(
        "profile", *base, "--format", "chrome-trace",
        "--out", str(trace_path), "--events", str(events_path),
    )
    chrome = json.loads(trace_path.read_text())
    assert chrome["traceEvents"], "empty traceEvents"
    check_balanced(chrome["traceEvents"])
    print(f"chrome trace ok: {len(chrome['traceEvents'])} events, "
          f"B/E balanced")

    # 2. the JSONL trace file replays byte-identically.
    sys.path.insert(0, str(REPO / "src"))
    from repro.observability import (  # noqa: E402
        read_events,
        replay_file,
        to_chrome_trace,
        to_metrics_text,
    )

    events = read_events(events_path)
    assert events[0]["type"] == "trace_start"
    replayed = replay_file(events_path)
    replayed_chrome = json.dumps(to_chrome_trace(replayed),
                                 sort_keys=True)
    live_chrome = json.dumps(chrome, sort_keys=True)
    assert replayed_chrome == live_chrome, (
        "replayed chrome trace differs from the live export"
    )
    assert to_metrics_text(replayed)
    print(f"trace file ok: {len(events)} records replay byte-identically")

    # 3. the untimed text report is deterministic.
    first = run_cli("profile", *base, "--no-timings")
    second = run_cli("profile", *base, "--no-timings")
    assert first == second, "untimed profile report is not deterministic"
    assert first.startswith("EXPLAIN ANALYZE"), first[:80]
    plan_section = first.split("-- plan --", 1)[1].split("\n-- ", 1)[0]
    assert any(line.strip() == "while carry:"
               for line in plan_section.splitlines()), (
        "the plan section does not show a generated carry loop:\n"
        + plan_section
    )
    if program == str(DEFAULT_PROGRAM):
        check_projected_innermost(plan_section)
    print("text report ok: deterministic EXPLAIN ANALYZE output, "
          "generated loop source shown")

    # 4. a partial selection is one batched fixpoint.
    check_batched_union()

    # 5. the opponents run generated loops too.
    check_stratum_loops(base)
    return 0


def check_projected_innermost(plan_section: str) -> None:
    """Example 1.2's down and up loops each probe one fixed relation for
    the output column: the reported source must union the projected
    bucket.  A change that silently falls back to the comprehension
    fails here, not only on a benchmark.  (The exit join, which scans
    ``perfectFor``, is listed after the down loop and is not looked
    at.)"""
    loops, title = [], ""
    for line in plan_section.splitlines():
        if line.endswith(" flavour)"):  # "  down loop (traced flavour)"
            title = line.strip()
        elif title.startswith(("down loop ", "up loop ")):
            loops.append(line)
    unions = [line.strip() for line in loops
              if "produced.update(" in line or "produced |= " in line]
    assert unions == ["produced |= c1"] * 2, (
        "the carry loops do not union a projected bucket at their "
        "innermost level:\n" + "\n".join(unions)
    )
    probes = [line for line in loops if " q=[" in line]
    assert len(probes) == 2 and all(" -> " in line for line in probes), (
        "the loops' probes are not reported as projected:\n"
        + "\n".join(probes)
    )


def check_stratum_loops(base: list) -> None:
    """``profile --strategy magic|seminaive`` evaluates strata: its plan
    section must show each stratum's generated semi-naive loop -- plans
    and probes bound at loop entry -- and no per-round ``plan_for``."""
    for strategy in ("magic", "seminaive"):
        report = run_cli("profile", *base, "--strategy", strategy,
                         "--no-timings")
        plan_section = report.split("-- plan --", 1)[1].split("\n-- ", 1)[0]
        lines = [line.strip() for line in plan_section.splitlines()]
        assert any(line.startswith("stratum ") for line in lines) and any(
            line.startswith("while carry") for line in lines), (
            f"--strategy {strategy}: the plan section shows no generated "
            f"semi-naive loop:\n" + plan_section
        )
        assert "plan_for" not in plan_section, plan_section
    print("stratum loops ok: magic and seminaive show their generated loops")


def check_batched_union() -> None:
    """Example 2.4's ``t(c, Y, Z)?``: the report shows the one-seed
    plan run as one grouped fixpoint -- its loops run their terms once
    per seed -- and the loop spans do not depend on the number of seeds:
    ``t_part`` is an exit and an up loop, the whole ``t_full`` union a
    down loop, an exit and an up loop."""
    report = run_cli("profile", str(PARTIAL_PROGRAM), "--no-timings")
    plan_section = report.split("-- plan --", 1)[1].split("\n-- ", 1)[0]
    assert "one grouped fixpoint" in plan_section and \
        "for seed, carry in batch.items():" in plan_section, (
            "the plan section does not show the grouped batch:\n"
            + plan_section)
    loops = sum(line.startswith("separable.loop ")
                for line in report.splitlines())
    assert 1 <= loops <= 4, f"{loops} separable.loop spans, expected <= 4"
    print(f"batched union ok: grouped batch shown, {loops} loop spans")


def http_smoke() -> int:
    """Drive ``serve --http-port 0`` and curl every telemetry endpoint."""
    import urllib.request

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            str(DEFAULT_PROGRAM),
            "--workers", "2", "--repeat", "4",
            "--trace-sample", "0.5", "--slow-threshold", "0",
            "--http-port", "0", "--linger", "30",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
    )
    try:
        url = None
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith("telemetry listening on "):
                url = line.split()[-1]
                break
        assert url, "serve never announced its telemetry port"

        def get(path: str):
            with urllib.request.urlopen(url + path, timeout=10) as resp:
                return resp.status, resp.read().decode("utf-8")

        status, body = get("/healthz")
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok", health
        print(f"healthz ok: {body.strip()}")

        status, body = get("/metrics")
        assert status == 200
        for pinned in (
            "repro_service_requests_total",
            "repro_service_latency_seconds_count",
            "repro_service_memo_hit_ratio",
            "repro_service_plan_cache_entries",
        ):
            assert pinned in body, f"{pinned} missing from /metrics"
        print(f"metrics ok: {len(body.splitlines())} exposition lines")

        status, body = get("/slowlog?n=8")
        records = json.loads(body)
        assert status == 200 and records, "no recorded requests"
        sys.path.insert(0, str(REPO / "src"))
        from repro.observability import Tracer, trace_violations  # noqa: E402

        for record in records:
            tracer = Tracer.from_dict(record["trace"])
            problems = trace_violations(tracer)
            assert not problems, f"{record['trace_id']}: {problems}"
            assert tracer.all_closed(), f"{record['trace_id']}: open span"
        print(f"slowlog ok: {len(records)} records load as traces and "
              f"pass trace_violations")
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "http-smoke":
        raise SystemExit(http_smoke())
    raise SystemExit(main(sys.argv))
