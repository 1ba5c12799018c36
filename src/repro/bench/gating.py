"""Regression gating: diff a fresh bench run against a committed baseline.

Two classes of gate, matching what is and is not deterministic:

* **hard findings** -- outcome, answer count, ``max_relation_size``,
  and tracer counters.  These depend only on the code and the (seeded)
  workloads, never on the machine, so any drift is a real behavioural
  change; the default tolerance is exact equality.  A relative
  ``counter_tolerance`` can loosen this for callers who expect small
  churn (e.g. reviewing a join-heuristic change).
* **time findings** -- the *normalized* (calibrated) wall-clock ratio
  must stay under ``time_tolerance``.  Cells whose baseline median is
  below ``min_time_s`` are skipped: timer noise dominates there and a
  2x blowup of 40 microseconds is not a regression.  A skipped cell is
  reported as loudly as a checked one: it yields a ``skipped`` finding
  (:attr:`Finding.regression` is false) and ``bench --check`` prints
  the gated-vs-skipped tally.

Any regression fails the check (exit code 1 from ``bench --check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Finding",
    "backend_findings",
    "compare_reports",
    "maintenance_findings",
    "parallel_findings",
    "plan_growth_findings",
    "skew_findings",
    "MAX_REPLANS_PER_FIXPOINT",
    "DEFAULT_TIME_TOLERANCE",
    "DEFAULT_MIN_TIME_S",
    "PARALLEL_MIN_SPEEDUP",
    "PARALLEL_SPEEDUP_WORKERS",
    "PARALLEL_REQUIRED_CPUS",
    "PARALLEL_SPEEDUP_MIN_S",
    "BACKEND_OVERHEAD_TOLERANCE",
    "BACKEND_OVERHEAD_MIN_S",
]

DEFAULT_TIME_TOLERANCE = 1.6
DEFAULT_MIN_TIME_S = 1e-3

#: The speedup the parallel-scaling family must show ...
PARALLEL_MIN_SPEEDUP = 1.5
#: ... at this worker count ...
PARALLEL_SPEEDUP_WORKERS = 4
#: ... but only on machines with at least this many CPUs (a process
#: pool cannot beat serial on a single core, and pretending otherwise
#: would make the gate a permanent lie on small CI runners).
PARALLEL_REQUIRED_CPUS = 4
#: Serial medians below this are too noisy to anchor a speedup claim.
PARALLEL_SPEEDUP_MIN_S = 0.05

#: Mounting the explicit memory backend may cost at most this factor
#: over the no-backend reference cell (``out-of-core`` family) -- the
#: "backend selection is free" contract, with enough slack that timer
#: noise on a loaded CI runner does not fail it.
BACKEND_OVERHEAD_TOLERANCE = 1.5
#: Reference medians below this are too noisy to anchor the overhead
#: claim (a few tenths of a millisecond of jitter would dominate).
BACKEND_OVERHEAD_MIN_S = 0.005

#: The adaptive order may re-plan at most this many times per fixpoint
#: (mirrors ``repro.datalog.planner.MAX_REPLANS``); the gate reads the
#: per-cell counter, which covers one query evaluation.
MAX_REPLANS_PER_FIXPOINT = 2


@dataclass(frozen=True)
class Finding:
    """One regression detected between a baseline and a current run."""

    family: str
    strategy: str
    n: Optional[int]
    # schema | missing | outcome | answers | size | counter | time |
    # plan | maintenance | parallel | backend | skipped
    kind: str
    message: str

    @property
    def regression(self) -> bool:
        """False for a ``skipped`` finding: a gate that could not be
        applied (and says why) rather than one that failed."""
        return self.kind != "skipped"

    def __str__(self) -> str:
        where = (
            f"{self.family}/{self.strategy}"
            + (f" n={self.n}" if self.n is not None else "")
        )
        return f"[{self.kind}] {where}: {self.message}"


def _cells_by_key(report: dict) -> dict[tuple[str, int], dict]:
    return {
        (c["strategy"], c["n"]): c for c in report.get("results", [])
    }


def compare_reports(
    baseline: dict,
    current: dict,
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
    counter_tolerance: float = 0.0,
    min_time_s: float = DEFAULT_MIN_TIME_S,
    time_gated: Optional[list] = None,
) -> list[Finding]:
    """All regressions of ``current`` relative to ``baseline``.

    Only baseline (strategy, n) cells whose size the current run swept
    (``current["sizes"]``) are compared, so a reduced-n smoke check
    against a full baseline works; a cell the current run should have
    produced but did not is a finding.  Extra cells in the current run
    (a wider sweep) are ignored.  The gate passes when no finding is a
    :attr:`~Finding.regression`; a time cell under the noise floor is
    returned as a ``skipped`` finding, and the (strategy, n) of every
    cell whose time *was* held to the tolerance is appended to
    ``time_gated`` when the caller passes a list.
    """
    family = baseline.get("family", "?")
    findings: list[Finding] = []

    if baseline.get("schema") != current.get("schema"):
        findings.append(
            Finding(
                family, "-", None, "schema",
                f"baseline schema {baseline.get('schema')!r} != current "
                f"{current.get('schema')!r}; regenerate the baseline",
            )
        )
        return findings

    current_cells = _cells_by_key(current)
    swept = set(current.get("sizes", []))
    for key, base in _cells_by_key(baseline).items():
        strategy, n = key
        if n not in swept:
            continue
        cur = current_cells.get(key)
        if cur is None:
            findings.append(
                Finding(
                    family, strategy, n, "missing",
                    "cell present in baseline but not in current run "
                    "(sweep too narrow?)",
                )
            )
            continue
        if base["outcome"] != cur["outcome"]:
            findings.append(
                Finding(
                    family, strategy, n, "outcome",
                    f"outcome changed: {base['outcome']} -> "
                    f"{cur['outcome']}",
                )
            )
            continue  # downstream measures are incomparable
        if base.get("answers") != cur.get("answers"):
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"answer count changed: {base.get('answers')} -> "
                    f"{cur.get('answers')} (correctness!)",
                )
            )
        if base.get("max_relation_size") != cur.get("max_relation_size"):
            findings.append(
                Finding(
                    family, strategy, n, "size",
                    f"max_relation_size changed: "
                    f"{base.get('max_relation_size')} -> "
                    f"{cur.get('max_relation_size')}",
                )
            )
        findings.extend(
            _counter_findings(
                family, strategy, n, base, cur, counter_tolerance
            )
        )
        gated, time_finding = _time_finding(
            family, strategy, n, base, cur, time_tolerance, min_time_s
        )
        if gated and time_gated is not None:
            time_gated.append(key)
        if time_finding is not None:
            findings.append(time_finding)
    findings.extend(plan_growth_findings(current))
    findings.extend(maintenance_findings(current, min_time_s=min_time_s))
    findings.extend(parallel_findings(current))
    findings.extend(skew_findings(current, min_time_s=min_time_s))
    findings.extend(backend_findings(current))
    return findings


def backend_findings(
    report: dict,
    overhead_tolerance: float = BACKEND_OVERHEAD_TOLERANCE,
    min_reference_s: float = BACKEND_OVERHEAD_MIN_S,
) -> list[Finding]:
    """Gates for the ``out-of-core`` family's storage-backend sweep.

    **Correctness (always):** every ``backend-*`` cell must count the
    same answers as the same-size ``backend-none`` reference cell *and*
    match its ``answers_sha`` -- the byte-identical-answers contract of
    the storage protocol, checked for SQLite's SQL-driven lookups as
    much as for the memory dispatch.

    **Zero-overhead selection (time-floored):** the ``backend-memory``
    cell -- the same evaluation with every derived relation routed
    through the explicit backend dispatch -- must stay within
    ``overhead_tolerance`` of the reference median at sizes whose
    reference clears ``min_reference_s``.  Below the floor the
    wall-clock half is waived (timer noise), but the identity gates
    above still apply.  ``backend-sqlite`` has no time gate: paying
    per-probe SQL cost to keep facts out of process memory is the
    point, not a regression.

    Checked against the *current* run alone, like the parallel and
    skew gates: all backend cells are timed in the same process on the
    same machine.  Reports without ``backend-*`` cells produce no
    findings.
    """
    family = report.get("family", "?")
    cells = _cells_by_key(report)
    findings: list[Finding] = []
    for (strategy, n), cell in sorted(cells.items()):
        if (not strategy.startswith("backend-")
                or strategy == "backend-none"):
            continue
        ref = cells.get(("backend-none", n))
        if (ref is None or cell["outcome"] != "ok"
                or ref["outcome"] != "ok"):
            continue
        if cell.get("answers") != ref.get("answers"):
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"{strategy} counted {cell.get('answers')} answers, "
                    f"backend-none {ref.get('answers')} (correctness!)",
                )
            )
        sha_b = cell.get("answers_sha")
        sha_r = ref.get("answers_sha")
        if sha_b is not None and sha_r is not None and sha_b != sha_r:
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"answer digest diverged from backend-none "
                    f"({sha_r[:12]} -> {sha_b[:12]}): same count, "
                    f"different tuples (correctness!)",
                )
            )
        if strategy != "backend-memory":
            continue
        mem_s, ref_s = cell.get("median_s"), ref.get("median_s")
        if mem_s is None or ref_s is None or ref_s < min_reference_s:
            continue
        ratio = mem_s / ref_s
        if ratio > overhead_tolerance:
            findings.append(
                Finding(
                    family, strategy, n, "backend",
                    f"memory-backend dispatch costs {ratio:.2f}x the "
                    f"no-backend reference (ref "
                    f"{ref_s * 1e3:.2f}ms, backend "
                    f"{mem_s * 1e3:.2f}ms); selection must be free",
                )
            )
    return findings


def parallel_findings(
    report: dict,
    min_speedup: float = PARALLEL_MIN_SPEEDUP,
    speedup_workers: int = PARALLEL_SPEEDUP_WORKERS,
    required_cpus: int = PARALLEL_REQUIRED_CPUS,
    min_serial_s: float = PARALLEL_SPEEDUP_MIN_S,
) -> list[Finding]:
    """Gates for the ``parallel-scaling`` family's current run.

    **Correctness (always):** every ``parallel-N`` cell must count the
    same answers as the same-size ``serial`` cell *and* match its
    ``answers_sha`` -- a digest of the sorted answer set, so the
    byte-identical-answers contract is checked, not just cardinality.

    **Zero-overhead default (always):** the untraced timed repeats of a
    ``parallel-N`` cell must ship no trace fragments
    (``untraced_fragments == 0``).  A worker that builds and pickles a
    span tree nobody asked for silently taxes every parallel
    evaluation; the harness reads ``executor.fragments_received``
    around the repeats to catch exactly that.  Cells recorded before
    the key existed are skipped.

    **Speedup (hardware-gated):** on machines reporting at least
    ``required_cpus`` CPUs, the ``parallel-{speedup_workers}`` cell at
    the largest size whose serial median clears ``min_serial_s`` must
    run at least ``min_speedup`` times faster than serial.  On smaller
    machines (e.g. a 1-CPU container) the speedup gate is skipped:
    physics, not tolerance -- the correctness gates still apply, and
    the committed report records the ``cpu_count`` it was measured on.

    Checked against the *current* run alone, like the maintenance
    gate: serial and parallel cells are timed in the same process on
    the same machine, so no calibration is involved.
    """
    family = report.get("family", "?")
    cells = _cells_by_key(report)
    findings: list[Finding] = []
    for (strategy, n), cell in sorted(cells.items()):
        if not strategy.startswith("parallel-"):
            continue
        serial = cells.get(("serial", n))
        if (serial is None or cell["outcome"] != "ok"
                or serial["outcome"] != "ok"):
            continue
        if cell.get("answers") != serial.get("answers"):
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"parallel counted {cell.get('answers')} answers, "
                    f"serial {serial.get('answers')} (correctness!)",
                )
            )
        sha_p = cell.get("answers_sha")
        sha_s = serial.get("answers_sha")
        if sha_p is not None and sha_s is not None and sha_p != sha_s:
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"answer digest diverged from serial "
                    f"({sha_s[:12]} -> {sha_p[:12]}): same count, "
                    f"different tuples (correctness!)",
                )
            )
        leaked = cell.get("untraced_fragments")
        if leaked:
            findings.append(
                Finding(
                    family, strategy, n, "parallel",
                    f"untraced timed repeats shipped {leaked} trace "
                    f"fragment(s); tracer=None must ship none "
                    f"(zero-overhead default)",
                )
            )

    cpus = (report.get("machine") or {}).get("cpu_count") or 0
    if cpus < required_cpus:
        return findings
    eligible: list[tuple[int, float, float]] = []
    for (strategy, n), cell in cells.items():
        if strategy != f"parallel-{speedup_workers}":
            continue
        serial = cells.get(("serial", n))
        if (serial is None or cell["outcome"] != "ok"
                or serial["outcome"] != "ok"):
            continue
        serial_s = serial.get("median_s")
        par_s = cell.get("median_s")
        if serial_s is None or par_s is None or serial_s < min_serial_s:
            continue
        eligible.append((n, serial_s, par_s))
    if eligible:
        n, serial_s, par_s = max(eligible)
        speedup = serial_s / par_s if par_s > 0 else float("inf")
        if speedup < min_speedup:
            findings.append(
                Finding(
                    family, f"parallel-{speedup_workers}", n, "parallel",
                    f"speedup {speedup:.2f}x at {speedup_workers} workers "
                    f"is below the required {min_speedup:g}x (serial "
                    f"{serial_s * 1e3:.1f}ms, parallel "
                    f"{par_s * 1e3:.1f}ms, {cpus} CPUs)",
                )
            )
    return findings


def skew_findings(
    report: dict,
    min_time_s: float = DEFAULT_MIN_TIME_S,
    max_replans: int = MAX_REPLANS_PER_FIXPOINT,
) -> list[Finding]:
    """Gates for the ``skewed-join`` family's join-order sweep.

    **Correctness (always):** every ``order-*`` cell must count the
    same answers as the same-size ``order-greedy`` cell *and* match its
    ``answers_sha`` -- the four orders permute the same joins, so the
    answer sets must be byte-identical, not just equinumerous.

    **Replan bound (always):** an ``order-adaptive`` cell may record at
    most ``max_replans`` ``plan_replans`` -- the bounded-feedback
    contract that keeps re-planning from thrashing a fixpoint.

    **Cost must win (always on fanout, time-floored on wall clock):**
    at least one size where both cells are ``ok`` must have the
    ``order-cost`` cell strictly below ``order-greedy`` on
    ``bindings_out`` (the join-fanout counter: rows emitted by join
    kernels), and -- among sizes whose greedy median clears
    ``min_time_s`` -- at least one where cost's median wall time is
    also strictly lower.  Sizes below the floor waive only the
    wall-clock half, matching the maintenance gate's noise floor.

    Checked against the *current* run alone, like the parallel gate:
    all order cells are timed in the same process on the same machine.
    Reports without ``order-*`` cells (every other family) produce no
    findings.
    """
    family = report.get("family", "?")
    cells = _cells_by_key(report)
    findings: list[Finding] = []
    fanout_wins = 0
    time_wins = 0
    timed_pairs = 0
    compared = 0
    for (strategy, n), cell in sorted(cells.items()):
        if not strategy.startswith("order-"):
            continue
        if strategy == "order-adaptive" and cell["outcome"] == "ok":
            replans = (cell.get("counters") or {}).get("plan_replans", 0)
            if replans > max_replans:
                findings.append(
                    Finding(
                        family, strategy, n, "plan",
                        f"adaptive re-planned {replans} times in one "
                        f"fixpoint; bound is {max_replans}",
                    )
                )
        if strategy == "order-greedy":
            continue
        greedy = cells.get(("order-greedy", n))
        if (greedy is None or cell["outcome"] != "ok"
                or greedy["outcome"] != "ok"):
            continue
        if cell.get("answers") != greedy.get("answers"):
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"{strategy} counted {cell.get('answers')} answers, "
                    f"order-greedy {greedy.get('answers')} "
                    f"(correctness!)",
                )
            )
        sha_o = cell.get("answers_sha")
        sha_g = greedy.get("answers_sha")
        if sha_o is not None and sha_g is not None and sha_o != sha_g:
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"answer digest diverged from order-greedy "
                    f"({sha_g[:12]} -> {sha_o[:12]}): same count, "
                    f"different tuples (correctness!)",
                )
            )
        if strategy != "order-cost":
            continue
        compared += 1
        cost_fanout = (cell.get("counters") or {}).get("bindings_out")
        greedy_fanout = (greedy.get("counters") or {}).get("bindings_out")
        if (cost_fanout is not None and greedy_fanout is not None
                and cost_fanout < greedy_fanout):
            fanout_wins += 1
        cost_s, greedy_s = cell.get("median_s"), greedy.get("median_s")
        if cost_s is None or greedy_s is None or greedy_s < min_time_s:
            continue
        timed_pairs += 1
        if cost_s < greedy_s:
            time_wins += 1
    if compared and not fanout_wins:
        findings.append(
            Finding(
                family, "order-cost", None, "plan",
                f"cost order never beat greedy on bindings_out across "
                f"{compared} comparable size(s); the cost model is not "
                f"reducing join fanout",
            )
        )
    if timed_pairs and not time_wins:
        findings.append(
            Finding(
                family, "order-cost", None, "plan",
                f"cost order never beat greedy on median wall time "
                f"across {timed_pairs} size(s) above the "
                f"{min_time_s * 1e3:g}ms floor",
            )
        )
    return findings


def maintenance_findings(
    report: dict, min_time_s: float = DEFAULT_MIN_TIME_S
) -> list[Finding]:
    """Hard gate: incremental maintenance must beat recomputation.

    For every size where a report carries both maintenance
    pseudo-strategies (the ``incremental-write`` family), the
    ``incremental`` median must be strictly below the ``fromscratch``
    median, and both must count the same answers over the replayed
    mutation stream -- the correctness cross-check that makes the speed
    number meaningful.  Checked against the *current* run alone: both
    cells are timed in the same process on the same machine, so no
    calibration or baseline is involved.  Sizes whose from-scratch
    median sits under ``min_time_s`` are skipped as noise, matching the
    time gate's floor.
    """
    family = report.get("family", "?")
    cells = _cells_by_key(report)
    findings: list[Finding] = []
    for (strategy, n), inc in sorted(cells.items()):
        if strategy != "incremental":
            continue
        fs = cells.get(("fromscratch", n))
        if fs is None or inc["outcome"] != "ok" or fs["outcome"] != "ok":
            continue
        if inc.get("answers") != fs.get("answers"):
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"incremental counted {inc.get('answers')} answers "
                    f"over the mutation stream, from-scratch "
                    f"{fs.get('answers')} (correctness!)",
                )
            )
        inc_s, fs_s = inc.get("median_s"), fs.get("median_s")
        if inc_s is None or fs_s is None or fs_s < min_time_s:
            continue
        if inc_s >= fs_s:
            findings.append(
                Finding(
                    family, strategy, n, "maintenance",
                    f"incremental median {inc_s * 1e3:.2f}ms is not "
                    f"below from-scratch {fs_s * 1e3:.2f}ms; repairs "
                    f"must beat recomputation",
                )
            )
    return findings


def plan_growth_findings(report: dict) -> list[Finding]:
    """Hard gate: join-plan compiles must not grow with database size.

    Plans are compiled per (rule body, binding signature, size rank) --
    never per tuple -- so within one strategy the ``plan_compiles``
    counter must be identical at every ``ok`` size of the sweep.  A
    counter that rises with ``n`` means some hot path is compiling per
    datum (a plan-cache key leaking data into itself), which silently
    re-introduces the per-call planning cost the cache exists to
    remove.  Checked against the *current* run alone; cells recorded
    before the counter existed (no ``plan_compiles`` key) are skipped.
    """
    family = report.get("family", "?")
    findings: list[Finding] = []
    per_strategy: dict[str, list[tuple[int, int]]] = {}
    for cell in report.get("results", []):
        if cell.get("outcome") != "ok":
            continue
        counters = cell.get("counters") or {}
        if "plan_compiles" not in counters:
            continue
        per_strategy.setdefault(cell["strategy"], []).append(
            (cell["n"], counters["plan_compiles"])
        )
    for strategy, points in sorted(per_strategy.items()):
        points.sort()
        values = {compiles for _, compiles in points}
        if len(values) > 1:
            shown = " ".join(f"n={n}:{c}" for n, c in points)
            findings.append(
                Finding(
                    family, strategy, None, "plan",
                    f"plan_compiles grows with database size ({shown}); "
                    f"plans must be size-independent",
                )
            )
    return findings


def _counter_findings(
    family: str,
    strategy: str,
    n: int,
    base: dict,
    cur: dict,
    tolerance: float,
) -> list[Finding]:
    findings: list[Finding] = []
    base_counters = base.get("counters") or {}
    cur_counters = cur.get("counters") or {}
    for name, base_value in sorted(base_counters.items()):
        cur_value = cur_counters.get(name, 0)
        allowed = tolerance * max(abs(base_value), 1)
        if abs(cur_value - base_value) > allowed:
            findings.append(
                Finding(
                    family, strategy, n, "counter",
                    f"counter {name} changed: {base_value} -> "
                    f"{cur_value} (tolerance {tolerance:g})",
                )
            )
    return findings


def _time_finding(
    family: str,
    strategy: str,
    n: int,
    base: dict,
    cur: dict,
    tolerance: float,
    min_time_s: float,
) -> tuple[bool, Optional[Finding]]:
    """``(gated, finding)``: whether the cell's time was held to
    ``tolerance``, and the ``time`` or ``skipped`` finding if any."""
    base_norm = base.get("normalized")
    cur_norm = cur.get("normalized")
    base_median = base.get("median_s")
    if base_norm is None or cur_norm is None or base_median is None:
        return False, None
    if base_median < min_time_s or base_norm <= 0:
        return False, Finding(
            family, strategy, n, "skipped",
            f"time not gated: baseline median {base_median * 1e3:.3f}ms "
            f"is below the {min_time_s * 1e3:g}ms noise floor",
        )
    ratio = cur_norm / base_norm
    if ratio > tolerance:
        return True, Finding(
            family, strategy, n, "time",
            f"normalized time ratio {ratio:.2f} exceeds tolerance "
            f"{tolerance:g} (baseline {base_norm:.3f} units, current "
            f"{cur_norm:.3f})",
        )
    return True, None
