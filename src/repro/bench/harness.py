"""Calibrated wall-clock sweeps over the experiment families.

The harness turns one :class:`~repro.bench.families.Family` plus a size
sweep into a schema-versioned report (``BENCH_<family>.json``):

* every (cell, n) runs once with a recording
  :class:`~repro.observability.Tracer` (the *warmup*, which also
  discovers non-``ok`` outcomes -- a tripped budget, cyclic data, an
  inapplicable method -- and whose answer set is digested into
  ``answers_sha``) and then ``repeats`` times untraced for the median
  wall-clock time;
* times are *calibrated*: the report stores ``normalized`` =
  median seconds divided by the time of a fixed reference workload
  (a plain-Python transitive closure that runs none of the code under
  test) timed on the same machine beside the cell's own repetitions,
  so baselines compared across machines -- or across the speed drift
  of one shared machine -- mostly cancel the hardware difference; raw
  seconds are kept too;
* per-strategy growth exponents are fitted by least squares on
  ``log(value) ~ log(n)`` over the ``ok`` sizes, for the deterministic
  ``max_relation_size`` measure (Definition 4.2) and for the noisy
  median time, then bucketed into constant/linear/quadratic/cubic/
  superpolynomial -- the Section 4 separations as two numbers.

Counters and relation sizes are deterministic for a given codebase
(join orders depend only on relation sizes and bound counts, never on
set iteration order), which is what makes exact counter gating in
:mod:`repro.bench.gating` safe while wall-clock gates need tolerances.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from ..budget import Budget
from ..core.detection import analyze_recursion
from ..datalog.errors import (
    BudgetExceeded,
    CyclicDataError,
    EvaluationError,
    NotFullSelectionError,
    NotSeparableError,
)
from ..datalog.parser import parse_query
from ..engine import Engine
from ..observability import Tracer, to_chrome_trace, trace_violations
from ..stats import EvaluationStats
from .families import Cell, Family, Workload

__all__ = [
    "SCHEMA",
    "BENCH_BUDGET",
    "calibrate",
    "run_family",
    "write_report",
    "report_path",
    "fit_exponent",
    "classify_exponent",
    "machine_info",
    "git_sha",
    "summarize",
]

#: Version tag of the report layout; bump on incompatible changes.
SCHEMA = "repro-bench/1"

#: Default budget protecting the exponential baselines.
BENCH_BUDGET = Budget(max_relation_tuples=200_000)

#: Tracer counters copied into each report cell.
_COUNTER_NAMES = (
    "tuples_examined",
    "atom_lookups",
    "bindings_out",
    "index_builds",
    "index_tuples",
    "full_scans",
    "iterations",
    "plan_compiles",
    "plan_cache_hits",
    "plan_cache_misses",
)

#: Test hook: a factor > 1 multiplies every *unit* timing (never the
#: calibration run), simulating a uniform slowdown of the code under
#: test.  The regression-gate tests monkeypatch this to prove ``bench
#: --check`` fails on a real 3x slowdown; production runs never touch it.
_TEST_SLOWDOWN = 1.0

#: The clock behind every bench timing.  The gate tests swap in a fake
#: one with a fixed tick, so whether a cell clears the gate's noise
#: floor no longer depends on how fast the machine is.
_CLOCK = time.perf_counter

_CALIBRATION_N = 128


def machine_info() -> dict:
    """Hardware/interpreter facts stored alongside every report."""
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def git_sha() -> str:
    """The repository HEAD, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _calibration_kernel() -> int:
    """Semi-naive transitive closure of ``chain(_CALIBRATION_N)`` in
    plain Python: the tuple building, index probing and ``produced -
    seen`` the evaluators spend their time on, through none of their
    code."""
    succ = {i: (i + 1,) for i in range(_CALIBRATION_N)}
    closure: set = set()
    delta = {(i, i + 1) for i in range(_CALIBRATION_N)}
    while delta:
        closure |= delta
        produced = {(x, z) for x, y in delta for z in succ.get(y, ())}
        delta = produced - closure
    return len(closure)


def _unit_time() -> float:
    """One timed run of the calibration kernel.  The slowdown shim
    deliberately does not apply: a uniformly slower machine must cancel
    out of normalized times, while a slower *code path* must not."""
    start = _CLOCK()
    _calibration_kernel()
    return _CLOCK() - start


def calibrate(repeats: int = 5) -> dict:
    """Time the fixed reference workload; returns the calibration block
    of a report -- this machine's floor when the run started.  (Each
    cell is normalized by runs of the same kernel interleaved with its
    own repetitions, see :func:`_run_cell`.)

    The workload measures the *machine*, so it runs none of the code
    under test: a unit that went through the join kernels would shrink
    with every kernel speedup, and every cell that gained less would
    read as a regression.  It is heavy enough to dominate timer noise
    and costs a few milliseconds.  One discarded warmup run absorbs
    cache effects, and ``unit_s`` is the *minimum* of the repeats:
    timing noise (scheduler preemption, cache misses) is additive, so
    the minimum estimates the machine's floor.
    """
    _calibration_kernel()  # warmup, discarded
    times = [_unit_time() for _ in range(max(repeats, 1))]
    return {
        "workload": f"plain-python tc over chain({_CALIBRATION_N})",
        "unit_s": min(times),
        "repeats": len(times),
    }


def _make_runner(
    workload: Workload, cell: Cell, budget: Budget,
    mutations: Optional[list] = None,
) -> Callable[[Optional[Tracer]], tuple[object, EvaluationStats]]:
    """A zero-setup closure running one (workload, cell).

    Program/data construction, backend migration, the worker pool and,
    for query cells, plan and base-IDB caches live outside the timed
    region -- repeats measure steady-state evaluation, not parsing or
    load cost.  A query cell returns its answer set; the other kinds
    return an answer *count*.

    The maintenance kinds replay ``mutations`` -- a *balanced* op
    stream, so every run starts from the state the last one left --
    answering the workload query after each write.  ``"repair"``
    repairs a :class:`repro.maintenance.MaintainedView` built once
    outside the timed region; ``"recompute"`` re-derives the whole IDB
    with semi-naive evaluation per write.  Both count the same answers
    (the family's gate cross-checks them) and report empty stats:
    their counters are deterministically zero, so hard gating stays
    exact.  ``"build"`` times the view's construction alone and counts
    the derived facts it holds.
    """
    if cell.kind == "detect":
        predicate = parse_query(workload.query).predicate

        def run_detect(tracer: Optional[Tracer] = None):
            analyze_recursion(workload.program, predicate)
            return 0, EvaluationStats()

        return run_detect

    if cell.kind == "build":
        from ..maintenance import MaintainedView

        def run_build(tracer: Optional[Tracer] = None):
            view = MaintainedView(workload.program, workload.db)
            return (sum(view.db.size(p) for p in view.idb),
                    EvaluationStats())

        return run_build

    if cell.kind in ("repair", "recompute"):
        from ..datalog.seminaive import seminaive_evaluate
        from ..maintenance import MaintainedView

        query = parse_query(workload.query)
        ops = list(mutations or [])
        if cell.kind == "repair":
            view = MaintainedView(workload.program, workload.db)

            def write(op: str, name: str, fact: tuple):
                view.apply(
                    {name: ((fact,), ())} if op == "add"
                    else {name: ((), (fact,))}
                )
                return view.db
        else:
            def write(op: str, name: str, fact: tuple):
                if op == "add":
                    workload.db.add_fact(name, fact)
                else:
                    workload.db.remove_fact(name, fact)
                return seminaive_evaluate(workload.program, workload.db)

        def run_writes(tracer: Optional[Tracer] = None):
            total = 0
            for op in ops:
                total += sum(
                    1 for f in write(*op).tuples(query.predicate)
                    if query.matches(f)
                )
            return total, EvaluationStats()

        return run_writes

    db = workload.db
    if cell.backend == "memory":
        # ensure_backend would hand a plain in-memory database back
        # unchanged; the zero-overhead gate needs the explicit mount.
        from ..storage import MemoryBackend

        db = db.with_backend(MemoryBackend())
    elif cell.backend is not None:
        from ..storage import ensure_backend

        db = ensure_backend(db, cell.backend)
    engine = Engine(workload.program, db, budget=budget, order=cell.order)

    def run(tracer: Optional[Tracer] = None):
        stats = EvaluationStats()
        result = engine.query(
            workload.query, strategy=cell.strategy, stats=stats,
            tracer=tracer,
        )
        return result.answers, stats

    return run


def _digest(answers) -> str:
    """sha-256 over the sorted answer set: equal digests mean
    byte-identical answers, not just equal counts."""
    digest = hashlib.sha256()
    for fact in sorted(answers, key=repr):
        digest.update(repr(fact).encode())
    return digest.hexdigest()


def _timed(run: Callable) -> float:
    """One timed repetition, stretched by the test slowdown shim."""
    start = _CLOCK()
    run(None)
    return (_CLOCK() - start) * _TEST_SLOWDOWN


def _run_cell(
    family: Family,
    n: int,
    cell: Cell,
    budget: Budget,
    repeats: int,
    trace_dir: Optional[Path] = None,
    backend: Optional[str] = None,
) -> dict:
    """One (cell, n) of a report: traced warmup, then timed repeats.

    The calibration kernel runs before and after every repetition and
    the cell's ``unit_s`` is the median of those runs: a shared machine
    drifts by tens of percent within seconds, which a unit measured
    once per process cannot cancel, while adjacent measurements move
    together (measured on the dev container: an honest rerun's
    ``normalized`` spread 0.71-1.38x, p5-p95, against the per-process
    unit and 0.88-1.15x against the interleaved one).

    A query cell's ``answers_sha`` is taken from the warmup's answer
    set, so sorting and hashing stay out of the timed repeats.

    With a ``trace_dir``, the warmup run's trace is exported as a
    chrome-trace JSON next to the report and its path recorded under
    the cell's ``trace`` key (additive: gating ignores unknown keys,
    so existing baselines remain comparable).  ``backend`` (from
    ``bench --backend``) migrates the workload database onto a storage
    backend before the warmup, outside the timed region; a family
    whose cells pick their own backends ignores it.
    """
    workload = family.build(n)
    if backend is not None and not any(c.backend for c in family.cells):
        from ..storage import ensure_backend

        workload = Workload(
            workload.program,
            ensure_backend(workload.db, backend),
            workload.query,
        )
    mutations = family.mutations(n) if family.mutations else None
    run = _make_runner(workload, cell, budget, mutations=mutations)
    # A cold join-plan cache per cell: the traced warmup then reports
    # the full compile count for this (cell, n), making the
    # plan_compiles counter comparable across cells and runs -- the
    # plan_compiles-is-flat gate relies on this.
    from ..datalog.plan_cache import PLAN_CACHE

    PLAN_CACHE.clear()
    tracer = Tracer(context={
        "family": family.key, "strategy": cell.label, "n": n,
    })
    outcome = "ok"
    answers = None
    stats = EvaluationStats()
    try:
        answers, stats = run(tracer)
    except BudgetExceeded as exc:
        outcome, stats = "budget", exc.stats or stats
    except CyclicDataError as exc:
        outcome, stats = "cyclic", exc.stats or stats
    except (NotSeparableError, NotFullSelectionError) as exc:
        outcome = "n/a"
    except EvaluationError:
        # CountingNotApplicable, StablePushNotApplicable, ... -- every
        # "method does not apply here" verdict, by construction raised
        # before real work starts.
        outcome = "n/a"

    # A query cell that finished returned its answer set; the other
    # kinds return a count.
    digest = None
    if cell.kind == "query" and answers is not None:
        digest, answers = _digest(answers), len(answers)
    totals = tracer.totals()
    result: dict = {
        "strategy": cell.label,
        "n": n,
        "outcome": outcome,
        "answers": answers,
        "max_relation_size": stats.max_relation_size,
        "tuples_produced": stats.tuples_produced,
        "tuples_examined": stats.tuples_examined,
        "iterations": stats.iterations,
        "counters": {name: totals.get(name, 0) for name in _COUNTER_NAMES},
        "trace_violations": trace_violations(tracer),
        "median_s": None,
        "unit_s": None,
        "normalized": None,
    }
    if digest is not None:
        result["answers_sha"] = digest
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = (
            trace_dir / f"{family.key}-{cell.label}-n{n}.trace.json"
        )
        trace_path.write_text(
            json.dumps(to_chrome_trace(tracer), sort_keys=True) + "\n"
        )
        result["trace"] = str(trace_path)
    if outcome != "ok":
        return result
    times, units = [], [_unit_time()]
    for _ in range(max(repeats, 1)):
        times.append(_timed(run))
        units.append(_unit_time())
    median_s = statistics.median(times)
    unit_s = statistics.median(units)
    result["median_s"] = median_s
    result["unit_s"] = unit_s
    result["normalized"] = median_s / unit_s if unit_s > 0 else None
    return result


def fit_exponent(points: list[tuple[float, float]]) -> Optional[float]:
    """Least-squares slope of ``log(value)`` against ``log(n)``.

    Returns ``None`` with fewer than two positive points (nothing to
    fit) or when all sizes coincide.
    """
    import math

    usable = [(n, v) for n, v in points if n > 0 and v > 0]
    if len(usable) < 2:
        return None
    xs = [math.log(n) for n, _ in usable]
    ys = [math.log(v) for _, v in usable]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    denom = sum((x - mean_x) ** 2 for x in xs)
    if denom == 0:
        return None
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / denom
    return slope


def classify_exponent(exponent: Optional[float]) -> str:
    """Bucket a fitted exponent into a growth class.

    A true exponential fitted on a log-log scale has no stable slope --
    it lands far above any polynomial of interest, so everything past
    cubic reports ``superpolynomial`` (Example 1.1's Counting run fits
    a "slope" of ~n/log n).
    """
    if exponent is None:
        return "unknown"
    if exponent < 0.5:
        return "constant"
    if exponent < 1.5:
        return "linear"
    if exponent < 2.5:
        return "quadratic"
    if exponent < 3.5:
        return "cubic"
    return "superpolynomial"


def _fits(results: list[dict], labels: list[str]) -> list[dict]:
    fits: list[dict] = []
    for strategy in labels:
        cells = [
            c
            for c in results
            if c["strategy"] == strategy and c["outcome"] == "ok"
        ]
        for metric in ("max_relation_size", "median_s"):
            points = [
                (c["n"], c[metric]) for c in cells if c[metric]
            ]
            exponent = fit_exponent(points)
            fits.append(
                {
                    "strategy": strategy,
                    "metric": metric,
                    "exponent": exponent,
                    "classification": classify_exponent(exponent),
                    "points": points,
                }
            )
    return fits


def run_family(
    family: Family,
    sizes: list[int],
    repeats: int = 5,
    budget: Budget = BENCH_BUDGET,
    calibration: Optional[dict] = None,
    trace_dir: Optional[Path] = None,
    backend: Optional[str] = None,
) -> dict:
    """Sweep one family over ``sizes``; returns the full report dict.

    ``calibration`` may be shared across families (one measurement per
    process); when ``None`` it is measured here.  ``trace_dir``
    (optional) collects one chrome-trace JSON per cell.  ``backend``
    runs every cell with the workload database migrated onto that
    storage backend (``bench --backend``); note counters and times
    then describe that backend, so ``--check`` only makes sense
    against a baseline generated the same way.
    """
    if calibration is None:
        calibration = calibrate()
    results: list[dict] = []
    for cell in family.cells:
        for n in sizes:
            results.append(
                _run_cell(
                    family, n, cell, budget, repeats,
                    trace_dir=trace_dir, backend=backend,
                )
            )
    return {
        "schema": SCHEMA,
        "family": family.key,
        "title": family.title,
        "size_means": family.size_means,
        "expectation": family.expectation,
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "git_sha": git_sha(),
        "machine": machine_info(),
        "budget_max_relation_tuples": budget.max_relation_tuples,
        "backend": backend,
        "repeats": repeats,
        "sizes": list(sizes),
        "calibration": calibration,
        "results": results,
        "fits": _fits(results, [cell.label for cell in family.cells]),
    }


def report_path(out_dir: Path, family_key: str) -> Path:
    return Path(out_dir) / f"BENCH_{family_key}.json"


def write_report(report: dict, out_dir: Path) -> Path:
    """Write ``BENCH_<family>.json``; returns the path written."""
    path = report_path(out_dir, report["family"])
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path


def summarize(report: dict) -> str:
    """A short human-readable table of one family report."""
    lines = [
        f"{report['family']}: {report['title']}",
        f"  sizes={report['sizes']} repeats={report['repeats']} "
        f"unit_s={report['calibration']['unit_s']:.4f}",
    ]
    for cell in report["results"]:
        timing = (
            f"{cell['median_s'] * 1e3:9.2f}ms "
            f"(x{cell['normalized']:.2f})"
            if cell["median_s"] is not None
            else f"[{cell['outcome']}]"
        )
        lines.append(
            f"  {cell['strategy']:>10} n={cell['n']:<6} {timing:>22}  "
            f"max_rel={cell['max_relation_size']:<8} "
            f"examined={cell['tuples_examined']}"
        )
    for fit in report["fits"]:
        if fit["metric"] != "max_relation_size":
            continue
        exp = (
            f"{fit['exponent']:.2f}" if fit["exponent"] is not None
            else "n/a"
        )
        lines.append(
            f"  fit {fit['strategy']:>10} {fit['metric']}: "
            f"exponent {exp} ({fit['classification']})"
        )
    return "\n".join(lines)

