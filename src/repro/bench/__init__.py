"""Wall-clock ground truth for the reproduction's performance claims.

The package behind ``repro-datalog bench``:

* :mod:`repro.bench.families` -- the paper's experiment families
  (E1-E9) as a registry of buildable workloads;
* :mod:`repro.bench.harness` -- calibrated median-of-k timing with
  traced warmups, growth-exponent fits, and schema-versioned
  ``BENCH_<family>.json`` reports;
* :mod:`repro.bench.gating` -- the ``--check`` regression gate that
  diffs a fresh run against a committed baseline and evaluates each
  family's gate rows.

See ``docs/benchmarking.md`` for the report schema and how to read the
traces.
"""

from .families import FAMILIES, Cell, Family, Workload, resolve_families
from .gating import (
    DEFAULT_MIN_TIME_S,
    DEFAULT_TIME_TOLERANCE,
    Agrees,
    Bound,
    Finding,
    Flat,
    Ratio,
    compare_reports,
)
from .harness import (
    BENCH_BUDGET,
    SCHEMA,
    calibrate,
    classify_exponent,
    fit_exponent,
    git_sha,
    machine_info,
    report_path,
    run_family,
    summarize,
    write_report,
)

__all__ = [
    "Agrees",
    "BENCH_BUDGET",
    "Bound",
    "Cell",
    "DEFAULT_MIN_TIME_S",
    "DEFAULT_TIME_TOLERANCE",
    "FAMILIES",
    "Family",
    "Finding",
    "Flat",
    "Ratio",
    "SCHEMA",
    "Workload",
    "calibrate",
    "classify_exponent",
    "compare_reports",
    "fit_exponent",
    "git_sha",
    "machine_info",
    "report_path",
    "resolve_families",
    "run_family",
    "summarize",
    "write_report",
]
