#!/usr/bin/env python
"""Where a ``serve-mixed`` pass spends its time, through the public API.

Builds the ledger's own ``serve-mixed`` stream (``ledger/workloads.py``,
same seed -> same bytes; services opened and ops turned into calls by
``ledger/harness.py``, as the benchmark does) and drives it through
``QueryService`` twice over: an incremental service, which is timed,
and a plain one on the same stream, whose answers are the reference.
Per pass it prints

* the milliseconds spent in reads and in writes;
* the read p50 of a seed seen earlier in the pass against the p50 of a
  first-seen seed (every pass starts from a cleared memo, as the
  ledger's passes do) and their ratio;
* what the pass's writes cost, per write and per phase, from the
  ``service.mutate.capture`` / ``.apply`` / ``.memo`` / ``.snapshot``
  spans of ``metrics_dict()["evaluator_phases"]``.

These are the numbers ROADMAP aim 1 ("where the mixed workload
stands") and ``docs/performance.md`` quote.  Exit status 1 when any read
differs between the two services.

Usage: python scripts/mixed_split.py [--seed N] [--passes N] [--quick]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "ledger"), str(REPO / "src")]

import workloads  # noqa: E402  (ledger/)
from harness import calls, open_target  # noqa: E402

PHASES = ("capture", "apply", "memo", "snapshot")


def phase_seconds(service) -> dict:
    phases = service.metrics_dict()["evaluator_phases"]
    return {
        name: phases.get(f"service.mutate.{name}", {}).get("seconds", 0.0)
        for name in PHASES
    }


def one_pass(service, reference, ops) -> tuple[dict, int]:
    """Run ``ops`` on both services; the timed one's split and the
    number of reads on which they disagree."""
    service.memo.clear()
    reference.memo.clear()
    before = phase_seconds(service)
    now = time.perf_counter
    seen: set[str] = set()
    repeat, first, writes = [], [], []
    differing = 0
    for op, call in zip(ops, calls(ops)):
        if op[0] == "read":
            start = now()
            result = service.query(call)
            (repeat if call in seen else first).append(now() - start)
            seen.add(call)
            want = reference.query(call)
            differing += not (result.ok and want.ok
                              and result.answers == want.answers)
        else:
            start = now()
            service.mutate(call)
            writes.append(now() - start)
            reference.mutate(call)
    after = phase_seconds(service)
    n = max(len(writes), 1)
    split = {
        "reads_ms": (sum(repeat) + sum(first)) * 1e3,
        "writes_ms": sum(writes) * 1e3,
        "repeat_p50_us": statistics.median(repeat) * 1e6,
        "first_p50_us": statistics.median(first) * 1e6,
        **{f"{name}_ms": (after[name] - before[name]) * 1e3 / n
           for name in PHASES},
    }
    return split, differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's --quick sizes, two passes")
    args = parser.parse_args(argv)

    workload = workloads.build("serve-mixed", args.seed, args.quick)
    ops = workload.clients[0]
    reads = sum(op[0] == "read" for op in ops)
    print(f"serve-mixed seed {args.seed}: {len(ops)} ops a pass "
          f"({reads} reads, {len(ops) - reads} writes)")
    service = open_target(workload)
    workload.service = {**workload.service, "incremental": False}
    reference = open_target(workload)
    differing = 0
    try:
        one_pass(service, reference, ops)  # warm-up
        print("pass  reads_ms writes_ms  repeat_p50_us first_p50_us ratio  "
              + "  ".join(f"{name}_ms/write" for name in PHASES))
        for k in range(2 if args.quick else args.passes):
            split, bad = one_pass(service, reference, ops)
            differing += bad
            print(f"{k + 1:4d}  {split['reads_ms']:8.2f} "
                  f"{split['writes_ms']:9.2f}  "
                  f"{split['repeat_p50_us']:13.1f} "
                  f"{split['first_p50_us']:12.1f} "
                  f"{split['first_p50_us'] / split['repeat_p50_us']:5.2f}  "
                  + "  ".join(f"{split[f'{name}_ms']:{len(name) + 9}.4f}"
                              for name in PHASES))
        metrics = service.metrics_dict()
        print("view_probes {view_probes}  view_repairs {view_repairs}  "
              "view_rebuilds {view_rebuilds}  memo {memo}".format(**metrics))
    finally:
        service.close()
        reference.close()
    if differing:
        print(f"FAILED: {differing} reads differ from the non-incremental "
              f"service", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
