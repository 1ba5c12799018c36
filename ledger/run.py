#!/usr/bin/env python3
"""The performance ledger's one command.

Driver protocol (one workload per invocation; see ``BENCHMARK.json``)::

    python3 ledger/run.py --workload chain-deep --seed 7 --seconds 10 --trace 0

prints the workload's metrics by name and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
-- the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Without ``--workload`` every workload runs, each in its own subprocess
with the timed passes of all of them interleaved round-robin, and every
metric is printed; ``--trace`` adds the per-layer run, ``--repeat-check``
runs two full sets and compares them against the bounds, ``--quick`` is
the self-test on tiny sizes, ``--baseline`` records the run in
``ledger/baseline.json``.  ``README.md`` has the glossary.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 9


def _pin_environment() -> None:
    """Pin the process to one CPU, so the calibration kernel and the
    workload see the same core, and re-exec once with a fixed hash seed,
    so set and dict layouts (and with them probe order and timing) do
    not vary from run to run, and with SQLite's spill files kept inside
    the checkout."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp = OUT / "tmp"
    pinned = {"PYTHONHASHSEED": "0", "SQLITE_TMPDIR": str(tmp)}
    if all(os.environ.get(k) == v for k, v in pinned.items()):
        return
    tmp.mkdir(parents=True, exist_ok=True)
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, **pinned))


def _import_paths() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"ledger: no program to measure under {src}")
    sys.path[:0] = [str(HERE), str(src)]


def _print_metrics(name: str, metrics: dict) -> None:
    for metric, cell in metrics.items():
        print(f"{name:14s} {metric:38s} {cell['value']:>14.6g} {cell['unit']}")


# -- one workload (the driver protocol, and the children of a full set) ------

def run_workload(args) -> int:
    import workloads
    from harness import Run

    workload = workloads.build(args.workload, args.seed, args.quick)
    if args.trace:
        import layers

        out = layers.traced_run(workload, args.seconds, OUT)
    else:
        run = Run(workload, corrupt=args.corrupt, quick=args.quick)
        try:
            run.prepare()
            if args.pipe:
                # A full set's child: the parent paces the passes so that
                # all workloads sample the same stretch of machine time.
                print("ready", flush=True)
                for line in sys.stdin:
                    if line.strip() != "pass":
                        break
                    print(f"done {run.timed_pass():.3f}", flush=True)
            else:
                run.measure(args.seconds)
        finally:
            run.close()
        out = run.result()
    if args.pipe:
        print(json.dumps(out))
        return 0
    print(f"{workload.name}: seed {args.seed} "
          f"stream {out['stream_digest'][:16]} "
          f"attempted {out['attempted']} failed {out['failed']}")
    _print_metrics(workload.name, out["metrics"])
    if not args.trace:
        print(f"{workload.name}: uncorrected {json.dumps(out['raw'])} "
              f"samples {json.dumps(out['samples'])}")
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0 if correct else 1


# -- a full set: every workload, passes interleaved --------------------------

def _child(name: str, args, *extra: str, **popen) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    return subprocess.Popen(command + list(extra), text=True,
                            stdout=subprocess.PIPE, **popen)


def _expect(child: subprocess.Popen, word: str) -> str:
    line = child.stdout.readline()
    if not line.startswith(word):
        raise SystemExit(f"ledger: child said {line!r}, expected {word!r}")
    return line


def full_set(args, names) -> dict:
    """Every workload's end-to-end result (and per-layer, with --trace)."""
    results: dict[str, dict] = {}
    children: dict[str, subprocess.Popen] = {}
    try:
        for name in names:  # one at a time: set-up is timed too
            children[name] = _child(name, args, "--pipe",
                                    stdin=subprocess.PIPE)
            _expect(children[name], "ready")
        spent = dict.fromkeys(names, 0.0)
        passes = 0
        while passes < (3 if args.quick else MIN_PASSES) or any(
                s < args.seconds for s in spent.values()):
            for name, child in children.items():
                child.stdin.write("pass\n")
                child.stdin.flush()
                spent[name] += float(_expect(child, "done").split()[1])
            passes += 1
        for name, child in children.items():
            child.stdin.write("finish\n")
            child.stdin.flush()
            results[name] = json.loads(child.stdout.readline())
            child.wait()
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    if args.trace:
        for name in names:
            child = _child(name, args, "--trace", "1")
            stdout, _ = child.communicate()
            if child.returncode != 0:
                raise SystemExit(f"ledger: traced run of {name} failed")
            results[name]["per_layer"] = json.loads(
                stdout.strip().splitlines()[-1])["metrics"]
    return results


def print_set(results: dict) -> None:
    for name, out in results.items():
        print(f"{name}: stream {out['stream_digest'][:16]} "
              f"expected {out['expected_digest']} "
              f"attempted {out['attempted']} failed {out['failed']} "
              f"passes {out['samples']['passes']}")
        _print_metrics(name, out["metrics"])
        share = {"value": out["failed_share"], "unit": "ratio"}
        _print_metrics(name, {"failed_share": share})
        if out["write_p50_ms"] is not None:
            _print_metrics(name, {"write_p50_ms": {
                "value": out["write_p50_ms"], "unit": "ms"}})
        _print_metrics(name, out.get("per_layer", {}))


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repeat_check(args, names) -> int:
    """Two full sets back to back; fail if an end-to-end metric moved by
    more than its bound, or a count of a single-client workload at all."""
    bench = _benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    args.trace = 1
    first, second = full_set(args, names), full_set(args, names)
    worst: dict[str, float] = {}
    failed = 0
    for name in names:
        a, b = first[name], second[name]
        for metric, bound in bounds.items():
            x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            moved = abs(y - x) / x
            worst[metric] = max(worst.get(metric, 0.0), moved)
            verdict = "ok" if moved <= bound else "FAIL"
            failed += verdict == "FAIL"
            print(f"{name:14s} {metric:16s} {x:12.5g} {y:12.5g} "
                  f"moved {moved:7.2%} bound {bound:.0%} {verdict}")
        if a["failed"] or b["failed"]:
            failed += 1
            print(f"{name:14s} wrong answers FAIL")
        if a["sizes"]["clients"] > 1:
            continue
        for metric in counts:
            x = a["per_layer"][metric]["value"]
            y = b["per_layer"][metric]["value"]
            if x != y:
                failed += 1
                print(f"{name:14s} {metric} differs: {x} vs {y} FAIL")
    print("largest move per metric: " + ", ".join(
        f"{k} {v:.2%}" for k, v in worst.items()))
    if args.baseline:
        _write_baseline(args, first, repeat={
            k: {"bound": bounds[k], "largest_move": v}
            for k, v in worst.items()})
    return 1 if failed else 0


def _write_baseline(args, results: dict, repeat=None) -> None:
    from calibrate import CAL_REF_MS

    path = HERE / "baseline.json"
    record = {
        "note": "The ledger's first full run; no gain is claimed.  Values "
                "are speed-corrected (README.md, Estimator); raw values "
                "are beside them.",
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "CAL_REF_MS": CAL_REF_MS,
        "seed": args.seed,
        "workloads": results,
    }
    if repeat is not None:
        record["repeat_check"] = repeat
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


# -- the quick self-test ------------------------------------------------------

def self_test(args, names) -> int:
    import layers
    import workloads

    start = time.time()
    bench = _benchmark()
    problems: list[str] = []

    def check(ok, what: str) -> None:
        if not ok:
            problems.append(what)

    listed = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for metric in listed + [w["name"] for w in bench["workloads"]]:
        check(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric),
              f"bad name {metric!r}")
    check([w["name"] for w in bench["workloads"]] == list(names),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == list(layers.PER_LAYER),
          "BENCHMARK.json per_layer differs from layers.PER_LAYER")
    tree = ast.parse((HERE / "reference.py").read_text())
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    check(not any(str(mod).split(".")[0] == "repro" for mod in imported),
          "reference.py imports repro")
    for name in names:
        check(workloads.build(name, args.seed, True).digest()
              == workloads.build(name, args.seed, True).digest(),
              f"{name}: same seed, different stream")

    args.trace = 1
    results = full_set(args, names)
    print_set(results)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for name, out in results.items():
        check(out["failed"] == 0, f"{name}: {out['failed']} wrong answers")
        check(set(out["metrics"]) == end_to_end,
              f"{name}: end-to-end metrics differ from BENCHMARK.json")
        check(set(out["per_layer"]) == per_layer,
              f"{name}: per-layer metrics differ from BENCHMARK.json")
        check(all(cell["value"] > 0 for cell in out["metrics"].values()),
              f"{name}: an end-to-end metric is 0")
        trace = OUT / f"trace-{name}.json"
        check(trace.exists(), f"{name}: no span file")
        if out["sizes"]["engine"] and trace.exists():
            check(_layers_add_up(json.loads(trace.read_text())["spans"]),
                  f"{name}: layer self times do not add up to the op time")

    corrupt = _child(names[0], args, "--corrupt")
    stdout, _ = corrupt.communicate()
    check(corrupt.returncode != 0
          and '"correct": false' in stdout.splitlines()[-1],
          "a corrupted expected answer did not fail the run")
    for problem in problems:
        print("FAIL " + problem)
    print(f"self-test: {len(problems)} problems, {time.time() - start:.1f} s")
    return 1 if problems else 0


def _layers_add_up(spans: list[dict]) -> bool:
    """Self times of the layer spans within 10 % of the ops' total."""
    own = {s["id"]: s["end_us"] - s["start_us"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_us"] - s["start_us"]
    traced = [s for s in spans if s["trace_id"].startswith("op-")]
    total = sum(s["end_us"] - s["start_us"]
                for s in traced if s["name"] == "op")
    layers_ = sum(own[s["id"]] for s in traced if s["name"] != "op")
    return total > 0 and abs(total - layers_) <= 0.1 * total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes; without --workload, the self-test")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--baseline", action="store_true",
                        help="record the run in ledger/baseline.json")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: plant one wrong expected answer")
    parser.add_argument("--pipe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.quick else 10.0
    _import_paths()
    _pin_environment()
    if args.workload:
        return run_workload(args)
    import workloads

    names = workloads.WORKLOADS
    if args.quick:
        return self_test(args, names)
    if args.repeat_check:
        return repeat_check(args, names)
    results = full_set(args, names)
    print_set(results)
    if args.baseline:
        _write_baseline(args, results)
    return 1 if any(out["failed"] for out in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
