"""Command-line interface: run programs, answer queries, explain recursions.

Subcommands::

    repro-datalog run PROGRAM.dl [--query 'p(c, X)?'] [--strategy auto]
        Load a program file (rules + facts + optional inline queries),
        answer the queries, print answers and the generated-relation
        statistics.

    repro-datalog detect PROGRAM.dl [--predicate t]
        Print the separability report (Definition 2.4 diagnostics,
        equivalence classes, persistent columns) for one or all IDB
        predicates.

    repro-datalog plan PROGRAM.dl --query 'p(c, X)?'
        Compile and print the Separable plan for a query (the Figure 3/4
        style listing), without executing it.

    repro-datalog advise PROGRAM.dl --query 'p(c, X)?'
        Show which strategies apply to a query and why, plus the
        Section 3.2 regular-expression view of the expansion.

    repro-datalog profile PROGRAM.dl ['p(c, X)?'] [--strategy auto]
                          [--format text|json|chrome-trace]
                          [--events trace.jsonl] [--out FILE]
                          [--no-timings]
        Profile one query end to end: run it with a live tracer and
        print an EXPLAIN ANALYZE-style report (plan, strategy advice,
        span tree with wall-clock shares, per-rule work, generated
        relation sizes, per-iteration deltas).  ``--format
        chrome-trace`` emits a Perfetto/chrome://tracing-loadable JSON
        trace instead; ``--events`` additionally writes the recorded
        span tree to a JSONL file that
        ``repro.observability.replay_file`` reads back (see
        docs/observability.md).

    repro-datalog fuzz [--iterations 200] [--seed 0] [--strategy s ...]
                       [--corpus DIR] [--no-shrink]
        Differential fuzzing: generate random separable recursions and
        near-miss mutants, evaluate each query under every applicable
        strategy, diff answer sets / detection verdicts / statistics
        invariants, and shrink any disagreement to a minimal replayable
        repro file (see docs/differential_testing.md).

    repro-datalog serve PROGRAM.dl [--query 'p(c, X)?' ...]
                        [--workers 4] [--repeat 1] [--deadline SECS]
                        [--strategy auto] [--metrics-out FILE]
                        [--events FILE] [--stats]
        Batch driver for the concurrent query service: serve the given
        queries (times --repeat) from a thread pool over a
        snapshot-isolated EDB view with full-selection memoization and
        per-request deadlines, then print a serving summary (statuses,
        p50/p99 latency, memo hit rate).  ``--metrics-out`` writes the
        service metrics as Prometheus text (or JSON with a .json
        suffix); ``--events`` streams per-request records to a JSONL
        event log (see docs/serving.md).

    repro-datalog bench [--families e1,e2,e5] [--sizes 8,16,32]
                        [--repeats 5] [--out-dir .] [--check]
                        [--baseline-dir DIR] [--time-tolerance 1.6]
                        [--counter-tolerance 0.0] [--budget 200000]
        Calibrated wall-clock sweeps over the paper's experiment
        families, writing schema-versioned BENCH_<family>.json reports
        with per-strategy timings, tracer counters and fitted growth
        exponents; ``--check`` instead diffs a fresh run against the
        committed baselines, evaluates each family's gates, prints
        what was applied and what was skipped (and why), and exits 1
        on regression (see docs/benchmarking.md).

Also usable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.compiler import query_form
from .core.detection import analyze_recursion, require_separable
from .datalog.errors import ReproError
from .datalog.parser import parse_program, parse_query
from .datalog.plan_cache import ORDERS
from .datalog.pretty import answers_to_text
from .engine import STRATEGIES, Engine

__all__ = ["main", "build_parser"]

#: The size sweep of ``bench`` (default).
_BENCH_SIZES = "8,16,32"


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _order_list(text: str) -> tuple[str, ...]:
    """Comma-separated join orders, e.g. ``greedy,cost``."""
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [v for v in values if v not in ORDERS]
    if not values or unknown:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated orders from {ORDERS}, got {text!r}"
        )
    return values


def _backend_spec(text: str) -> str:
    """A storage backend spec: ``memory``, ``sqlite``, ``sqlite:<path>``."""
    from .storage import BACKENDS

    if text in BACKENDS or text.startswith("sqlite:"):
        return text
    raise argparse.ArgumentTypeError(
        f"expected one of {', '.join(BACKENDS)} or 'sqlite:<path>', "
        f"got {text!r}"
    )


def _backend_list(text: str) -> tuple[str, ...]:
    """Comma-separated backend names, e.g. ``sqlite``."""
    from .storage import BACKENDS

    values = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [v for v in values if v not in BACKENDS]
    if not values or unknown:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated backends from {BACKENDS}, "
            f"got {text!r}"
        )
    return values


def _add_strategy(parser, help: str, default="auto", **kwargs) -> None:
    parser.add_argument("--strategy", choices=STRATEGIES, default=default,
                        help=help, **kwargs)


def _add_order(parser, help: str) -> None:
    parser.add_argument("--order", choices=ORDERS, default="greedy",
                        help=help)


def _add_backend(parser, help: str) -> None:
    parser.add_argument("--backend", type=_backend_spec, default=None,
                        help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-datalog",
        description=(
            "Datalog engine with the Separable-recursion compiler of "
            "Naughton (SIGMOD 1988)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate queries over a program file")
    run.add_argument("program", type=Path, help="Datalog source file")
    run.add_argument(
        "--query",
        action="append",
        default=[],
        help="query text, e.g. 'buys(tom, Y)?' (repeatable; defaults to "
        "the queries found in the file)",
    )
    _add_strategy(run, "evaluation strategy (default: auto)")
    _add_order(
        run,
        "join order for compiled bodies (default: greedy); cost "
        "uses the selectivity-aware planner (docs/planning.md)",
    )
    run.add_argument(
        "--stats",
        action="store_true",
        help="print the generated-relation statistics after each query",
    )
    _add_backend(
        run,
        "relation storage backend: memory (default), sqlite "
        "(out-of-core temporary tables), or sqlite:<path> (durable "
        "file; see docs/storage.md)",
    )

    detect = sub.add_parser(
        "detect", help="print separability reports (Definition 2.4)"
    )
    detect.add_argument("program", type=Path)
    detect.add_argument(
        "--predicate",
        default=None,
        help="only report this predicate (default: every IDB predicate)",
    )

    plan = sub.add_parser(
        "plan", help="compile and print the Separable plan for a query"
    )
    plan.add_argument("program", type=Path)
    plan.add_argument("--query", required=True, help="query text")

    advise = sub.add_parser(
        "advise",
        help="show which strategies apply to a query, and why",
    )
    advise.add_argument("program", type=Path)
    advise.add_argument("--query", required=True, help="query text")

    profile = sub.add_parser(
        "profile",
        help="run one query under a tracer and print an EXPLAIN "
        "ANALYZE-style report",
    )
    profile.add_argument("program", type=Path, help="Datalog source file")
    profile.add_argument(
        "query",
        nargs="?",
        default=None,
        help="query text, e.g. 'buys(tom, Y)?' (default: the single "
        "query found in the file)",
    )
    _add_strategy(profile, "evaluation strategy to profile (default: auto)")
    _add_order(
        profile,
        "join order for compiled bodies (default: greedy); with "
        "cost the report gains a planner estimate-vs-observed section",
    )
    profile.add_argument(
        "--format",
        choices=("text", "json", "chrome-trace"),
        default="text",
        help="report format (default: text); chrome-trace emits a "
        "Perfetto-loadable trace-event JSON",
    )
    profile.add_argument(
        "--events",
        type=Path,
        default=None,
        help="also write the span tree to this JSONL file "
        "(schema repro-events/3, replayable offline)",
    )
    profile.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the report here instead of stdout",
    )
    profile.add_argument(
        "--no-timings",
        action="store_true",
        help="omit wall-clock figures from the text report (makes the "
        "output deterministic for a given program and query)",
    )
    _add_backend(
        profile,
        "relation storage backend: memory (default), sqlite, or "
        "sqlite:<path> (docs/storage.md)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing across all evaluation strategies",
    )
    fuzz.add_argument(
        "--iterations",
        type=_nonnegative_int,
        default=200,
        help="number of random cases to generate (default: 200; 0 "
        "replays the corpus only)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="PRNG seed; a campaign is reproducible from it (default: 0)",
    )
    _add_strategy(
        fuzz,
        "restrict to these strategies (repeatable; default: all "
        "applicable per case)",
        action="append",
        default=[],
    )
    fuzz.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help="corpus directory: existing *.dl repro files are replayed "
        "first, and new shrunk failures are written there",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing cases without delta-debugging them",
    )
    fuzz.add_argument(
        "--orders",
        type=_order_list,
        default=None,
        metavar="O[,O...]",
        help="also run semi-naive evaluation under these join orders "
        "(comma-separated, e.g. 'left_to_right,cost'), cross-checking "
        "each run against the reference, and diff the generated "
        "Separable loops against the reference loop under each",
    )
    fuzz.add_argument(
        "--backends",
        type=_backend_list,
        default=None,
        metavar="B[,B...]",
        help="also run every applicable strategy (and every --orders "
        "order) over each case migrated onto these storage backends "
        "(comma-separated, e.g. 'sqlite'), cross-checking each run "
        "against the in-memory reference",
    )

    serve = sub.add_parser(
        "serve",
        help="batch-serve queries concurrently with snapshot isolation, "
        "memoization and deadlines",
    )
    serve.add_argument("program", type=Path, help="Datalog source file")
    serve.add_argument(
        "--query",
        action="append",
        default=[],
        help="query text (repeatable; defaults to the queries found in "
        "the file)",
    )
    serve.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=4,
        help="thread-pool size (default: 4)",
    )
    serve.add_argument(
        "--repeat",
        type=_nonnegative_int,
        default=1,
        help="serve each query this many times (default: 1); repeats "
        "exercise the full-selection memo",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request wall-clock deadline in seconds "
        "(default: none)",
    )
    _add_strategy(serve, "evaluation strategy (default: auto)")
    serve.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write service metrics here: Prometheus text, or a JSON "
        "snapshot when the suffix is .json",
    )
    serve.add_argument(
        "--events",
        type=Path,
        default=None,
        help="write one service_request record per request to this "
        "JSONL file (schema repro-events/3; a recorded request's "
        "record holds its span tree)",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print per-request answers and status lines, not just the "
        "summary",
    )
    serve.add_argument(
        "--incremental",
        action="store_true",
        help="maintain the IDB incrementally under mutation instead of "
        "invalidating snapshots and memo entries per EDB state number",
    )
    serve.add_argument(
        "--mutations",
        type=_nonnegative_int,
        default=0,
        help="interleave this many deterministic synthetic base-table "
        "mutations with the request stream (default: 0)",
    )
    serve.add_argument(
        "--http-port",
        type=_nonnegative_int,
        default=None,
        metavar="PORT",
        help="serve live telemetry over HTTP on this port (0 = pick an "
        "ephemeral port): /metrics (Prometheus text), /healthz, "
        "/slowlog?n=K",
    )
    serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="bind address for --http-port (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECS",
        help="keep the service (and its HTTP endpoint) up this many "
        "seconds after the batch completes, so scrapers can read the "
        "final state (default: 0)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="RATE",
        help="record this fraction of requests: each runs under a "
        "recording tracer and its record carries the span tree "
        "(deterministic over the request sequence; default: 0)",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=None,
        metavar="SECS",
        help="also record any request at least this slow (implies "
        "tracing every request; default: off)",
    )
    _add_backend(
        serve,
        "relation storage backend for the live EDB: memory "
        "(default), sqlite, or sqlite:<path> (docs/storage.md)",
    )

    bench = sub.add_parser(
        "bench",
        help="calibrated wall-clock sweeps over the experiment families",
    )
    bench.add_argument(
        "--families",
        default="all",
        help="comma-separated family keys (e1..e9, incremental-write, "
        "skewed-join, out-of-core) or 'all' "
        "(default: all)",
    )
    bench.add_argument(
        "--sizes",
        help="comma-separated size sweep (default: per family, the sizes "
        f"of its report in --baseline-dir, else {_BENCH_SIZES})",
    )
    bench.add_argument(
        "--repeats",
        type=_nonnegative_int,
        default=5,
        help="timed repetitions per cell; the median is reported "
        "(default: 5)",
    )
    bench.add_argument(
        "--out-dir",
        type=Path,
        default=Path("."),
        help="directory for BENCH_<family>.json reports (default: .)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="regression mode: rerun and diff against the baselines in "
        "--baseline-dir instead of writing reports; exits 1 on any "
        "finding, 2 when a baseline is missing",
    )
    bench.add_argument(
        "--baseline-dir",
        type=Path,
        default=None,
        help="where committed BENCH_*.json baselines live "
        "(default: --out-dir)",
    )
    bench.add_argument(
        "--time-tolerance",
        type=float,
        default=None,
        help="max allowed current/baseline normalized-time ratio "
        "(default: 1.6)",
    )
    bench.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.0,
        help="relative slack for tracer counters / deterministic "
        "measures (default: 0 = exact)",
    )
    bench.add_argument(
        "--budget",
        type=_nonnegative_int,
        default=None,
        help="max tuples per generated relation before a run is "
        "recorded as outcome=budget (default: 200000)",
    )
    _add_backend(
        bench,
        "run every cell with the workload database on this "
        "storage backend: memory | sqlite | sqlite:<path> (default: "
        "plain in-memory; --check then needs a baseline generated "
        "with the same backend)",
    )
    bench.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="write one chrome-trace JSON per cell here and record its "
        "path in the report (default: <out-dir>/traces when writing "
        "reports; off under --check)",
    )
    return parser


def _load(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    return parse_program(text)


def _cmd_run(args: argparse.Namespace) -> int:
    parsed = _load(args.program)
    queries = [parse_query(q) for q in args.query] or list(parsed.queries)
    if not queries:
        print("no queries given (use --query or put 'p(c, X)?' in the file)")
        return 1
    engine = Engine(parsed.program, parsed.database, order=args.order,
                    backend=args.backend)
    for query in queries:
        result = engine.query(query, strategy=args.strategy)
        print(f"% strategy: {result.strategy}")
        print(answers_to_text(query, result.answers))
        if args.stats:
            print(result.stats.format_table())
        print()
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    parsed = _load(args.program)
    predicates = (
        [args.predicate]
        if args.predicate
        else sorted(parsed.program.idb_predicates)
    )
    status = 0
    for predicate in predicates:
        if predicate not in parsed.program.idb_predicates:
            print(f"{predicate}: not an IDB predicate")
            status = 1
            continue
        report = analyze_recursion(parsed.program, predicate)
        print(report.explain())
        print()
        if not report.separable:
            status = 1
    return status


def _cmd_plan(args: argparse.Namespace) -> int:
    parsed = _load(args.program)
    query = parse_query(args.query)
    form = query_form(require_separable(parsed.program, query.predicate),
                      query)
    if form.part is not None:
        print(
            f"{query} is not a full selection; it is evaluated through "
            f"the Lemma 2.1 rewrite. The plans that run:"
        )
        print(f"\n-- t_full (every seed the sideways pass through class "
              f"e_{form.batch.plan.selected_class_index} finds):")
        print(form.batch.plan.describe(True))
        print("\n-- t_part (class dropped; selection now persistent):")
        print(form.part.plan.describe())
        return 0
    print(form.full_plan(query).describe())
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    parsed = _load(args.program)
    engine = Engine(parsed.program, parsed.database)
    query = parse_query(args.query)
    print(engine.advise(query).explain())
    report = engine.report(query.predicate)
    if report.analysis is not None:
        print(f"\nexpansion: {report.analysis.expansion_regex()}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .observability import Tracer, write_trace

    parsed = _load(args.program)
    if args.query is not None:
        query = parse_query(args.query)
    else:
        file_queries = list(parsed.queries)
        if len(file_queries) != 1:
            print(
                f"error: {args.program} has {len(file_queries)} queries; "
                f"pass one explicitly, e.g. 'p(c, X)?'",
                file=sys.stderr,
            )
            return 2
        query = file_queries[0]

    engine = Engine(parsed.program, parsed.database, order=args.order,
                    backend=args.backend)
    tracer = Tracer()
    try:
        prof = engine.profile(query, strategy=args.strategy, tracer=tracer)
    finally:
        if args.events is not None:
            write_trace(args.events, tracer)

    if args.format == "text":
        output = prof.render_text(timings=not args.no_timings)
    elif args.format == "json":
        output = json.dumps(prof.to_json(), indent=2, sort_keys=True)
    else:  # chrome-trace
        output = json.dumps(prof.to_chrome_trace(), sort_keys=True)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(output + "\n")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .differential import FuzzConfig, run_fuzz

    if args.corpus is not None and not args.corpus.is_dir():
        # A typo'd path would otherwise silently replay nothing.
        print(f"error: corpus directory {args.corpus} does not exist",
              file=sys.stderr)
        return 2
    config = FuzzConfig(
        iterations=args.iterations,
        seed=args.seed,
        strategies=tuple(args.strategy) or None,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        orders=args.orders,
        backends=args.backends,
    )
    report = run_fuzz(config)
    print(report.summary())
    return 0 if report.ok else 1


def _serve_mutation_stream(database, program, count: int) -> list[tuple]:
    """A deterministic insert/delete stream over the program's EDB.

    Round-robins inserts of fresh synthetic facts across the base
    predicates, deleting an earlier synthetic insert every third step,
    so the write-heavy smoke run exercises both the counting insert
    path and DRed deletion without depending on the input data.
    """
    names = sorted(
        n for n in program.edb_predicates
        if database.relation(n) is not None
    )
    if not names:
        return []
    ops: list[tuple] = []
    pending: list[tuple[str, tuple]] = []
    for i in range(count):
        if i % 3 == 2 and pending:
            name, fact = pending.pop(0)
            ops.append(("del", name, fact))
        else:
            name = names[i % len(names)]
            arity = database.arity(name) or 1
            fact = tuple(f"mut{i}c{j}" for j in range(arity))
            ops.append(("add", name, fact))
            pending.append((name, fact))
    return ops


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .observability import JsonlFileSink
    from .service import QueryService, ServiceConfig

    parsed = _load(args.program)
    queries = [parse_query(q) for q in args.query] or list(parsed.queries)
    if not queries:
        print("no queries given (use --query or put 'p(c, X)?' in the file)")
        return 1
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    try:
        config = ServiceConfig(
            workers=args.workers,
            default_deadline_s=args.deadline,
            incremental=args.incremental,
            trace_sample=args.trace_sample,
            slow_query_threshold_s=args.slow_threshold,
            backend=args.backend,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    requests = [q for q in queries for _ in range(args.repeat)]
    mutations = _serve_mutation_stream(
        parsed.database, parsed.program, args.mutations
    )
    sink = JsonlFileSink(args.events) if args.events is not None else None
    httpd = None
    try:
        with QueryService(
            parsed.program, parsed.database, config, sink=sink
        ) as service:
            if args.http_port is not None:
                from .service import ServiceHTTPD

                httpd = ServiceHTTPD(
                    service, host=args.http_host, port=args.http_port
                ).start()
                # The CI smoke parses this exact line to find the
                # ephemeral port; keep the format stable.
                print(f"telemetry listening on {httpd.url}", flush=True)
            if mutations:
                def write(kind: str, name: str, fact: tuple) -> None:
                    service.mutate(
                        lambda db: db.add_fact(name, fact) if kind == "add"
                        else db.remove_fact(name, fact)
                    )

                stride = max(1, len(requests) // (len(mutations) + 1))
                futures = []
                stream = iter(mutations)
                for i, q in enumerate(requests):
                    if i and i % stride == 0:
                        op = next(stream, None)
                        if op is not None:
                            write(*op)
                    futures.append(
                        service.submit(q, strategy=args.strategy)
                    )
                for op in stream:
                    write(*op)
                results = [f.result() for f in futures]
            else:
                results = service.batch(requests, strategy=args.strategy)
            metrics = service.metrics_dict()
            metrics_text = service.metrics_text()
            if httpd is not None and args.linger > 0:
                # Scrape window: the batch is done, the service is
                # still open (healthz says ok), metrics are final.
                import time as _time

                _time.sleep(args.linger)
    finally:
        if httpd is not None:
            httpd.stop()
        if sink is not None:
            sink.close()

    if args.stats:
        for result in results:
            line = (
                f"{result.query}  status={result.status} "
                f"answers={len(result.answers)} "
                f"strategy={result.strategy} "
                f"latency={result.latency_s * 1e3:.1f}ms"
            )
            if result.error:
                line += f"  ({result.error})"
            print(line)
        print()

    by_status = metrics["by_status"]
    lat = metrics["latency_s"]
    memo = metrics.get("memo", {})
    lookups = sum(memo.get(kind, 0) for kind in ("hits", "misses", "resumed"))
    hit_rate = memo.get("hits", 0) / lookups if lookups else 0.0
    print(f"served {len(results)} requests on {args.workers} workers")
    print(
        "  statuses: "
        + ", ".join(f"{k}={by_status[k]}" for k in sorted(by_status))
    )
    print(
        f"  latency: p50={lat['p50'] * 1e3:.1f}ms "
        f"p99={lat['p99'] * 1e3:.1f}ms max={lat['max'] * 1e3:.1f}ms"
    )
    print(
        f"  memo: {memo.get('hits', 0)} hits / {lookups} lookups "
        f"({hit_rate:.0%}), {memo.get('resumed', 0)} resumed, "
        f"{memo.get('size', 0)} resident"
    )
    print(
        f"  snapshots={metrics['snapshots_created']} "
        f"retries={metrics['retries']} "
        f"deadline_trips={metrics['deadline_trips']}"
    )
    if args.incremental:
        print(
            f"  incremental: view_repairs={metrics['view_repairs']} "
            f"view_rebuilds={metrics['view_rebuilds']} "
            f"view_probes={metrics['view_probes']}"
        )
    if args.trace_sample or args.slow_threshold is not None:
        print(
            f"  recorded: {metrics['recorded']} requests with span trees "
            f"({metrics['recorded_sampled']} sampled, "
            f"{metrics['recorded_slow']} over threshold)"
        )

    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        if args.metrics_out.suffix == ".json":
            args.metrics_out.write_text(
                json.dumps(metrics, indent=2, sort_keys=True) + "\n"
            )
        else:
            args.metrics_out.write_text(metrics_text)
        print(f"wrote {args.metrics_out}")

    failed = sum(1 for r in results if r.status == "error")
    return 0 if failed == 0 else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .bench import (
        BENCH_BUDGET,
        DEFAULT_TIME_TOLERANCE,
        calibrate,
        compare_reports,
        report_path,
        resolve_families,
        run_family,
        summarize,
        write_report,
    )
    from .budget import Budget

    try:
        families = resolve_families(args.families)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sizes = [int(s) for s in (args.sizes or "").split(",") if s.strip()]
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return 2
    if args.sizes is not None and (not sizes or any(n <= 0 for n in sizes)):
        print("error: --sizes needs positive integers", file=sys.stderr)
        return 2
    budget = (
        Budget(max_relation_tuples=args.budget)
        if args.budget is not None
        else BENCH_BUDGET
    )
    baseline_dir = args.baseline_dir or args.out_dir
    time_tolerance = (
        args.time_tolerance
        if args.time_tolerance is not None
        else DEFAULT_TIME_TOLERANCE
    )

    # Baselines are loaded before any (slow) run so a missing one fails
    # fast, and so --out-dir may equal --baseline-dir.
    # Without --sizes a family is swept where its committed report was,
    # so one invocation re-records (or checks) families of unlike sizes.
    baselines: dict[str, dict] = {}
    for family in families:
        path = report_path(baseline_dir, family.key)
        if path.is_file():
            baselines[family.key] = json.loads(path.read_text())
        elif args.check:
            print(
                f"error: no baseline {path}; run bench without "
                f"--check first and commit the report",
                file=sys.stderr,
            )
            return 2

    # Traces only make sense when writing reports; in --check mode the
    # run is a throwaway comparison, so tracing stays off unless asked.
    trace_dir = args.trace_dir
    if trace_dir is None and not args.check:
        trace_dir = args.out_dir / "traces"

    calibration = calibrate()
    findings = []
    gated: list = []
    for family in families:
        report = run_family(
            family,
            sizes or baselines.get(family.key, {}).get("sizes")
            or [int(s) for s in _BENCH_SIZES.split(",")],
            repeats=args.repeats, budget=budget,
            calibration=calibration, trace_dir=trace_dir,
            backend=args.backend,
        )
        print(summarize(report))
        if args.check:
            family_findings = compare_reports(
                baselines[family.key],
                report,
                time_tolerance=time_tolerance,
                counter_tolerance=args.counter_tolerance,
                gated=gated,
            )
            findings.extend(family_findings)
        else:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            print(f"  wrote {write_report(report, args.out_dir)}")
        print()

    if args.check:
        regressions = [f for f in findings if f.regression]
        skipped = [f for f in findings if not f.regression]
        print(f"gates: {len(gated)} applied ({gated.count('time')} "
              f"baseline time cells), {len(skipped)} skipped")
        for finding in skipped:
            print(f"  {finding}")
        if regressions:
            print(f"REGRESSIONS ({len(regressions)}):")
            for finding in regressions:
                print(f"  {finding}")
            return 1
        print("bench --check: no regressions against baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "detect": _cmd_detect,
        "plan": _cmd_plan,
        "advise": _cmd_advise,
        "profile": _cmd_profile,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
