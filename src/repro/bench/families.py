"""The paper's experiment families (E1-E9) as benchmarkable workloads.

Each :class:`Family` knows how to build its inputs for one size ``n``,
which :class:`Cell` columns Section 4 (or the extension ablations)
compares on it, and which gates (:mod:`repro.bench.gating` rows) hold
between those columns.  This module is the single registry the
``repro-datalog bench`` and ``report`` commands sweep.

A family's ``build(n)`` returns a :class:`Workload`: program, database
and query text.  A cell's ``label`` is the ``strategy`` key of its
report cells on disk; the other fields say what it runs -- an
:data:`repro.engine.STRATEGIES` member, optionally under a join
``order`` or on a storage ``backend``, or one of four non-query
kinds: ``"detect"`` (E6) times separability analysis alone -- the paper's "computationally simple to detect" claim
-- and touches no data; ``"repair"`` / ``"recompute"`` (the
``incremental-write`` family) replay one mutation stream through
:class:`repro.maintenance.MaintainedView` repairs versus a full
recomputation per write, and ``"build"`` times constructing that view
(the semi-naive fixpoint) on the family's database, which is
what a service pays at start-up and on every view rebuild.  A
mutation family supplies the stream via
:attr:`Family.mutations`; the stream is *balanced* (every insert is
later deleted) so each timed repeat starts from the same state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..datalog.database import Database
from ..datalog.parser import parse_program
from ..datalog.programs import Program
from ..workloads.generators import chain, random_dag
from ..workloads.paper import (
    example_1_1_database,
    example_1_1_program,
    example_1_2_database,
    example_1_2_program,
    lemma_4_2_database,
    lemma_4_2_program,
    lemma_4_3_database,
    lemma_4_3_program,
    section_5_nonseparable_program,
)
from .gating import Agrees, Bound, Ratio

__all__ = ["Cell", "Family", "Workload", "FAMILIES", "resolve_families"]


@dataclass(frozen=True)
class Workload:
    """One benchmarkable input: program + data + query."""

    program: Program
    db: Database
    query: str


@dataclass(frozen=True)
class Cell:
    """One column of a family's sweep: its report label and what it runs."""

    label: str
    #: ``"query"`` | ``"detect"`` | ``"repair"`` | ``"recompute"`` |
    #: ``"build"``.
    kind: str = "query"
    #: The ``Engine.query`` strategy of a ``"query"`` cell.
    strategy: Optional[str] = None
    #: Join order of the cell's engine.
    order: str = "greedy"
    #: Storage backend the workload database is mounted on, outside the
    #: timed region: ``"memory"`` is the explicit ``MemoryBackend`` (every
    #: derived relation goes through the storage dispatch), ``"sqlite"``
    #: a temporary out-of-core database; ``None`` a plain in-memory one.
    backend: Optional[str] = None


def _plain(*strategies: str) -> tuple[Cell, ...]:
    return tuple(Cell(name, strategy=name) for name in strategies)


@dataclass(frozen=True)
class Family:
    """One experiment family of the reproduction."""

    key: str
    title: str
    #: What the size parameter means for this family.
    size_means: str
    cells: tuple[Cell, ...]
    build: Callable[[int], Workload]
    #: What Section 4 predicts, recorded into the report for readers.
    expectation: str
    #: Relations that must hold between the cells of one run, beyond
    #: ``plan_compiles`` staying flat (gated for every family).
    gates: tuple = ()
    #: For mutation families: ``mutations(n)`` yields the balanced op
    #: stream ``[("add" | "del", relation, fact), ...]`` both
    #: maintenance cells replay.  ``None`` for query-only families.
    mutations: Callable[[int], list] | None = None


def _e1(n: int) -> Workload:
    return Workload(
        example_1_1_program(), example_1_1_database(n), "buys(a1, Y)?"
    )


def _e2(n: int) -> Workload:
    return Workload(
        example_1_2_program(), example_1_2_database(n), "buys(a1, Y)?"
    )


def _e3(n: int, k: int = 3, w: int = 1) -> Workload:
    # The Lemma 4.1 shape at (k, w): seen_1 is n^w, seen_2 is n^(k-w);
    # with (3, 1) the bound is n^2.
    head = ", ".join(f"X{j}" for j in range(1, k + 1))
    bound_head = ", ".join(f"X{j}" for j in range(1, w + 1))
    bound_body = ", ".join(f"W{j}" for j in range(1, w + 1))
    rest = ", ".join(f"X{j}" for j in range(w + 1, k + 1))
    body_args = ", ".join(x for x in [bound_body, rest] if x)
    program = parse_program(
        f"t({head}) :- a({bound_head}, {bound_body}) & t({body_args}).\n"
        f"t({head}) :- t0({head})."
    ).program
    consts = [f"c{i}" for i in range(1, n + 1)]
    db = Database.from_facts(
        {
            "a": list(itertools.product(consts, repeat=2 * w)),
            "t0": list(itertools.product(consts, repeat=k)),
        }
    )
    query = "t(" + ", ".join(["c1"] * w + [f"Q{j}" for j in range(k - w)])
    return Workload(program, db, query + ")?")


def _e4(n: int, k: int = 2, p: int = 2) -> Workload:
    query = "t(c1, " + ", ".join(f"Q{j}" for j in range(k - 1)) + ")?"
    return Workload(
        lemma_4_2_program(k, p), lemma_4_2_database(n, k, p), query
    )


def _e5(n: int, k: int = 2, p: int = 2) -> Workload:
    return Workload(
        lemma_4_3_program(k, p), lemma_4_3_database(n, k, p), "t(c1, Y)?"
    )


def _e6(n: int) -> Workload:
    # n recursive rules; detection must stay near-linear in rule count.
    head = "t(X1, X2, X3)"
    lines = [
        f"{head} :- a{i}(X1, M{i}) & b{i}(M{i}, W) & t(W, X2, X3)."
        for i in range(n)
    ]
    lines.append(f"{head} :- t0(X1, X2, X3).")
    program = parse_program("\n".join(lines)).program
    return Workload(program, Database(), "t(c, Q1, Q2)?")


#: Length of the chain the e7 query can reach, whatever the sweep size.
E7_REACHABLE = 10


def _e7(n: int) -> Workload:
    # Fixed reachable chain, n distractor edges: Separable work must not
    # scale with n.
    db = Database.from_facts(
        {
            "friend": chain(E7_REACHABLE, "a") + chain(n, "z"),
            "idol": [],
            "perfectFor": [
                (f"a{E7_REACHABLE - 1}", "thing"),
                (f"z{max(n // 2 - 1, 0)}", "other"),
            ],
        }
    )
    db.ensure("idol", 2)
    return Workload(example_1_1_program(), db, "buys(a0, Y)?")


_TC_TEXT = "tc(X, Y) :- e(X, W) & tc(W, Y).\ntc(X, Y) :- e(X, Y)."


def _e8(n: int) -> Workload:
    program = parse_program(_TC_TEXT).program
    db = Database.from_facts(
        {"e": random_dag(n, max(2 * n, n + 1), seed=11)}
    )
    return Workload(program, db, "tc(a0, Y)?")


def _e9(n: int) -> Workload:
    db = Database.from_facts(
        {
            "a": chain(n, "x"),
            "t0": [(f"x{n - 1}", "y0")],
            "b": chain(n, "y") + chain(n, "zz"),
        }
    )
    return Workload(section_5_nonseparable_program(), db, "t(x0, Y)?")


def _skewed_join(n: int) -> Workload:
    # A three-way join whose *size* ranks mislead: ``big`` fans every x
    # out to n/2 z-values while ``sel`` (padded with junk so it is the
    # largest relation) matches exactly one z per y.  Greedy's
    # most-bound/smaller-relation heuristic probes ``big`` before
    # ``sel`` -- Theta(n^2/2) intermediate bindings -- while the cost
    # model's distinct counts put ``sel`` first for Theta(n).  The
    # short ``link`` recursion keeps the fixpoint machinery (delta
    # re-planning included) in the loop.  All relation sizes scale
    # linearly-or-better in n with fixed ratios (a=n < link=2n <
    # big=nf < sel=2nf), so size *ranks* -- and therefore every order's
    # ``plan_compiles`` -- are n-independent, which the plan-growth
    # gate asserts.
    f = max(4, n // 2)
    chain = 4
    program = parse_program(
        "t(X, Z) :- a(X, Y) & big(X, Z) & sel(Y, Z).\n"
        "t(X, Z) :- t(X, W) & link(W, Z)."
    ).program
    db = Database.from_facts(
        {
            "a": [(f"x{i}", f"y{i}") for i in range(n)],
            "big": [
                (f"x{i}", f"z{j}") for i in range(n) for j in range(f)
            ],
            "sel": [(f"y{i}", f"z{i % f}") for i in range(n)]
            + [(f"jy{k}", f"jz{k}") for k in range(2 * n * f - n)],
            "link": [(f"z{j}", f"z{j + 1}") for j in range(chain - 1)]
            + [(f"lw{k}", f"lv{k}") for k in range(2 * n - (chain - 1))],
        }
    )
    return Workload(program, db, "t(x0, Q)?")


def _out_of_core(n: int) -> Workload:
    # Transitive closure on a dense random DAG (the e8 shape, heavier
    # edge factor so the reference cell clears the wall-clock noise
    # floor at modest n).  The same query runs on three storages: a
    # plain in-memory database (``backend-none``, the reference), the
    # explicit MemoryBackend mount (``backend-memory``: what the
    # zero-overhead gate times), and out-of-core SQLite
    # (``backend-sqlite``: the facts live in temporary SQLite files
    # and every join probe is a SQL lookup).
    program = parse_program(_TC_TEXT).program
    db = Database.from_facts({"e": random_dag(n, 4 * n, seed=13)})
    return Workload(program, db, "tc(a0, Y)?")


def _incremental_write(n: int) -> Workload:
    # Example 1.1's chain again: every perfectFor insert at a_i derives
    # buys(a_k, p) for all k <= i, so writes ripple through the
    # recursion and the maintained view earns its keep.
    return Workload(
        example_1_1_program(), example_1_1_database(n), "buys(a1, Y)?"
    )


def _incremental_write_ops(n: int) -> list:
    """The balanced mutation stream for ``incremental-write``.

    ``n`` fresh ``perfectFor`` facts are inserted at the head of the
    chain (anchors a1/a2: localized writes, the case incremental
    maintenance exists for), then deleted in reverse order, so the
    database (and the maintained IDB) ends every replay exactly where
    it started -- timed repeats are i.i.d.  Products accumulate
    mid-replay, so from-scratch re-derives a ``buys`` extent of
    Theta(n^2) tuples per write while each repair touches O(1) facts:
    the Section 4 separation, restated for writes.  Deletions exercise
    the DRed path, insertions the delta-seeded restart.
    """
    adds = [
        ("add", "perfectFor", (f"a{1 + (j % 2)}", f"p{j}"))
        for j in range(n)
    ]
    return adds + [("del", rel, fact) for _, rel, fact in reversed(adds)]


#: A Separable query asks the plan cache once per join per entry into a
#: generated carry loop -- O(joins x size-rank changes of carry) under
#: ``greedy``, O(joins x log2 of the largest carry) under ``cost`` --
#: plus once per exit join; a count that grows with the rounds means a
#: loop went back to planning per round.  These cells enter each loop
#: once (at most e1's two joins plus the exit join, all misses on the
#: cold cache a cell starts with); 6 leaves room for one rank change.
_LOOP_PLANS = Bound(
    "plan_cache_hits", 6, cells=("separable",), kind="plan",
    claim="plan lookups per query are O(joins x rank changes), "
    "not O(rounds)",
)

FAMILIES: dict[str, Family] = {
    "e1": Family(
        key="e1",
        title="Example 1.1: Counting Omega(2^n) vs Separable/Magic O(n)",
        size_means="chain length n",
        cells=_plain("separable", "magic", "counting"),
        build=_e1,
        expectation=(
            "counting superpolynomial (path-indexed count relation); "
            "separable and magic linear"
        ),
        gates=(Agrees("separable"), _LOOP_PLANS),
    ),
    "e2": Family(
        key="e2",
        title="Example 1.2: Magic Omega(n^2) vs Separable O(n)",
        size_means="chain length n",
        cells=_plain("separable", "magic"),
        build=_e2,
        expectation="magic quadratic (all buys(a_i, b_j)); separable linear",
        gates=(Agrees("separable"), _LOOP_PLANS),
    ),
    "e3": Family(
        key="e3",
        title="Lemma 4.1: Separable O(n^max(w, k-w)) at (k, w) = (3, 1)",
        size_means="constants per column n",
        cells=_plain("separable"),
        build=_e3,
        expectation="separable quadratic (seen_2 bound n^(k-w) = n^2)",
    ),
    "e4": Family(
        key="e4",
        title="Lemma 4.2: Magic n^k vs Separable n^(k-1) at k = 2",
        size_means="constants per column n",
        cells=_plain("separable", "magic") + (
            Cell("separable-cost", strategy="separable", order="cost"),
        ),
        build=_e4,
        expectation="magic quadratic; separable linear",
        gates=(
            Agrees("separable"),
            replace(_LOOP_PLANS, cells=("separable", "separable-cost")),
        ),
    ),
    "e5": Family(
        key="e5",
        title="Lemma 4.3: Counting sum p^l vs Separable O(n) at p = 2",
        size_means="descent depth n",
        cells=_plain("separable", "counting"),
        build=_e5,
        expectation="counting superpolynomial; separable linear",
        gates=(Agrees("separable"), _LOOP_PLANS),
    ),
    "e6": Family(
        key="e6",
        title="Detection cost vs rule count (Section 5)",
        size_means="recursive rule count",
        cells=(Cell("detect", kind="detect"),),
        build=_e6,
        expectation="near-linear detection time, no data touched",
    ),
    "e7": Family(
        key="e7",
        title="Section 3.2 focus: reachable work vs distractor size",
        size_means="distractor edges n",
        cells=_plain("separable", "magic", "seminaive"),
        build=_e7,
        expectation=(
            "separable tuples_examined constant in n; seminaive scales "
            "with the whole database"
        ),
        gates=(Agrees("separable"), _LOOP_PLANS),
    ),
    "e8": Family(
        key="e8",
        title="Average case: transitive closure on a random DAG",
        size_means="node count n",
        cells=_plain("separable", "magic", "seminaive", "nodedup"),
        build=_e8,
        expectation=(
            "separable <= magic << seminaive in generated tuples; "
            "nodedup pays duplicate derivation paths"
        ),
        gates=(Agrees("separable"),),
    ),
    "e9": Family(
        key="e9",
        title="Section 5 relaxed mode vs Magic on a condition-4 violator",
        size_means="chain length n",
        cells=_plain("relaxed", "magic"),
        build=_e9,
        expectation="both linear; relaxed pays the unfocused sideways pass",
        gates=(Agrees("magic"),),
    ),
    "incremental-write": Family(
        key="incremental-write",
        title="Incremental maintenance vs recompute on a write stream",
        size_means="chain length n",
        cells=(
            Cell("incremental", kind="repair"),
            Cell("fromscratch", kind="recompute"),
            Cell("build", kind="build"),
        ),
        build=_incremental_write,
        expectation=(
            "incremental repairs touch O(delta) facts per write; "
            "from-scratch re-derives the whole IDB per write; building "
            "the view is one semi-naive fixpoint"
        ),
        gates=(
            # ``build`` answers with the view's derived-fact count, not
            # a sum over the write stream.
            Agrees("fromscratch", cells=("incremental",)),
            Ratio(
                "incremental", "fromscratch", 1.0, kind="maintenance",
                claim="repairs must beat recomputation", floor_s=1e-3,
            ),
        ),
        mutations=_incremental_write_ops,
    ),
    "out-of-core": Family(
        key="out-of-core",
        title="Storage backends: in-memory dispatch cost and SQLite spill",
        size_means="DAG node count n (4n edges)",
        cells=(
            Cell("backend-none", strategy="seminaive"),
            Cell("backend-memory", strategy="seminaive", backend="memory"),
            Cell("backend-sqlite", strategy="seminaive", backend="sqlite"),
        ),
        build=_out_of_core,
        expectation=(
            "answers byte-identical on every backend; backend-memory "
            "within noise of the no-backend reference (selection is "
            "free); backend-sqlite pays per-probe SQL overhead but "
            "keeps the fact set out of process memory"
        ),
        gates=(
            Agrees("backend-none"),
            # Enough slack that timer noise on a loaded CI runner does
            # not fail it.  backend-sqlite has no time gate: paying
            # per-probe SQL cost to keep facts out of process memory is
            # the point, not a regression.
            Ratio(
                "backend-memory", "backend-none", 1.5, kind="backend",
                claim="backend selection must be free", floor_s=5e-3,
            ),
        ),
    ),
    "skewed-join": Family(
        key="skewed-join",
        title="Cost-based join order vs greedy size-rank on skewed data",
        size_means="selective tuples n (big fans out to n/2 per x)",
        cells=tuple(
            Cell(f"order-{order}", strategy="seminaive", order=order)
            for order in ("greedy", "left_to_right", "cost")
        ),
        build=_skewed_join,
        expectation=(
            "greedy probes the misleadingly-small fanout relation first "
            "(quadratic bindings); cost puts the selective atom second "
            "(linear); answers byte-identical across all three orders, "
            "plan_compiles flat"
        ),
        gates=(
            Agrees("order-greedy"),
            Ratio(
                "order-cost", "order-greedy", 1.0, kind="plan",
                claim="the cost model must reduce join fanout",
                metric="bindings_out", sizes="any",
            ),
            Ratio(
                "order-cost", "order-greedy", 1.0, kind="plan",
                claim="cost order must beat greedy on wall time",
                floor_s=1e-3, sizes="any",
            ),
        ),
    ),
}


def resolve_families(keys: str | list[str] | None) -> list[Family]:
    """Parse a ``--families`` argument into Family objects.

    Accepts a comma-separated string, a list of keys, or ``None`` /
    ``"all"`` for every family.  Unknown keys raise ``ValueError`` with
    the valid choices.
    """
    if keys is None:
        names = sorted(FAMILIES)
    else:
        if isinstance(keys, str):
            names = [k.strip() for k in keys.split(",") if k.strip()]
        else:
            names = list(keys)
        if names in (["all"], []):
            names = sorted(FAMILIES)
    out: list[Family] = []
    for name in names:
        family = FAMILIES.get(name.lower())
        if family is None:
            raise ValueError(
                f"unknown family {name!r}; choose from "
                f"{', '.join(sorted(FAMILIES))}"
            )
        out.append(family)
    return out
