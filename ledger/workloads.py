"""Seeded input generation for the ledger's six workloads.

Everything the program under test ever receives -- rule text, fact
lists, operation streams, Zipf draws -- is made here from ``--seed``;
``repro.workloads`` is deliberately not used, so a change under ``src/``
cannot move the inputs.  The same seed gives a byte-identical
:meth:`Workload.digest`.

Each generator keeps the *amount* of work fixed by the sizes below and
lets the seed choose only labels and wiring (which chain node a query
starts from, which edges a random graph has), so a metric moves with
the code under test and not with the seed.

A workload also carries a :class:`Recursion`: the structure of its
recursive predicate written down by hand, which is all that
``reference.py`` reads.  The engine sees only the rule text.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["Step", "Recursion", "Workload", "WORKLOADS", "SIZES", "build"]


@dataclass(frozen=True)
class Step:
    """One recursive rule ``t(..h..) :- relation(..) & t(..b..)``.

    ``head`` / ``body`` are the columns of ``relation`` that carry the
    class columns of the rule head / of the recursive body atom.
    """

    relation: str
    head: tuple[int, ...]
    body: tuple[int, ...]


@dataclass(frozen=True)
class Recursion:
    """A separable recursion as ``classes* . exit``: per equivalence
    class its argument positions and its rules; the remaining positions
    are persistent."""

    predicate: str
    arity: int
    exit: str
    classes: tuple[tuple[tuple[int, ...], tuple[Step, ...]], ...]


@dataclass
class Workload:
    name: str
    rules: str
    recursion: Recursion
    facts: dict[str, list[tuple]]
    #: One closed-loop operation stream per client thread.  An op is
    #: ``("read", text, pattern)`` or ``("add"|"del", predicate, fact)``;
    #: ``pattern`` has ``None`` where the query has a variable.
    clients: list[list[tuple]]
    #: Query texts for the ``cold_query_ms`` measurements, of one kind and
    #: one cost, so the metric does not depend on which the seed put first.
    cold: list[str]
    #: ``ServiceConfig`` keyword arguments; ``None`` = a bare ``Engine``.
    service: Optional[dict]
    sizes: dict

    def digest(self) -> str:
        """sha256 over everything generated (rules, facts, op streams)."""
        h = hashlib.sha256()
        h.update(self.rules.encode())
        for pred in sorted(self.facts):
            h.update(repr((pred, sorted(self.facts[pred]))).encode())
        h.update(repr((self.clients, self.cold)).encode())
        return h.hexdigest()


def _read(predicate: str, pattern: tuple) -> tuple:
    args = ", ".join(
        f"V{i}" if value is None else str(value)
        for i, value in enumerate(pattern)
    )
    return ("read", f"{predicate}({args})?", pattern)


def _zipf(rng: random.Random, population: list, count: int,
          exponent: float = 1.1) -> list:
    """``count`` draws over ``population`` in rank order, rank ``r``
    weighted ``1 / r**exponent``.

    The frequencies are the exact Zipf quotas (largest-remainder
    rounding) and only the order is drawn from ``rng``: how many distinct
    seeds a stream has, and how often each repeats, is the same for
    every seed.
    """
    weights = [1.0 / (r ** exponent) for r in range(1, len(population) + 1)]
    total = sum(weights)
    quotas = [count * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)),
                          key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[:count - sum(counts)]:
        counts[r] += 1
    draws = [p for p, c in zip(population, counts) for _ in range(c)]
    rng.shuffle(draws)
    return draws


def _tiers(rng: random.Random, names: list[str], tiers: int,
           fanout: int) -> list[tuple[str, str]]:
    """A layered DAG: every node points at ``fanout`` nodes one tier on."""
    width = len(names) // tiers
    edges = []
    for t in range(tiers - 1):
        nxt = names[(t + 1) * width:(t + 2) * width]
        for src in names[t * width:(t + 1) * width]:
            edges += [(src, dst) for dst in rng.sample(nxt, fanout)]
    return edges


# -- Engine workloads --------------------------------------------------------

EXAMPLE_1_1 = (
    "buys(X, Y) :- friend(X, W) & buys(W, Y).\n"
    "buys(X, Y) :- idol(X, W) & buys(W, Y).\n"
    "buys(X, Y) :- perfectFor(X, Y).\n"
)
_EXAMPLE_1_1 = Recursion("buys", 2, "perfectFor", (
    ((0,), (Step("friend", (0,), (1,)), Step("idol", (0,), (1,)))),
))


def chain_deep(rng: random.Random, n: int, items: int, ops: int) -> Workload:
    """Example 1.1 on the Section 4 database: ``friend`` = ``idol`` = a
    chain of ``n``; queries start in the first tenth of the chain."""
    edges = [(f"a{i}", f"a{i + 1}") for i in range(1, n)]
    perfect = [(f"a{n}", "b0")] + [
        (f"a{rng.randint(n // 2, n)}", f"b{j}") for j in range(1, items)
    ]
    starts = rng.sample(range(1, n // 10 + 1), ops)
    reads = [_read("buys", (f"a{i}", None)) for i in starts]
    return Workload(
        "chain-deep", EXAMPLE_1_1, _EXAMPLE_1_1,
        {"friend": edges, "idol": list(edges), "perfectFor": perfect},
        [reads], [text for _, text, _ in reads],
        None, dict(n=n, items=items, ops=ops),
    )


LEMMA_4_1 = (
    "t(X1, X2, X3) :- a(X1, W1) & t(W1, X2, X3).\n"
    "t(X1, X2, X3) :- t0(X1, X2, X3).\n"
)
_LEMMA_4_1 = Recursion("t", 3, "t0", (
    ((0,), (Step("a", (0,), (1,)),)),
))


def dense_lemma41(rng: random.Random, n: int, ops: int) -> Workload:
    """The Lemma 4.1 cell (k=3, w=1): dense ``a`` and ``t0`` over ``n``
    constants, each with a fixed number of seeded holes so answers
    differ per query while the work stays the same."""
    consts = [f"c{i}" for i in range(1, n + 1)]
    a = list(itertools.product(consts, repeat=2))
    t0 = list(itertools.product(consts, repeat=3))
    a = rng.sample(a, len(a) - n)
    t0 = rng.sample(t0, len(t0) - len(t0) // 16)
    reads = [_read("t", (c, None, None)) for c in rng.sample(consts, ops)]
    return Workload(
        "dense-lemma41", LEMMA_4_1, _LEMMA_4_1, {"a": a, "t0": t0},
        [reads], [text for _, text, _ in reads],
        None, dict(n=n, ops=ops),
    )


EXAMPLE_2_4 = (
    "t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).\n"
    "t(X, Y, Z) :- t(X, Y, W) & b(W, Z).\n"
    "t(X, Y, Z) :- t0(X, Y, Z).\n"
)
_EXAMPLE_2_4 = Recursion("t", 3, "t0", (
    ((0, 1), (Step("a", (0, 1), (2, 3)),)),
    ((2,), (Step("b", (1,), (0,)),)),
))


def partial_union(rng: random.Random, roots: int, fan: int, width: int,
                  depth: int, zs: int, ops: int) -> Workload:
    """Example 2.4 over a layered pair graph.

    Root ``x_i`` owns ``fan / 2`` pairs ``(x_i, y)``, each with two
    ``a`` edges into layer 1, all ``fan`` targets distinct: the partial
    selection ``t(x_i, Y, Z)?`` is a Lemma 2.1 union of exactly ``fan``
    full selections, each a small fixpoint through ``depth`` layers of
    out-degree 2.  One read in four is a full selection on the other
    class, ``t(X, Y, z_j)?``.
    """
    layers = [
        [(f"p{l}_{k}", f"q{l}_{k}") for k in range(width)]
        for l in range(depth)
    ]
    z_names = [f"z{j}" for j in range(zs)]
    a, t0 = [], []
    for i in range(roots):
        targets = rng.sample(layers[0], fan)
        for j in range(fan // 2):
            src = (f"x{i}", f"y{i}_{j}")
            a += [src + targets[2 * j], src + targets[2 * j + 1]]
        t0.append((f"x{i}", f"y{i}_0", rng.choice(z_names)))
    for l in range(depth - 1):
        for src in layers[l]:
            a += [src + dst for dst in rng.sample(layers[l + 1], 2)]
    for layer in layers[-2:]:
        for pair in layer:
            t0 += [pair + (z,) for z in rng.sample(z_names, 2)]
    b = _tiers(rng, z_names, tiers=6, fanout=2)
    partial = [(f"x{i}", None, None)
               for i in rng.choices(range(roots), k=ops - ops // 4)]
    full = [(None, None, z) for z in rng.choices(z_names, k=ops // 4)]
    reads = partial + full
    rng.shuffle(reads)
    return Workload(
        "partial-union", EXAMPLE_2_4, _EXAMPLE_2_4,
        {"a": a, "b": b, "t0": t0},
        [[_read("t", p) for p in reads]],
        [_read("t", p)[1] for p in partial],
        None, dict(roots=roots, fan=fan, width=width, depth=depth,
                   zs=zs, ops=ops),
    )


# -- QueryService workloads --------------------------------------------------

SOCIAL_COMMERCE = (
    "buys(X, Y) :- friend(X, W) & buys(W, Y).\n"
    "buys(X, Y) :- idol(X, W) & buys(W, Y).\n"
    "buys(X, Y) :- buys(X, W) & cheaper(Y, W).\n"
    "buys(X, Y) :- perfectFor(X, Y).\n"
)
_SOCIAL_COMMERCE = Recursion("buys", 2, "perfectFor", (
    ((0,), (Step("friend", (0,), (1,)), Step("idol", (0,), (1,)))),
    ((1,), (Step("cheaper", (0,), (1,)),)),
))

#: Facts the write streams toggle: add f1..f8, delete f8..f1, repeat, so
#: the database cycles through 16 states and every pass ends where it began.
WRITE_POOL = 8
WRITE_EVERY = 10


COMMUNITIES = 5
TIERS = 10


def _social(rng: random.Random, people: int, products: int):
    """A social-commerce graph whose shape does not depend on the seed.

    ``friend`` makes each of ``COMMUNITIES`` equal communities strongly
    connected (a ring plus one random chord per member); ``idol`` edges
    lead from a community to the next one only, so a member of community
    ``c`` reaches exactly communities ``c..``; ``cheaper`` is ``TIERS``
    price tiers.  The seed picks the chords, the idols and the perfect
    matches, the same number of each per community and tier.

    Returns the communities, the tiers and the facts.
    """
    size = people // COMMUNITIES
    communities = [[f"u{c}_{k}" for k in range(size)]
                   for c in range(COMMUNITIES)]
    width = products // TIERS
    tiers = [[f"i{t}_{k}" for k in range(width)] for t in range(TIERS)]
    friend, idol = set(), set()
    for c, members in enumerate(communities):
        for k, u in enumerate(members):
            friend.add((u, members[(k + 1) % size]))
            friend.add((u, rng.choice(members)))
        if c + 1 < COMMUNITIES:
            idol.update((rng.choice(members), rng.choice(communities[c + 1]))
                        for _ in range(size // 2))
    items = [i for tier in tiers for i in tier]
    # cheaper(Y, W): Y is a cheaper alternative to W, one price tier down.
    cheaper = [(y, w) for w, y in _tiers(rng, items, TIERS, fanout=2)]
    perfect = {(rng.choice(communities[j % COMMUNITIES]),
                rng.choice(tiers[j % TIERS]))
               for j in range(people // 3)}
    facts = {"friend": sorted(friend), "idol": sorted(idol),
             "cheaper": cheaper, "perfectFor": sorted(perfect)}
    return communities, tiers, facts


def _interleave(groups: list[list], count: int) -> list:
    """The first ``count`` of ``groups`` dealt round-robin: popularity
    rank ``r`` always falls in group ``r % len(groups)``."""
    dealt = [g[k] for k in range(len(groups[0])) for g in groups]
    return dealt[:count]


def _social_reads(rng: random.Random, communities, tiers, count: int,
                  active_users: int, active_items: int) -> list:
    """Zipf(1.1) seeds, ``buys(u, Y)?`` 4:1 ``buys(X, item)?``."""
    by_user = _zipf(rng, _interleave(communities, active_users),
                    count - count // 5)
    by_item = _zipf(rng, _interleave(tiers, active_items), count // 5)
    reads = [(u, None) for u in by_user] + [(None, i) for i in by_item]
    rng.shuffle(reads)
    return [_read("buys", pattern) for pattern in reads]


def _social_cold(communities) -> list[str]:
    """Cold queries: members of community 0, who reach everyone."""
    return [_read("buys", (u, None))[1] for u in communities[0]]


def serve_read(rng: random.Random, people: int, products: int,
               active_users: int, active_items: int, ops: int) -> Workload:
    """Read-only, two closed-loop clients, memo larger than the seed set."""
    communities, tiers, facts = _social(rng, people, products)
    reads = _social_reads(rng, communities, tiers, ops,
                          active_users, active_items)
    return Workload(
        "serve-read", SOCIAL_COMMERCE, _SOCIAL_COMMERCE, facts,
        [reads[0::2], reads[1::2]], _social_cold(communities),
        dict(workers=2),
        dict(people=people, products=products, ops=ops,
             distinct_seeds=active_users + active_items, memo_size=1024),
    )


def _serve_writes(name: str, service: dict):
    def generate(rng: random.Random, people: int, products: int,
                 active_users: int, active_items: int,
                 cycles: int) -> Workload:
        communities, tiers, facts = _social(rng, people, products)
        # Half the pool: a newcomer befriends a member (a delta as large
        # as what that member buys); half: a member finds a new product
        # perfect (a delta as wide as everyone who reaches that member).
        # One of each per community 0..3 and every name fresh, so the
        # deltas' sizes are the same for every seed.
        pool: list[tuple] = []
        for c in range(WRITE_POOL // 2):
            pool.append(("friend", (f"new{c}", rng.choice(communities[c]))))
            pool.append(("perfectFor", (rng.choice(communities[c]),
                                        f"gift{c}")))
        writes = [("add",) + w for w in pool] + \
                 [("del",) + w for w in reversed(pool)]
        total = cycles * len(writes) * WRITE_EVERY
        reads = iter(_social_reads(
            rng, communities, tiers, total - total // WRITE_EVERY,
            active_users, active_items))
        ops = [
            writes[(k // WRITE_EVERY) % len(writes)]
            if k % WRITE_EVERY == WRITE_EVERY - 1 else next(reads)
            for k in range(total)
        ]
        return Workload(
            name, SOCIAL_COMMERCE, _SOCIAL_COMMERCE, facts, [ops],
            _social_cold(communities), service,
            dict(people=people, products=products, ops=total,
                 distinct_seeds=active_users + active_items,
                 write_share=1 / WRITE_EVERY, write_pool=WRITE_POOL),
        )
    return generate


serve_mixed = _serve_writes(
    "serve-mixed", dict(workers=1, incremental=True))
serve_sqlite = _serve_writes(
    "serve-sqlite", dict(workers=1, incremental=False, backend="sqlite"))


#: name -> (generator, full sizes, --quick sizes).  ``ops`` (or
#: ``cycles`` of 160 ops) is the length of one pass and ``segment`` the
#: ops per client between two calibrations; the full sizes were set on
#: the 2-core container so that a pass takes about a second and a
#: segment about a quarter of one (README.md, "Sizing").
SIZES = {
    "chain-deep": (chain_deep,
                   dict(n=1000, items=12, ops=48, segment=12),
                   dict(n=60, items=4, ops=6, segment=3)),
    "dense-lemma41": (dense_lemma41,
                      dict(n=36, ops=32, segment=8),
                      dict(n=8, ops=6, segment=3)),
    "partial-union": (partial_union,
                      dict(roots=40, fan=20, width=32, depth=5, zs=24,
                           ops=112, segment=28),
                      dict(roots=4, fan=4, width=6, depth=3, zs=12, ops=8,
                           segment=4)),
    "serve-read": (serve_read,
                   dict(people=500, products=100, active_users=100,
                        active_items=20, ops=1200, segment=100),
                   dict(people=40, products=20, active_users=12,
                        active_items=4, ops=60, segment=10)),
    "serve-mixed": (serve_mixed,
                    dict(people=150, products=50, active_users=50,
                         active_items=10, cycles=2, segment=80),
                    dict(people=40, products=20, active_users=12,
                         active_items=4, cycles=1, segment=80)),
    "serve-sqlite": (serve_sqlite,
                     dict(people=150, products=50, active_users=50,
                          active_items=10, cycles=2, segment=80),
                     dict(people=40, products=20, active_users=12,
                          active_items=4, cycles=1, segment=80)),
}
WORKLOADS = tuple(SIZES)


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The workload ``name`` for ``seed`` (same seed, same bytes)."""
    generator, full, tiny = SIZES[name]
    sizes = dict(tiny if quick else full)
    segment = sizes.pop("segment")
    workload = generator(random.Random(f"{name}:{seed}"), **sizes)
    workload.sizes.update(segment=segment, clients=len(workload.clients),
                          engine=workload.service is None)
    return workload
