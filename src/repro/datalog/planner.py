"""Cost-based join ordering: selectivity estimates over a join graph.

:func:`~repro.datalog.plan_cache.greedy_permutation` orders a body by
*comparing* relation sizes -- it never multiplies them, so it cannot
tell a join that keeps n bindings from one that fans out to 32n.  This
module builds the classic System-R estimate instead: per-atom output
cardinalities from ``len(relation)``, per-column distinct counts
(:meth:`Relation.column_distinct_counts`), and equi-join selectivities
``1/max(distinct)`` refined by a sampled containment check
(:meth:`Relation.sample` against the joined column's value set).  A
left-deep order is chosen by dynamic programming over join-graph
subsets -- exact up to :data:`DP_MAX_ATOMS` atoms, a one-step-lookahead
greedy sweep above that -- minimising the sum of intermediate result
sizes.

Everything here is deterministic: statistics are content hashes and
set cardinalities (never set iteration order), DP ties break on the
lexicographically smallest permutation, and the per-mask cardinality is
a function of the *set* of atoms, so the DP recurrence is sound.

A fixpoint re-plans when a body relation crosses a power of two
(:func:`size_signature`, the key of :meth:`PlanCache.plan_for`'s order
memo), and a generated carry loop once per such crossing of its carry
(:meth:`PlanCache.loop_for`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .atoms import Atom
from .database import Database
from .terms import Constant, Variable

__all__ = [
    "DP_MAX_ATOMS",
    "SAMPLE_SIZE",
    "cost_permutation",
    "size_signature",
]

#: Same string as :data:`repro.datalog.plan_cache.EQ`; duplicated here
#: because plan_cache imports this module.
_EQ = "eq"

#: Tuples drawn per relation for the containment refinement.
SAMPLE_SIZE = 32

#: Exact DP subset enumeration up to this many non-eq atoms (2^k masks);
#: larger bodies take the greedy one-step-lookahead sweep.
DP_MAX_ATOMS = 8

#: Cardinality floor: keeps empty-relation estimates comparable without
#: ever multiplying a real cost through zero.
_MIN_ROWS = 1e-6

#: Containment floor: a sampled miss never drives an estimate to zero.
_MIN_CONTAINMENT = 0.01


class _AtomInfo:
    """Planning statistics for one non-eq body atom."""

    __slots__ = ("idx", "atom", "rel", "size", "distinct", "var_cols",
                 "base", "vars")

    def __init__(self, idx: int, atom: Atom,
                 bound_vars: frozenset, db: Optional[Database]) -> None:
        self.idx = idx
        self.atom = atom
        rel = db.relation(atom.predicate) if db is not None else None
        self.rel = rel
        self.size = len(rel) if rel is not None else 0
        distinct = rel.column_distinct_counts() if rel is not None \
            else (0,) * len(atom.args)
        self.distinct = distinct
        var_cols: dict[Variable, list[int]] = {}
        base = float(self.size)
        for col, term in enumerate(atom.args):
            d = max(distinct[col] if col < len(distinct) else 0, 1)
            if isinstance(term, Constant) or term in bound_vars:
                # A column pinned to one value keeps ~size/d tuples.
                base /= d
            else:
                var_cols.setdefault(term, []).append(col)
        self.var_cols = var_cols
        self.base = base
        self.vars = frozenset(var_cols)


def _containment(info_a: "_AtomInfo", col: int,
                 info_b: "_AtomInfo") -> float:
    """Fraction of ``info_a``'s sampled column values present in
    ``info_b`` -- the sampled refinement of the ``1/max(distinct)``
    uniformity assumption.  Checked against ``info_b``'s full (cached)
    value set, so a small sample of a huge relation never produces a
    false zero.
    """
    if info_a.rel is None or info_b.rel is None:
        return 1.0
    sample = info_a.rel.sample(SAMPLE_SIZE)
    if not sample:
        return 1.0
    values = info_b.rel.distinct_values()
    hits = sum(1 for t in sample if t[col] in values)
    return min(1.0, max(hits / len(sample), _MIN_CONTAINMENT))


def _eq_selectivity(occurrences: list[tuple["_AtomInfo", int]]) -> float:
    """Selectivity of one shared variable's equality constraints.

    ``occurrences`` is every (atom, column) the variable appears in
    within the current subset; ``m`` occurrences impose ``m-1``
    equalities, each estimated at ``1/max(distinct)`` -- a function of
    the occurrence *set*, which keeps :func:`_card` order-independent.
    The first cross-atom pair (smallest relation probing the other)
    additionally pays the sampled containment fraction.
    """
    max_d = 1
    for info, col in occurrences:
        d = info.distinct[col] if col < len(info.distinct) else 0
        if d > max_d:
            max_d = d
    sel = (1.0 / max_d) ** (len(occurrences) - 1)
    cross = sorted(
        {id(info): (info, col) for info, col in occurrences}.values(),
        key=lambda pair: (pair[0].size, pair[0].idx),
    )
    if len(cross) >= 2:
        (small, col), (other, _) = cross[0], cross[1]
        sel *= _containment(small, col, other)
    return sel


def _card(infos: Sequence["_AtomInfo"]) -> float:
    """Estimated result size of joining exactly this set of atoms."""
    rows = 1.0
    for info in infos:
        rows *= info.base
    occs: dict[Variable, list[tuple[_AtomInfo, int]]] = {}
    for info in infos:
        for var, cols in info.var_cols.items():
            occs.setdefault(var, []).extend((info, c) for c in cols)
    for entries in occs.values():
        if len(entries) >= 2:
            rows *= _eq_selectivity(entries)
    return max(rows, _MIN_ROWS)


def size_signature(body: tuple[Atom, ...],
                   db: Optional[Database]) -> tuple[int, ...]:
    """Log-scale cardinality signature, the cost-plan memo key.

    One ``floor(log2)+1`` bucket per atom (``-1`` for eq atoms, ``0``
    for empty or absent relations): O(arity-free) to compute per call,
    and taking O(log n) distinct values per body over a whole run -- so
    re-keying stays O(1) per body while still noticing the
    order-of-magnitude shifts that could change the chosen plan.
    """
    sig = []
    for a in body:
        if a.predicate == _EQ:
            sig.append(-1)
            continue
        rel = db.relation(a.predicate) if db is not None else None
        n = len(rel) if rel is not None else 0
        sig.append(n.bit_length())
    return tuple(sig)


def cost_permutation(
    body: tuple[Atom, ...],
    bound_vars: frozenset,
    db: Optional[Database] = None,
) -> tuple[tuple[int, ...], float]:
    """Left-deep cost-based order over the body's non-eq atoms.

    Returns ``(permutation, estimated_rows)``: the non-eq body indices
    in execution order (eq atoms are interleaved later by the plan
    cache's deferral pass) and the estimated final result cardinality
    (the ``plan_est_rows`` counter).
    Cross products are deferred -- an atom sharing no variable with the
    prefix (and binding nothing) is only picked when no connected atom
    remains.
    """
    infos = [
        _AtomInfo(i, a, bound_vars, db)
        for i, a in enumerate(body)
        if a.predicate != _EQ
    ]
    if not infos:
        return (), 0.0
    if len(infos) <= DP_MAX_ATOMS:
        order, est = _dp_order(infos)
    else:
        order, est = _greedy_sweep(infos)
    return tuple(infos[p].idx for p in order), est


def _connected(info: "_AtomInfo", prefix_vars: frozenset,
               first: bool) -> bool:
    return first or bool(info.vars & prefix_vars) \
        or len(info.vars) < len(info.atom.args)


def _dp_order(
    infos: list["_AtomInfo"],
) -> tuple[tuple[int, ...], float]:
    """Exact left-deep DP over atom subsets (Selinger-style).

    ``cost(S) = min over a in S of cost(S - a) + card(S)`` -- sound
    because :func:`_card` depends only on the subset, never the order
    it was built in.  Cross-product extensions sort after connected
    ones, and exact ties break on the smaller permutation tuple, so the
    result is deterministic.
    """
    k = len(infos)
    full = (1 << k) - 1
    cards: dict[int, float] = {}

    def card(mask: int) -> float:
        c = cards.get(mask)
        if c is None:
            c = _card([infos[p] for p in range(k) if mask >> p & 1])
            cards[mask] = c
        return c

    # mask -> (cross_products, cost, perm, prefix_vars)
    best: dict[int, tuple[int, float, tuple[int, ...], frozenset]] = {
        0: (0, 0.0, (), frozenset())
    }
    for mask in range(1, full + 1):
        chosen = None
        c_mask = card(mask)
        for p in range(k):
            bit = 1 << p
            if not mask & bit:
                continue
            crosses, cost, perm, pvars = best[mask ^ bit]
            info = infos[p]
            if not _connected(info, pvars, mask == bit):
                crosses += 1
            entry = (crosses, cost + c_mask, perm + (p,))
            if chosen is None or entry < chosen:
                chosen = entry
        assert chosen is not None
        crosses, cost, perm = chosen
        best[mask] = (
            crosses, cost, perm,
            frozenset().union(*(infos[p].vars for p in perm)),
        )
    _, _, perm, _ = best[full]
    return perm, card(full)


def _greedy_sweep(
    infos: list["_AtomInfo"],
) -> tuple[tuple[int, ...], float]:
    """One-step-lookahead fallback for bodies past the DP cutoff:
    repeatedly append the atom minimising the next intermediate
    estimate (connected atoms first).  O(k^2) cardinality evaluations.
    """
    k = len(infos)
    remaining = list(range(k))
    perm: list[int] = []
    prefix: list[_AtomInfo] = []
    pvars: frozenset = frozenset()
    est = 0.0
    while remaining:
        chosen = None
        for j, p in enumerate(remaining):
            info = infos[p]
            rows = _card(prefix + [info])
            entry = (
                0 if _connected(info, pvars, not perm) else 1,
                rows, p, j,
            )
            if chosen is None or entry < chosen:
                chosen = entry
        _, est, p, j = chosen
        remaining.pop(j)
        perm.append(p)
        prefix.append(infos[p])
        pvars = pvars | infos[p].vars
    return tuple(perm), est
