"""Compiled join kernels: slot-based plans cached per (body, signature).

:func:`~repro.datalog.joins.evaluate_body` and its siblings run every
rule application through this module, which compiles a rule body once
into a :class:`JoinPlan` -- a flat sequence of atom steps
with precomputed index signatures, key templates, register slots for the
free variables, and ``eq/2`` guards fused between steps -- and each plan
generates, per output template, the *source* of a specialised Python
function: nested ``for`` loops over ``Relation.lookup`` results with the
registers as locals.  One generator emits both flavours: a lazy one
(``yield`` per output tuple) for evaluators that watch their own
insertions mid-iteration, and a set-at-a-time one that writes into the
caller's ``produced`` set, for the carry loops of Figure 2.

Plans are **pure functions of the body, the bound-variable signature,
and the atom sequence actually executed** -- never of tuple values:

* the greedy heuristic needs relation sizes only to break ties, so the
  ordering pass (:func:`greedy_permutation`) is separated from
  compilation: the cache is keyed on the resulting *permutation*, and a
  plan compiled on round 1 is still correct (and still the same plan)
  on round 40.  No invalidation machinery is needed, and because a
  permutation depends only on the size *ranks* of the body's relations
  -- O(1) distinct values per body over any fixpoint run --
  ``plan_compiles`` stays O(1) per (body, signature) regardless of
  database size or round count;
* what *does* depend on the data -- which tuples an index bucket holds
  -- already lives inside :class:`~repro.datalog.database.Relation`'s
  lazy indexes, which are maintained incrementally on ``add``.

The module-level :data:`PLAN_CACHE` is shared by every evaluator;
callers that want deterministic ``plan_*`` counters (the bench harness)
call :meth:`PlanCache.clear` first, which also drops every generated
function.

One deliberate fast-path divergence from the reference interpreter: a
plan resolves all body relations up front and yields nothing if any is
absent or empty.  That is sound for every evaluator here (a relation
empty at call start cannot contribute a match, and fixpoint loops only
grow relations via *completed* matches), but a consumer that grows a
relation from empty *while* iterating will not see the late tuples.  No
caller does this.
"""

from __future__ import annotations

import linecache
import threading
import zlib
from functools import partial
from typing import Iterator, Mapping, Optional, Sequence

from ..stats import EvaluationStats
from .atoms import Atom
from .database import Database, Relation
from .terms import Constant, ConstValue, Variable

__all__ = [
    "EQ",
    "ORDERS",
    "JoinPlan",
    "PlanCache",
    "PLAN_CACHE",
    "compile_join_plan",
    "greedy_permutation",
    "relation_sink",
]

#: What a delta variant of a rule calls the delta of an SCC member
#: (``DELTA + predicate``); never collides with a parsed predicate name.
DELTA = "Δ"

#: Recognised join-order strategies.  ``greedy`` and ``left_to_right``
#: are the PR 4 heuristics; ``cost`` runs the selectivity-aware planner
#: (:mod:`repro.datalog.planner`).
ORDERS = ("greedy", "left_to_right", "cost")

#: Reserved built-in equality predicate, produced by rectification
#: (Section 2: repeated head variables and head constants "can be handled
#: by adding equalities to the rule bodies").  ``eq(X, Y)`` filters when
#: both sides are bound and assigns when exactly one is.
EQ = "eq"

# Guard opcodes (compiled eq/2 atoms).  Operand sources are encoded as
# (is_slot, value): a register index when is_slot, a constant otherwise.
_INF = float("inf")
_FILTER = 0  # (0, a_is_slot, a, b_is_slot, b) -- pass iff values equal
_ASSIGN = 1  # (1, src_is_slot, src, dst_slot) -- regs[dst] = value


class JoinPlan:
    """A compiled join kernel for one (body, bound-signature, order).

    Immutable once built; see :func:`compile_join_plan`.  ``steps`` is a
    tuple of ``(predicate, positions, key_sources, writes, checks,
    guards)`` records:

    ``positions``
        bound argument positions, the index signature passed to
        :meth:`Relation.lookup`;
    ``key_sources``
        per bound position, ``(is_slot, slot_or_const)`` -- how to build
        the lookup key from the registers;
    ``writes``
        ``(position, slot)`` for the first occurrence of each free
        variable in the atom;
    ``checks``
        ``(position, slot)`` for repeated free variables within the
        atom (slot was written earlier in the same step);
    ``guards``
        compiled ``eq/2`` atoms scheduled between this step and the
        next: filters and assigns over the registers.

    The steps are not interpreted: :meth:`_kernel` turns them, once per
    output template and flavour, into the source of a specialised
    Python function (see :meth:`kernel_source`).
    """

    __slots__ = (
        "body",
        "bound_vars",
        "order",
        "preload",
        "pre_guards",
        "steps",
        "outputs",
        "always_empty",
        "_preds",    # the steps' predicates, in execution order
        "_slot_of",  # variable -> register slot
        "_kernels",  # (output, bulk) -> (function, constants, inputs)
        "_shapes",   # source text -> function, shared across plans
    )

    def __init__(
        self,
        body: tuple[Atom, ...],
        bound_vars: frozenset[Variable],
        order: str,
        preload: tuple[tuple[Variable, int], ...],
        pre_guards: tuple[tuple, ...],
        steps: tuple[tuple, ...],
        outputs: tuple[Variable, ...],
        always_empty: bool,
        slot_of: dict[Variable, int],
        shapes: Optional[dict] = None,
    ) -> None:
        self.body = body
        self.bound_vars = bound_vars
        self.order = order
        self.preload = preload
        self.pre_guards = pre_guards
        self.steps = steps
        self.outputs = outputs
        self.always_empty = always_empty
        self._preds = tuple(step[0] for step in steps)
        self._slot_of = slot_of
        self._kernels: dict[tuple, tuple] = {}
        self._shapes: dict = {} if shapes is None else shapes

    def atom_order(self) -> tuple[str, ...]:
        """Predicates in execution order (for tests and plan dumps)."""
        return self._preds

    def execute(
        self,
        db: Database,
        initial_bindings: Optional[Mapping[Variable, ConstValue]],
        stats: Optional[EvaluationStats] = None,
        tracer=None,
    ) -> Iterator[dict[Variable, ConstValue]]:
        """Enumerate satisfying bindings dicts against ``db``.

        Lazy: relations are probed as the consumer advances, and index
        buckets are iterated live (tuples added to an already non-empty
        relation mid-iteration are visible, exactly as interpreted).
        """
        names = self.outputs  # the body variables the caller did not bind
        base = dict(initial_bindings) if initial_bindings else {}
        for row in self.execute_project(names, db, initial_bindings,
                                        stats, tracer):
            out = base.copy()
            out.update(zip(names, row))
            yield out

    def execute_project(
        self,
        output: tuple,
        db: Database,
        initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
        stats: Optional[EvaluationStats] = None,
        tracer=None,
    ) -> Iterator[tuple]:
        """Like ``execute`` followed by ``instantiate_args(output, ...)``
        -- but the ground tuples are built straight from the kernel's
        locals, skipping the bindings dict (and its per-key hashing)
        entirely.  ``output`` is a term sequence, typically a rule
        head's args; a variable outside the body is read from
        ``initial_bindings`` when the call is made, so the ``KeyError``
        if it is not there either is raised here, solutions or not
        (only an absent or empty body relation ends the run earlier).
        Otherwise as lazy as :meth:`execute`.
        """
        rows = self._run(output, False, db, initial_bindings, None, stats,
                         tracer)
        return iter(()) if rows is None else rows

    def execute_into(
        self,
        output: tuple,
        db: Database,
        sink: set,
        initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
        stats: Optional[EvaluationStats] = None,
        tracer=None,
    ) -> int:
        """The set-at-a-time flavour: add every ``execute_project`` tuple
        to ``sink`` and return how many were produced (before duplicate
        elimination), also counted on ``stats.tuples_produced``.  Only
        for a ``sink`` no body relation reads -- nothing is visible
        mid-run.
        """
        return self._run(output, True, db, initial_bindings, sink, stats,
                         tracer) or 0

    def _run(self, output: tuple, bulk: bool, db: Database,
             initial_bindings, sink, stats, tracer):
        """Call the kernel for ``output``; None when the plan cannot
        match (all body relations are resolved up front and an absent
        or empty one ends the run -- see the module doc)."""
        if self.always_empty:
            return None
        rels: list[Relation] = []
        relation = db.relation
        for pred in self._preds:
            rel = relation(pred)
            if rel is None or not rel:
                return None
            rels.append(rel)
        fn, consts, inputs = self._kernel(output, bulk)
        if inputs:
            inputs = tuple((initial_bindings or {})[var] for var in inputs)
        return fn(rels, consts, inputs, sink, stats, tracer)

    def _kernel(self, output: tuple, bulk: bool) -> tuple:
        """``(function, constants, input variables)`` for one output
        template and flavour, generated on first use.  Plans of one
        shape (Example 1.1's ``friend``, ``idol`` and ``cheaper`` joins)
        produce one text and share its function through ``_shapes``."""
        entry = self._kernels.get((output, bulk))
        if entry is None:
            source, consts, inputs = self.kernel_text(output, bulk)
            fn = _function(self._shapes, source, "joinplan", "kernel")
            entry = self._kernels[(output, bulk)] = (fn, consts, inputs)
        return entry

    def kernel_source(self, output: Sequence, bulk: bool = True) -> str:
        """The generated Python text of one kernel (what tracebacks
        through a ``<joinplan:...>`` file show)."""
        return self.kernel_text(tuple(output), bulk)[0]

    def kernel_text(self, output: tuple, bulk: bool) -> tuple:
        """Generate ``(source, constants, input variables)``.

        Registers are locals ``r<slot>``.  What is specific to this plan
        rather than to its shape -- index signatures, column numbers,
        constants -- arrives in ``K`` and what the caller supplies
        (preloaded bindings, output variables outside the body) in
        ``P``, so the text never mentions a value or a name.

        Counting costs one ``e<d> += len(c<d>)`` per lookup and nothing
        per tuple: with ``e``/``b``/``g`` the tuples a level fetched,
        those passing its repeated-variable checks and those passing
        its filter guards (each an alias of the one before when the
        level has no such test), a level is looked up once per ``g`` of
        the level above, ``bindings_out`` is the sum of the ``b`` and
        the innermost ``g`` the output count; :func:`_flush` gets the
        sums once per run.
        """
        consts: list = []
        inputs = [var for var, _ in self.preload]
        probes: list[str] = []

        def const(value) -> str:
            consts.append(value)
            return f"k{len(consts) - 1}"

        def fetch(d, pred, positions, key, cols):
            index = const(positions)
            if not bulk:  # may watch its own insertions: asks per tuple
                return (), f"rels[{d}].lookup({index}, {key()}, tracer)", False
            probes.append(
                f"    q{d} = _probe(rels[{d}], {index}, "
                f"{None if cols is None else const(cols)}, tracer)")
            return (), f"q{d}({key()})", True

        lines, zero, lookups, examined, bindings, reached = self._nest(
            output, bulk, "    " if bulk else "        ", const, inputs,
            fetch)
        head = ["def kernel(rels, K, P, sink, stats, tracer):"]
        for count, name, source in ((len(consts), "k", "K"),
                                    (len(inputs), "p", "P")):
            if count:
                targets = _tuple_text(f"{name}{i}" for i in range(count))
                head.append(f"    {targets} = {source}")
        head += probes
        if zero:
            head.append(f"    {' = '.join(zero)} = 0")
        flush = (f"_flush(stats, tracer, {lookups}, {examined}, {bindings}, "
                 f"{reached if bulk else '0'})")
        if bulk:
            tail = ["    " + flush, "    return " + reached, ""]
        else:
            head.append("    try:")
            tail = ["    finally:", "        " + flush, ""]
        return "\n".join(head + lines + tail), tuple(consts), tuple(inputs)

    def _nest(self, output: tuple, bulk: bool, pad: str, const, inputs: list,
              fetch, sink: str = "sink",
              pseudo: Optional[str] = None) -> tuple:
        """The nested loops of this plan as source lines at ``pad``.

        ``const(value)`` names a constant and ``inputs`` collects the
        caller-supplied variables; ``fetch(d, predicate, positions,
        key, cols)`` says how level ``d`` gets its candidates --
        ``(lines to run first, expression, whether it may be empty or
        None)`` with ``key()`` the text of the lookup key -- which is
        all that differs between a stand-alone kernel and a join
        inlined into a generated carry loop (:func:`loop_text`).
        ``cols`` is None for the facts themselves; otherwise the level
        is the innermost one and its output rows are exactly those
        columns of each fact, so ``fetch`` answers with the set of them
        (:meth:`Relation.lookup_projected`) and the level is one
        ``sink.update``.  A level reading ``pseudo`` (a plain set, not
        a relation) is never asked that.  Returns ``(lines, counters to
        zero, lookups, examined, bindings, produced)``, the last four
        as sums over the counters.
        """
        # slot -> the expression holding its value (assign guards alias)
        reg = {s: f"p{i}" for i, (_, s) in enumerate(self.preload)}
        zero: list[str] = []  # counters to initialise

        def operand(is_slot, value) -> str:
            return reg[value] if is_slot else const(value)

        def row() -> str:
            terms = []
            for term in output:
                if isinstance(term, Constant):
                    terms.append(const(term.value))
                elif term in self._slot_of:
                    terms.append(reg[self._slot_of[term]])
                else:
                    inputs.append(term)
                    terms.append(f"p{len(inputs) - 1}")
            return _tuple_text(terms)

        def guard(guards: tuple, name: str, test: str) -> None:
            """Filters become ``test`` lines, assigns aliases; ``reached``
            moves to the counter ``name`` of the runs that pass."""
            nonlocal pad, reached
            for g in guards:
                if g[0] == _ASSIGN:
                    reg[g[3]] = operand(g[1], g[2])
                    continue
                lines.append(pad + test.format(operand(g[1], g[2]),
                                               operand(g[3], g[4])))
                if test.endswith(":"):
                    pad += "    "
                reached = name
            if reached == name:
                zero.append(name)
                lines.append(f"{pad}{name} += 1")

        lines: list[str] = []
        reached = "1"  # how often control gets here, as a counter sum
        guard(self.pre_guards, "g", "if {} == {}:")
        lookups, examined, bindings = [], [], []
        last = len(self.steps) - 1
        for d, (pred, positions, keys, writes, checks, guards) in \
                enumerate(self.steps):
            innermost = bulk and d == last and not checks and not guards
            cols = None
            if innermost and pred != pseudo:
                # The output made of this atom's free columns, each of
                # them used: with the probed ones they determine the
                # fact, so the projected bucket has one row per fact.
                column = {s: i for i, s in writes}
                slots = [self._slot_of.get(term) for term in output]
                if slots and set(slots) == set(column):
                    cols = tuple(column[s] for s in slots)
            first, candidates, guarded = fetch(
                d, pred, positions,
                lambda: _tuple_text(operand(*k) for k in keys), cols)
            lines += [pad + line for line in first]
            lines.append(f"{pad}c{d} = {candidates}")
            if guarded:
                lines.append(f"{pad}if c{d}:")
                pad += "    "
            lines.append(f"{pad}e{d} += len(c{d})")
            zero.append(f"e{d}")
            lookups.append(reached)
            examined.append(f"e{d}")
            reached = f"e{d}"
            if innermost:
                # Nothing to test: the bucket of rows as it is, or one
                # C-speed comprehension over the bucket of facts.
                if cols is None:
                    reg.update((s, f"f[{const(i)}]") for i, s in writes)
                    rows = f"[{row()} for f in c{d}]"
                else:
                    rows = f"c{d}"
                lines.append(f"{pad}{sink}.update({rows})")
                bindings.append(reached)
                break
            lines.append(f"{pad}for f{d} in c{d}:")
            pad += "    "
            for i, s in writes:
                reg[s] = f"r{s}"
                lines.append(f"{pad}r{s} = f{d}[{const(i)}]")
            for i, s in checks:
                lines.append(f"{pad}if f{d}[{const(i)}] != {reg[s]}: "
                             f"continue")
            if checks:
                reached = f"b{d}"
                zero.append(reached)
                lines.append(f"{pad}{reached} += 1")
            bindings.append(reached)
            guard(guards, f"g{d}", "if {} != {}: continue")
        else:  # no break: the output is built inside the innermost loop
            lines.append(f"{pad}{sink}.add({row()})" if bulk
                         else f"{pad}yield {row()}")
        return (lines, zero, " + ".join(lookups) or "0",
                " + ".join(examined) or "0", " + ".join(bindings) or "0",
                reached)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JoinPlan({' & '.join(map(str, self.body))}, "
            f"bound={sorted(v.name for v in self.bound_vars)}, "
            f"order={self.order!r}, steps={self.atom_order()})"
        )


def _tuple_text(parts) -> str:
    """Source of the tuple display of ``parts``."""
    parts = list(parts)
    return "(%s%s)" % (", ".join(parts), "," if len(parts) == 1 else "")


def _function(shapes: dict, source: str, kind: str, name: str):
    """The function ``name`` that ``source`` defines, compiled once per
    text: ``shapes`` maps text to function, and the text is registered
    with :mod:`linecache` under ``<kind:crc>`` so tracebacks through
    generated code show its lines."""
    fn = shapes.get(source)
    if fn is None:
        filename = f"<{kind}:{zlib.crc32(source.encode()):08x}>"
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename)
        namespace = {"_flush": _flush, "_probe": _probe}
        exec(compile(source, filename, "exec"), namespace)
        fn = shapes[source] = namespace[name]
    return fn


def _flush(stats, tracer, lookups, examined, bindings, produced) -> None:
    """Fold one kernel run's counters into ``stats`` and the tracer."""
    if stats is not None:
        stats.bump_examined(examined)
        stats.bump_produced(produced)
    if tracer is not None and lookups:
        tracer.count("atom_lookups", lookups)
        tracer.count("tuples_examined", examined)
        if bindings:
            tracer.count("bindings_out", bindings)


def greedy_permutation(
    body: tuple[Atom, ...],
    bound_vars: frozenset[Variable],
    db: Optional[Database] = None,
) -> tuple[int, ...]:
    """Greedy execution order as a permutation of body positions.

    The interpreter's heuristic -- most bound argument positions first,
    smaller relation on ties -- computed once per call instead of once
    per recursion node.  How many positions of an atom are bound depends
    only on *which* variables are bound (never on their values), so for
    a fixed database-size ranking the permutation is a pure function of
    (body, signature).  An unready ``eq`` (no side bound yet) sorts
    last and is only ever picked when nothing can bind it -- the
    unsafe-rule case, which compiles to the same ValueError the
    interpreter raises.  With ``db=None`` all sizes read 0 and ties
    fall back to body position.
    """
    remaining = list(range(len(body)))
    bound = set(bound_vars)
    ordered: list[int] = []
    while remaining:
        best = 0
        best_key = None
        for j, idx in enumerate(remaining):
            a = body[idx]
            nb = 0
            for t in a.args:
                if isinstance(t, Constant) or t in bound:
                    nb += 1
            if a.predicate == EQ:
                key = (0 if nb else 1, -nb, 0, idx)
            else:
                rel = db.relation(a.predicate) if db is not None else None
                key = (0, -nb, len(rel) if rel is not None else 0, idx)
            if best_key is None or key < best_key:
                best_key = key
                best = j
        idx = remaining.pop(best)
        ordered.append(idx)
        for t in body[idx].args:
            if isinstance(t, Variable):
                bound.add(t)
    return tuple(ordered)


def _defer_eq_indices(
    body: tuple[Atom, ...],
    seq: Sequence[int],
    bound_vars: frozenset[Variable],
) -> tuple[int, ...]:
    """``seq`` (positions of ``body``) with each unready ``eq`` moved
    back to the earliest point where a side is bound.

    Rectification may emit ``eq(V2, V1)`` *before* the atom that binds
    ``V1``; deferring it preserves left-to-right semantics (eq atoms
    are pure filters -- commuting one later never changes the result
    set) instead of crashing.  Atoms that never become ready fall
    through to the end, where compilation raises the interpreter's
    unsafe-rule ValueError.  ``order="left_to_right"`` defers over the
    given order; ``cost``, whose planner ranks only the non-eq atoms,
    leaves eq placement to the same rule.
    """
    bound = set(bound_vars)

    def ready(a: Atom) -> bool:
        for t in a.args:
            if isinstance(t, Constant) or t in bound:
                return True
        return False

    ordered: list[int] = []
    pending: list[int] = []

    def place(i: int) -> None:
        ordered.append(i)
        for t in body[i].args:
            if isinstance(t, Variable):
                bound.add(t)

    for i in seq:
        a = body[i]
        if a.predicate == EQ and a.arity == 2 and not ready(a):
            pending.append(i)
            continue
        place(i)
        progressed = True
        while progressed and pending:
            progressed = False
            for k, p in enumerate(pending):
                if ready(body[p]):
                    place(pending.pop(k))
                    progressed = True
                    break
    ordered.extend(pending)  # still unready: unsafe, raises at compile
    return tuple(ordered)


def _order_left_to_right(
    body: tuple[Atom, ...], bound_vars: frozenset[Variable]
) -> list[Atom]:
    """Given order, except unready ``eq`` atoms wait for a binder."""
    return [body[i]
            for i in _defer_eq_indices(body, range(len(body)), bound_vars)]


def _cost_sequence(
    body: tuple[Atom, ...],
    bound_vars: frozenset[Variable],
    db: Optional[Database],
) -> tuple[tuple[int, ...], float]:
    """Full cost-based execution permutation plus the row estimate.

    The planner orders the non-eq atoms; eq atoms enter in body order
    and are deferred to their earliest ready point, exactly as
    ``order="left_to_right"`` would.
    """
    from .planner import cost_permutation

    rest, est = cost_permutation(body, bound_vars, db)
    eq_first = [i for i, a in enumerate(body) if a.predicate == EQ]
    perm = _defer_eq_indices(body, eq_first + list(rest), bound_vars)
    return perm, est


def compile_join_plan(
    atoms: Sequence[Atom],
    bound_vars: frozenset[Variable] = frozenset(),
    order: str = "greedy",
    db: Optional[Database] = None,
) -> JoinPlan:
    """Compile a conjunction into a :class:`JoinPlan`.

    ``bound_vars`` is the signature: the body variables the caller will
    supply in ``initial_bindings``.  For ``order="greedy"`` the atom
    sequence comes from :func:`greedy_permutation` (pass ``db`` for the
    size tiebreak); for ``order="cost"`` from the selectivity-aware
    planner (``db`` supplies the statistics -- without
    one, every size reads 0 and the order degrades to body position).
    Raises the same ``ValueError`` as the interpreter for an ``eq``
    atom whose sides can never be bound (unsafe rule) or whose arity is
    not 2.
    """
    if order not in ORDERS:
        raise ValueError(f"unknown join order {order!r}")
    body = tuple(atoms)
    if order == "greedy":
        perm = greedy_permutation(body, bound_vars, db)
        ordered = [body[i] for i in perm]
    elif order == "cost":
        perm, _ = _cost_sequence(body, bound_vars, db)
        ordered = [body[i] for i in perm]
    else:
        ordered = _order_left_to_right(body, bound_vars)
    return _compile_sequence(body, bound_vars, order, ordered)


def _compile_sequence(
    body: tuple[Atom, ...],
    bound_vars: frozenset[Variable],
    order: str,
    ordered: list[Atom],
    shapes: Optional[dict] = None,
) -> JoinPlan:
    """Compile an already-ordered atom sequence into a :class:`JoinPlan`
    (``shapes``: the kernel-function table of its cache, if any)."""
    slot_of: dict[Variable, int] = {}
    preload: list[tuple[Variable, int]] = []
    bound: set[Variable] = set(bound_vars)
    always_empty = False

    def slot(v: Variable) -> int:
        s = slot_of.get(v)
        if s is None:
            s = len(slot_of)
            slot_of[v] = s
            if v in bound_vars:
                preload.append((v, s))
        return s

    pre_guards: list[tuple] = []
    raw_steps: list[list] = []
    guard_sink = pre_guards  # eq atoms attach to the preceding step

    for a in ordered:
        if a.predicate == EQ:
            if a.arity != 2:
                raise ValueError(f"built-in {EQ} requires arity 2, got {a}")
            left, right = a.args
            l_const = isinstance(left, Constant)
            r_const = isinstance(right, Constant)
            l_known = l_const or left in bound
            r_known = r_const or right in bound
            if l_known and r_known:
                if l_const and r_const:
                    if left.value != right.value:
                        always_empty = True
                    continue  # constant-folded either way
                guard_sink.append((
                    _FILTER,
                    not l_const, left.value if l_const else slot(left),
                    not r_const, right.value if r_const else slot(right),
                ))
            elif l_known:
                dst = slot(right)
                bound.add(right)  # type: ignore[arg-type]
                guard_sink.append((
                    _ASSIGN,
                    not l_const, left.value if l_const else slot(left),
                    dst,
                ))
            elif r_known:
                dst = slot(left)
                bound.add(left)  # type: ignore[arg-type]
                guard_sink.append((
                    _ASSIGN,
                    not r_const, right.value if r_const else slot(right),
                    dst,
                ))
            else:
                raise ValueError(
                    f"cannot evaluate {a}: both sides unbound (unsafe rule?)"
                )
            continue

        positions: list[int] = []
        key_sources: list[tuple] = []
        writes: list[tuple[int, int]] = []
        checks: list[tuple[int, int]] = []
        local: dict[Variable, int] = {}
        for i, term in enumerate(a.args):
            if isinstance(term, Constant):
                positions.append(i)
                key_sources.append((False, term.value))
            elif term in bound:
                positions.append(i)
                key_sources.append((True, slot(term)))
            elif term in local:
                checks.append((i, local[term]))
            else:
                s = slot(term)
                local[term] = s
                writes.append((i, s))
        bound.update(local)
        guards: list[tuple] = []
        raw_steps.append([
            a.predicate,
            tuple(positions),
            tuple(key_sources),
            tuple(writes),
            tuple(checks),
            guards,
        ])
        guard_sink = guards

    steps = tuple(
        (p, pos, ks, w, c, tuple(g)) for p, pos, ks, w, c, g in raw_steps
    )
    outputs = tuple(v for v in slot_of if v not in bound_vars)
    return JoinPlan(
        body=body,
        bound_vars=bound_vars,
        order=order,
        preload=tuple(preload),
        pre_guards=tuple(pre_guards),
        steps=steps,
        outputs=outputs,
        always_empty=always_empty,
        slot_of=slot_of,
        shapes=shapes,
    )


def loop_text(plans: Sequence[JoinPlan], outputs: Sequence[tuple],
              pseudo, live: Sequence[bool], traced: bool,
              flow: Optional[Sequence[tuple[int, int]]] = None) -> tuple:
    """Source of one whole ``carry``/``seen`` loop of Figure 2.

    ``plans[i]`` executes the body of the loop's ``i``-th join term and
    ``outputs[i]`` is its output template; the atom named ``pseudo``
    stands for ``carry``.  ``live[i]`` is False for a term that cannot
    match (a fixed relation absent or empty): it gets no code.  Returns
    ``(source, groups)``: consecutive join terms whose nested loops
    (:meth:`JoinPlan._nest`) read the same are one *shape*, inlined once
    and run ``for`` each of them in turn (terms keep their order:
    ``rule_out:`` credits a tuple to the first term that produces it),
    and ``groups[g]`` lists the terms of the ``g``-th run as ``(probes,
    constants, i)`` -- ``probes`` the ``(step, positions, cols)`` of each
    lookup into a fixed relation (``cols``: the columns of a projected
    probe, else None).  The text unpacks one tuple ``(*probe
    callables, *constants, i)`` per term from ``J[g]``; it mentions
    neither values nor how long a run is, so Example 1.1's two-term down
    loop and Example 1.2's two one-term loops are all one function.

    Everything the reference loop (``core/evaluator.py::_carry_loop``)
    re-derives per round, but that cannot change while ``carry`` is the
    only relation that does, is bound before the loop: the plans
    themselves, valid while ``lo <= len(carry) < hi`` (the interval is
    :meth:`PlanCache.loop_for`'s; outside it the function returns and
    the caller re-plans), and each fixed relation's probe ``q<j>``.
    ``carry`` is iterated where a plan scans it and indexed lazily, once
    per round, where a plan probes it.  The counter sums of a round
    reach ``stats`` once, before the budget checks.  ``traced`` adds the
    tracer counters and the ``carry`` series of the reference loop
    (``D`` lists the terms without code, for their ``rule_apps:``); the
    ``separable.loop`` span stays with the caller, which may enter
    several functions under one span.

    With ``flow`` the text is the *semi-naive* flavour, the rounds of a
    stratum (``datalog/seminaive.py``): ``pseudo`` names one delta per
    member, term ``i`` reads ``carry[a]`` and derives member ``h`` for
    ``flow[i] = (a, h)``, and installs its output at once -- ``fresh =
    new<h>(produced)``, ``add<h>(fresh)``, the caller's pair per member
    (a relation's ``add_all`` patches the indexes later terms probe) --
    into ``h``'s next delta.  Valid while every delta's and member's
    size is inside ``lo`` / ``hi`` (:func:`_narrow`), checked once a
    round; ``stats`` may be None.
    """
    pad = " " * 12
    stratum = flow is not None
    members = range(len(pseudo)) if stratum else ()
    shapes: list[tuple] = []  # the text of each run of like terms
    groups: list[list] = []   # the terms of each run
    indexed = False           # does some term probe carry?
    for i, (plan, output, alive) in enumerate(zip(plans, outputs, live)):
        if not alive:
            continue
        consts: list = []
        probes: list[tuple] = []
        inputs: list = []
        a, h = flow[i] if stratum else ("", "")
        carry, delta = (f"carry{a}", pseudo[a]) if stratum else ("carry", pseudo)

        def const(value) -> str:
            consts.append(value)
            return f"k{len(consts) - 1}"

        def fetch(d, pred, positions, key, cols):
            nonlocal indexed
            if pred != delta:
                probes.append((d, positions, cols))
                return (), f"q{len(probes) - 1}({key()})", True
            if not positions:
                return (["S += 1"] if traced else ()), carry, False
            indexed = True
            index = const((a, positions) if stratum else positions)
            cols = _tuple_text(f"f[{const(p)}]" for p in positions)
            build = [f"x = indexes.get({index})", "if x is None:",
                     f"    x = indexes[{index}] = {{}}",
                     f"    for f in {carry}:",
                     f"        x.setdefault({cols}, []).append(f)"]
            if traced:
                build += ["    count('index_builds')",
                          "    count('index_tuples', "
                          + (f"len({carry}))" if stratum else "n)")]
            return build, f"x.get({key()})", True

        lines, zero, *sums = plan._nest(output, True, pad, const, inputs,
                                        fetch, "produced", delta)
        if inputs:  # an output variable the body does not bind
            raise KeyError(inputs[0])
        shape = (tuple(lines), tuple(zero), *sums, len(probes), len(consts),
                 a, h)
        if not shapes or shapes[-1] != shape:
            shapes.append(shape)
            groups.append([])
        groups[-1].append((tuple(probes), tuple(consts), i))

    body: list[str] = []
    for g, (lines, zero, lookups, examined, bindings, made, nq, nk, a, h) \
            in enumerate(shapes):
        names = [f"q{j}" for j in range(nq)] + [f"k{j}" for j in range(nk)]
        terms = f"J{g} if carry{a} else ()" if len(members) > 1 else f"J{g}"
        body.append(f"        for {', '.join(names + ['i'])} in {terms}:")
        if stratum:
            body.append(f"{pad}produced = set()")
        elif traced:
            body.append(f"{pad}before = len(produced)")
        body.append(f"{pad}{' = '.join(zero)} = 0")
        body += lines
        body += [f"{pad}X += {examined}", f"{pad}P += {made}"]
        if traced:
            body += [f"{pad}L += {lookups}", f"{pad}B += {bindings}"]
            body += [f"{pad}if {made}:",
                     f"{pad}    count(outs[i], {made})"] if stratum else [
                     f"{pad}count(f'rule_apps:{{seen_name}}#{{i}}')",
                     f"{pad}out = len(produced) - before",
                     f"{pad}if out:",
                     f"{pad}    count(f'rule_out:{{seen_name}}#{{i}}', out)"]
        if stratum:
            body += [f"{pad}fresh = new{h}(produced)", f"{pad}if fresh:",
                     f"{pad}    add{h}(fresh)",
                     f"{pad}    size{h} += len(fresh)",
                     f"{pad}    next{h} |= fresh"]

    if stratum:
        head = ["def loop(J, lo, hi, carry, seen, sizes, names, apps, outs, "
                "stats, budget, tracer):"]
        head += [f"    {_tuple_text(text.format(m=m) for m in members)} = {of}"
                 for text, of in (("carry{m}", "carry"),
                                  ("(new{m}, add{m})", "seen"),
                                  ("size{m}", "sizes"))]
    else:
        head = ["def loop(J, D, lo, hi, carry, seen, carry_name, seen_name, "
                "stats, budget, tracer):"]
    if shapes:
        targets = _tuple_text(f"J{g}" for g in range(len(shapes)))
        head.append(f"    {targets} = J")
    if not stratum:
        head.append("    record = stats.record_relation")
    if traced:
        head.append("    count = tracer.count")
    if stratum:
        sizes = [f"len(carry{m})" for m in members] \
            + [f"size{m}" for m in members]
        within = " and ".join(f"lo[{v}] <= {size} < hi[{v}]"
                              for v, size in enumerate(sizes))
        head += ["    while %s:" % " or ".join(f"carry{m}" for m in members),
                 f"        if not ({within}):",
                 "            break",
                 "        budget.check_wall(stats)",
                 "        if stats is not None:",
                 "            for name, size in zip(names, %s):"
                 % _tuple_text(sizes[len(members):]),
                 "                stats.record_relation(name, size)",
                 "                budget.check_relation(name, size, stats)",
                 "            budget.check_stats(stats)",
                 "            stats.bump_iterations()"]
        if traced:
            head += ["        count('iterations')",
                     "        for i in apps:",
                     "            count(i)"]
        head += [f"        next{m} = set()" for m in members]
    else:
        head += ["    while carry:",
                 "        n = len(carry)",
                 "        if not lo <= n < hi:",
                 "            break",
                 "        budget.check_wall(stats)",
                 "        stats.bump_iterations()"]
        if traced:
            head += ["        count('iterations')",
                     "        for i in D:",
                     "            count(f'rule_apps:{seen_name}#{i}')"]
        head.append("        produced = set()")
    head.append("        L = X = B = P = S = 0" if traced
                else "        X = P = 0")
    if indexed:
        head.append("        indexes = {}")
    if stratum:
        tail = [f"        carry{m} = next{m}" for m in members]
        tail += ["        if stats is not None:",
                 "            stats.bump_examined(X)",
                 "            stats.bump_produced(P)"]
    else:
        tail = ["        carry = produced - seen",
                "        seen |= carry",
                "        stats.bump_examined(X)",
                "        stats.bump_produced(P)"]
    if traced:
        tail += ["        if L:",
                 "            count('atom_lookups', L)",
                 "            count('tuples_examined', X)",
                 "        if B:",
                 "            count('bindings_out', B)",
                 "        if S:",
                 "            count('full_scans', S)"]
        tail += [f"        tracer.record('delta:' + names[{m}], len(carry{m}))"
                 for m in members] or [
                     "        tracer.record('carry', len(carry))"]
    if stratum:
        tail += ["    return %s, %s" % (
            _tuple_text(f"carry{m}" for m in members),
            _tuple_text(f"size{m}" for m in members)), ""]
    else:
        tail += ["        record(carry_name, len(carry))",
                 "        record(seen_name, len(seen))",
                 "        budget.check_relation(seen_name, len(seen), stats)",
                 "        budget.check_stats(stats)",
                 "    return carry",
                 ""]
    return "\n".join(head + body + tail), tuple(map(tuple, groups))


def _narrow(bounds: list, body: tuple[Atom, ...], moving: Mapping[str, int],
            db: Database, order: str) -> None:
    """Narrow ``bounds[slot] = [lo, hi]`` to the sizes ``[lo, hi)`` over
    which :meth:`PlanCache.plan_for` keys ``body`` as it does now, when
    only the relations in ``moving`` (predicate -> slot) change size.

    Every key says which relations are empty; ``cost`` keys on each
    size's ``bit_length`` bucket and ``greedy`` on the stable argsort of
    the sizes (``i`` sorts before a later ``j`` while ``size_i <=
    size_j``).  A pair with one moving side is bounded exactly; two
    moving sides are kept apart at the larger one's current size.
    """
    sized = []  # (size, bounds of the slot or None) per atom
    for a in body:
        rel = db.relation(a.predicate) if a.predicate != EQ else None
        n = len(rel) if rel is not None else 0
        slot = moving.get(a.predicate)
        if slot is None:
            sized.append((n, None))
            continue
        bound = bounds[slot]
        sized.append((n, bound))
        lo, hi = (1, _INF) if n else (0, 1)
        if order == "cost":
            lo, hi = 1 << n.bit_length() >> 1, 1 << n.bit_length()
        bound[:] = max(bound[0], lo), min(bound[1], hi)
    if order != "greedy":
        return
    for j, (nj, bj) in enumerate(sized):
        for ni, bi in sized[:j]:
            if bi is bj:  # both fixed, or one relation twice
                continue
            if ni <= nj:
                if bi is not None:
                    bi[1] = min(bi[1], nj + 1)
                if bj is not None:
                    bj[0] = max(bj[0], ni if bi is None else nj)
            else:
                if bi is not None:
                    bi[0] = max(bi[0], nj + 1 if bj is None else ni)
                if bj is not None:
                    bj[1] = min(bj[1], ni)


def _probe(rel, positions: tuple[int, ...], cols, tracer):
    """``key -> tuples`` (a collection, possibly empty, or None) of one
    relation, bound once for a whole run of generated code -- a carry
    loop, a stratum's rounds, a set-at-a-time kernel: the facts matching
    ``key`` on ``positions``, or with ``cols`` those columns of them
    (:meth:`Relation.lookup_projected`).

    The bound ``dict.get`` of a :class:`Relation` index: the index is
    the relation's own, built here if need be, and stays current because
    whoever writes the relation during the run (a stratum installing
    what it derived) patches that very dict.  A traced run probes a
    still-unbuilt index through the relation's method so that the
    build is counted where the reference loop counts it; so does every
    full scan, and every other ``RelationStorage`` (SQLite).
    """
    lookup = (partial(rel.lookup, positions) if cols is None
              else partial(rel.lookup_projected, positions, cols))
    if positions and type(rel) is Relation:
        indexes, signature = ((rel._indexes, positions) if cols is None
                              else (rel._projected, (positions, cols)))
        index = indexes.get(signature)
        if index is None and tracer is None:
            lookup(())
            index = indexes[signature]
        if index is not None:
            return index.get
    return partial(lookup, tracer=tracer)


def relation_sink(rel) -> tuple:
    """``(new, add)`` of a relation a fixpoint loop writes: ``new(rows)``
    is the set of ``rows`` not in it, ``add`` installs facts.  A
    :class:`Relation` answers with one set difference, and first gives
    up index buckets it shares with a snapshot: its next write would
    drop them (:meth:`Relation._unshare`) from under the loop's bound
    probes.  Any other ``RelationStorage`` is asked fact by fact."""
    if type(rel) is Relation:
        rel._unshare()
        return rel._tuples.__rsub__, rel.add_all
    return (lambda rows: {f for f in rows if f not in rel}), rel.add_all


class PlanCache:
    """FIFO-bounded, thread-safe cache of :class:`JoinPlan` objects.

    Keyed by ``(body atoms, bound-variable signature, atom sequence)``
    -- everything a plan is a function of, so entries can never be
    stale (plans are value-independent; see the module docstring).
    ``hits`` / ``misses`` / ``compiles`` mirror the tracer counters
    ``plan_cache_hits`` / ``plan_cache_misses`` / ``plan_compiles``
    for callers without a tracer.

    The module-global :data:`PLAN_CACHE` is shared by every evaluator in
    the process, including the query service's worker threads, so the
    whole miss/compile/evict sequence and the counters run under one
    lock.  Compilation itself happens outside the lock (it is pure and
    at worst duplicated by two racing threads -- the second result wins,
    counted as one extra compile, never a dropped entry).
    """

    __slots__ = ("maxsize", "hits", "misses", "compiles", "evictions",
                 "orders", "_plans", "_order_memo", "_shapes", "_loops",
                 "_lock")

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.evictions = 0
        self.orders: dict[str, int] = {}
        self._plans: dict[tuple, JoinPlan] = {}
        self._order_memo: dict[tuple, tuple[tuple[int, ...], float]] = {}
        #: generated source text -> compiled function, shared by the
        #: plans (kernels) and carry loops of that shape
        self._shapes: dict = {}
        #: (joins, pseudo, plans, live, traced) -> (function, groups, text)
        self._loops: dict[tuple, tuple] = {}
        self._lock = threading.Lock()

    def plan_for(
        self,
        body: tuple[Atom, ...],
        bound_vars: frozenset[Variable],
        order: str,
        db: Optional[Database] = None,
        tracer=None,
    ) -> JoinPlan:
        """The cached plan for this key, compiling on first sight.

        For ``order="greedy"`` the cheap per-call ordering pass runs
        first and the permutation joins the key, so a size-rank change
        mid-run transparently selects (or compiles) the matching plan
        rather than executing a stale order.

        ``order="cost"`` goes through a second, cheaper memo first: the
        chosen permutation is remembered per ``(body, signature,
        log-scale size signature)``, and only the *permutation* keys
        the compiled-plan dict -- so relations growing across fixpoint
        rounds re-plan O(log n) times but recompile only when the
        chosen order actually changes, keeping ``plan_compiles`` O(1)
        per body.
        """
        if order == "cost":
            from .planner import size_signature

            memo_key = (body, bound_vars, size_signature(body, db))
            with self._lock:
                cached = self._order_memo.get(memo_key)
            if cached is None:
                cached = _cost_sequence(body, bound_vars, db)
                with self._lock:
                    while len(self._order_memo) >= self.maxsize:
                        del self._order_memo[next(iter(self._order_memo))]
                    self._order_memo[memo_key] = cached
            perm, est = cached
            if tracer is not None:
                # Floored at 1 so even a sub-row estimate marks the
                # profile as planner-driven (the profiler's
                # estimate-vs-observed section gates on this counter).
                tracer.count("plan_est_rows", max(1, int(est)))
            key = (body, bound_vars, "cost", perm)
        elif order == "greedy":
            # The greedy walk only ever *compares* sizes, so its outcome
            # is a function of the size-sorted position order (stable
            # argsort) plus which relations are empty -- both O(1)
            # distinct values per body over a run, and far cheaper to
            # key on than re-running the walk every call.
            if db is not None:
                relation = db.relation
                sizes = []
                for a in body:
                    rel = relation(a.predicate) if a.predicate != EQ \
                        else None
                    sizes.append(len(rel) if rel is not None else 0)
                rank = tuple(sorted(range(len(body)),
                                    key=sizes.__getitem__))
                zeros = tuple([s == 0 for s in sizes])
                key = (body, bound_vars, rank, zeros)
            else:
                key = (body, bound_vars, "greedy")
        elif order == "left_to_right":
            key = (body, bound_vars, order)
        else:
            raise ValueError(f"unknown join order {order!r}")
        with self._lock:
            self.orders[order] = self.orders.get(order, 0) + 1
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                if tracer is not None:
                    tracer.count("plan_cache_hits")
                return plan
            self.misses += 1
        if tracer is not None:
            tracer.count("plan_cache_misses")
        if order == "cost":
            ordered = [body[i] for i in key[3]]
        elif order == "greedy":
            ordered = [body[i]
                       for i in greedy_permutation(body, bound_vars, db)]
        else:
            ordered = _order_left_to_right(body, bound_vars)
        plan = _compile_sequence(body, bound_vars, order, ordered,
                                 self._shapes)
        if tracer is not None:
            tracer.count("plan_compiles")
        with self._lock:
            self.compiles += 1
            # Evict strictly *before* inserting, and only entries other
            # than ours: the insert below always lands, so the entry
            # just compiled can never be the one evicted.
            while len(self._plans) >= self.maxsize:  # FIFO eviction
                oldest = next(iter(self._plans))
                if oldest == key:  # pragma: no cover - defensive
                    break
                del self._plans[oldest]
                self.evictions += 1
            if len(self._shapes) >= self.maxsize:
                self._shapes.clear()  # live plans keep their functions
            self._plans[key] = plan
        return plan

    def loop_for(self, joins: Sequence, pseudo, carry, order: str,
                 db: Database, tracer=None, grows: bool = True):
        """One loop of Figure 2 over the join terms ``joins`` (objects
        with a ``body`` and an ``output``), as a generated function.

        ``carry`` is the current (non-empty) value of the relation the
        bodies call ``pseudo``; ``db`` holds the others.  Asks
        :meth:`plan_for` once per join -- not once per round -- and
        binds the :func:`loop_text` function of those plans to the fixed
        relations' probes and to the ``carry`` sizes ``[lo, hi)`` the
        plans are :meth:`plan_for`'s choice for (:func:`_narrow`):
        ``carry``'s size rank among the fixed relations under
        ``greedy``, its ``bit_length`` bucket -- what the order memo
        keys on -- under ``cost``, any size under ``left_to_right``.
        Returns ``run(carry, seen, carry_name, seen_name, stats, budget,
        tracer) -> carry``: it advances the loop in place (``seen``
        grows) and returns the next ``carry`` -- empty when the loop is
        done, otherwise of a size outside the interval, and the caller
        asks again.  The flavour follows ``tracer is None``.

        The semi-naive flavour: ``pseudo`` is the tuple of a stratum's
        members, ``carry`` their current deltas, ``joins`` its delta
        variants -- each with a ``flow`` ``(a, h)``: the body calls the
        delta of ``pseudo[a]`` ``DELTA + pseudo[a]`` and derives
        ``pseudo[h]``.  With ``grows`` the run installs what it derives
        in the member relations of ``db``, whose sizes then move as the
        deltas' do; without, nobody writes ``db``.  Returns ``run(carry,
        seen, sizes, names, apps, outs, stats, budget, tracer) ->
        (carry, sizes)``: see :func:`loop_text`.
        """
        flow = None
        if isinstance(pseudo, str):
            mounts, moving, bounds = {pseudo: carry}, {pseudo: 0}, [[1, _INF]]
        else:
            flow = [join.flow for join in joins]
            members, pseudo = pseudo, tuple([DELTA + p for p in pseudo])
            mounts = dict(zip(pseudo, carry))
            moving = {name: a for a, name in enumerate(pseudo)}
            if grows:
                moving.update((p, len(members) + h)
                              for h, p in enumerate(members))
            bounds = [[0, _INF] for _ in range(2 * len(members))]
        unbound: frozenset = frozenset()
        if order == "cost":  # its planner reads statistics, not only sizes
            mounts = {name: Relation(name, len(next(iter(rows))), rows)
                      for name, rows in mounts.items() if rows}
        db = db.with_mounts(mounts)
        plans, rels, live = [], [], []
        for join in joins:
            plan = self.plan_for(join.body, unbound, order, db, tracer)
            found = [db.relation(pred) for pred in plan._preds]
            plans.append(plan)
            rels.append(found)
            live.append(not plan.always_empty and all(found))
            _narrow(bounds, join.body, moving, db, order)
        key = (joins, pseudo, tuple(plans), tuple(live), tracer is not None)
        with self._lock:
            entry = self._loops.get(key)
        if entry is None:
            source, groups = loop_text(
                plans, [join.output for join in joins], pseudo, live,
                tracer is not None, flow)
            entry = (_function(self._shapes, source, "separable-loop",
                               "loop"), groups, source)
            with self._lock:
                while len(self._loops) >= self.maxsize:
                    del self._loops[next(iter(self._loops))]
                self._loops[key] = entry
        fn, groups, _ = entry
        terms = tuple([
            tuple([(*[_probe(rels[i][d], positions, cols, tracer)
                      for d, positions, cols in probes], *consts, i)
                   for probes, consts, i in group])
            for group in groups])
        if flow is not None:
            return partial(fn, terms, *zip(*bounds))
        return partial(
            fn, terms,
            tuple([i for i, alive in enumerate(live) if not alive]),
            *bounds[0])

    def loops_for(self, joins: Sequence) -> list[tuple]:
        """``(traced, source, terms, joins)`` of the generated loops that
        ran over ``joins`` -- the join terms of a carry loop, or the
        delta names (``DELTA + member``, in member order) of a stratum
        -- for plan dumps: ``terms`` says per join term with code ``(g,
        i, probed, constants)`` -- it is ``joins[i]``, read from
        ``J<g>``, and ``probed`` names the ``(relation, index signature,
        projected columns or None)`` behind each of its probes."""
        with self._lock:
            return [
                (key[4], source, [
                    (g, i, tuple((key[2][i].atom_order()[d], positions, cols)
                                 for d, positions, cols in probes), consts)
                    for g, group in enumerate(groups)
                    for probes, consts, i in group], key[0])
                for key, (_, groups, source) in self._loops.items()
                if joins in key[:2]
            ]

    def clear(self) -> None:
        """Drop all plans and generated functions, zero the counters."""
        with self._lock:
            self._plans.clear()
            self._order_memo.clear()
            self._shapes.clear()
            self._loops.clear()
            self.hits = 0
            self.misses = 0
            self.compiles = 0
            self.evictions = 0
            self.orders = {}

    def plans_for(self, body: tuple, output: tuple) -> list[JoinPlan]:
        """Cached plans of ``body`` that ran the set-at-a-time kernel
        for ``output`` (for plan dumps)."""
        with self._lock:
            return [p for key, p in self._plans.items()
                    if key[0] == body and (output, True) in p._kernels]

    def stats(self) -> dict:
        """Counter snapshot: ``{size, hits, misses, compiles,
        evictions, orders}`` -- ``orders`` is the ``plan_for`` call
        count per requested join order (the running order mix).
        """
        with self._lock:
            return {
                "size": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "compiles": self.compiles,
                "evictions": self.evictions,
                "orders": dict(self.orders),
            }

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanCache(size={len(self._plans)}, hits={self.hits}, "
            f"misses={self.misses}, compiles={self.compiles})"
        )


#: The process-wide default cache, shared by every evaluator so plans
#: survive across fixpoint rounds, strategies, and queries.
PLAN_CACHE = PlanCache()
