"""Compiled join kernels: slot-based plans cached per (body, signature).

:func:`~repro.datalog.joins.evaluate_body_into` runs every rule
application outside a generated loop through this module, which
compiles a rule body once into a :class:`JoinPlan` -- a flat sequence of
atom steps with precomputed index signatures, key templates, register
slots for the free variables, and ``eq/2`` guards fused between steps --
and each plan generates, per output template, the *source* of a
specialised Python function: nested ``for`` loops over the probed
buckets with the registers as locals, writing every output tuple into
the caller's sink a whole set at a time, as each round of Figure 2 does.

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

A plan resolves all body relations up front and produces nothing if any
is absent or empty: a relation empty at call start cannot contribute a
match, and no relation a body reads changes during the call.
"""

from __future__ import annotations

import linecache
import threading
import weakref
import zlib
from functools import partial
from typing import Mapping, Optional, Sequence

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
    "RelationSink",
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
#: Bound loops :meth:`PlanCache.loop_for` keeps per loop, on whatever
#: database: one per set of plans the sizes of its runs call for (a
#: carry that crosses a fixed relation's size, a delete that removes a
#: few facts and one that removes many, a snapshot whose sizes moved).
_KEPT = 8
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
    output template, into the source of a specialised Python function
    (see :meth:`kernel_source`).
    """

    __slots__ = (
        "body",
        "bound_vars",
        "order",
        "preload",
        "pre_guards",
        "steps",
        "always_empty",
        "_preds",    # the steps' predicates, in execution order
        "_slot_of",  # variable -> register slot
        "_kernels",  # output -> (function, constants, inputs)
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
        self.always_empty = always_empty
        self._preds = tuple(step[0] for step in steps)
        self._slot_of = slot_of
        self._kernels: dict[tuple, tuple] = {}
        self._shapes: dict = {} if shapes is None else shapes

    def atom_order(self) -> tuple[str, ...]:
        """Predicates in execution order (for tests and plan dumps)."""
        return self._preds

    def execute_into(
        self,
        output: tuple,
        db: Database,
        sink,
        initial_bindings: Optional[Mapping[Variable, ConstValue]] = None,
        stats: Optional[EvaluationStats] = None,
        tracer=None,
    ) -> int:
        """Add ``instantiate_args(output, b)`` to ``sink`` for every
        substitution ``b`` satisfying the body against ``db``; return
        how many tuples were produced (before duplicate elimination),
        also counted on ``stats.tuples_produced``.

        The tuples are built straight from the kernel's locals, with no
        bindings dict.  ``output`` is a term sequence, typically a rule
        head's args; a variable outside the body is read from
        ``initial_bindings`` when the call is made, so the ``KeyError``
        if it is not there either is raised here, solutions or not
        (only an absent or empty body relation ends the run earlier:
        all body relations are resolved up front).  ``sink`` has
        ``add`` and ``update`` and no body relation reads it.
        """
        if self.always_empty:
            return 0
        rels: list[Relation] = []
        relation = db.relation
        for pred in self._preds:
            rel = relation(pred)
            if rel is None or not rel:
                return 0
            rels.append(rel)
        fn, consts, inputs = self._kernel(output)
        if inputs:
            inputs = tuple((initial_bindings or {})[var] for var in inputs)
        return fn(rels, consts, inputs, sink, stats, tracer)

    def _kernel(self, output: tuple) -> tuple:
        """``(function, constants, input variables)`` for one output
        template, generated on first use.  Plans of one shape (Example
        1.1's ``friend``, ``idol`` and ``cheaper`` joins) produce one
        text and share its function through ``_shapes``."""
        entry = self._kernels.get(output)
        if entry is None:
            source, consts, inputs = self.kernel_text(output)
            fn = _function(self._shapes, source, "joinplan", "kernel")
            entry = self._kernels[output] = (fn, consts, inputs)
        return entry

    def kernel_source(self, output: Sequence) -> str:
        """The generated Python text of one kernel (what tracebacks
        through a ``<joinplan:...>`` file show)."""
        return self.kernel_text(tuple(output))[0]

    def kernel_text(self, output: tuple) -> tuple:
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
            probes.append(
                f"    q{d} = _probe(rels[{d}], {const(positions)}, "
                f"{None if cols is None else const(cols)}, tracer)")
            return (), f"q{d}({key()})", True

        def contains(d, pred, positions, key):
            probes.append(f"    q{d} = _probe(rels[{d}], {const(positions)}, "
                          f"(), tracer)")
            return f"{key()} in q{d}"

        lines, zero, lookups, examined, bindings, reached = self._nest(
            output, "    ", const, inputs, fetch, contains)
        head = ["def kernel(rels, K, P, sink, stats, tracer):"]
        for count, name, source in ((len(consts), "k", "K"),
                                    (len(inputs), "p", "P")):
            if count:
                targets = _tuple_text(f"{name}{i}" for i in range(count))
                head.append(f"    {targets} = {source}")
        head += probes
        if zero:
            head.append(f"    {' = '.join(zero)} = 0")
        tail = [f"    _flush(stats, tracer, {lookups}, {examined}, "
                f"{bindings}, {reached})", "    return " + reached, ""]
        return "\n".join(head + lines + tail), tuple(consts), tuple(inputs)

    def _nest(self, output: tuple, pad: str, const, inputs: list, fetch,
              contains, sink: str = "sink", pseudo: Optional[str] = None,
              scan: bool = False) -> tuple:
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
        ``sink.update`` (``|=`` in a loop, whose sink is a set).  A
        level reading ``pseudo`` (a plain set, not a relation) is never
        asked that.  A level that binds every column asks
        ``contains(d, predicate, positions, key)`` instead, for the text
        of a membership test, and is one ``if``: no index, and it
        examines the one row it finds.  With ``scan``, a first level
        that scans its candidates is one ``for f0 in`` line, booked by
        the caller.  Returns ``(lines, counters to zero, lookups,
        examined, bindings, produced)``, the last four summed counters.
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
            def key(keys=keys) -> str:
                return _tuple_text(operand(*k) for k in keys)

            if not writes and not checks:
                lines.append(f"{pad}if {contains(d, pred, positions, key)}:")
                pad += "    "
                lines.append(f"{pad}e{d} += 1")
                zero.append(f"e{d}")
                lookups.append(reached)
                examined.append(f"e{d}")
                reached = f"e{d}"
                bindings.append(reached)
                guard(guards, f"g{d}", "if {} == {}:")  # no loop to continue
                continue
            innermost = d == last and not checks and not guards
            cols = None
            if innermost and pred != pseudo:
                # The output made of this atom's free columns, each of
                # them used: with the probed ones they determine the
                # fact, so the projected bucket has one row per fact.
                column = {s: i for i, s in writes}
                slots = [self._slot_of.get(term) for term in output]
                if slots and set(slots) == set(column):
                    cols = tuple(column[s] for s in slots)
            first, candidates, guarded = fetch(d, pred, positions, key, cols)
            if scan and not (d or lines or first or guarded or innermost):
                lines.append(f"{pad}for f0 in {candidates}:")
                pad += "    "
                reg.update((s, f"f0[{const(i)}]") for i, s in writes)
                writes = ()
            else:
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
                    # Nothing to test: the bucket of rows as it is, or
                    # one C-speed comprehension over the bucket of facts.
                    if cols is None:
                        reg.update((s, f"f[{const(i)}]") for i, s in writes)
                        union = f".update([{row()} for f in c{d}])"
                    else:  # a loop's sink is a set
                        union = f" |= c{d}" if pseudo else f".update(c{d})"
                    lines.append(f"{pad}{sink}{union}")
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
            lines.append(f"{pad}{sink}.add({row()})")
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
        namespace = {"_flush": _flush, "_probe": _probe, "_open": _open,
                     "_books": _books, "_tally": _tally, "_absorb": _absorb}
        exec(compile(source, filename, "exec"), namespace)
        fn = shapes[source] = namespace[name]
    return fn


def _flush(stats, tracer, lookups, examined, bindings, produced) -> None:
    """Fold one kernel run's counters into ``stats`` and the tracer."""
    if stats is not None:
        stats.bump_examined(examined)
        stats.bump_produced(produced)
    if tracer is not None:
        _tally(tracer, (0, lookups, examined, bindings, 0, 0, 0))


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
    remaining, bound, ordered = list(range(len(body))), set(bound_vars), []

    def rank(idx: int) -> tuple:
        a = body[idx]
        nb = sum(isinstance(t, Constant) or t in bound for t in a.args)
        if a.predicate == EQ:
            return (0 if nb else 1, -nb, 0, idx)
        rel = db.relation(a.predicate) if db is not None else None
        return (0, -nb, len(rel) if rel is not None else 0, idx)

    while remaining:
        idx = min(remaining, key=rank)
        remaining.remove(idx)
        ordered.append(idx)
        bound.update(t for t in body[idx].args if isinstance(t, Variable))
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
    bound, ordered, pending = set(bound_vars), [], []

    def ready(a: Atom) -> bool:
        return any(isinstance(t, Constant) or t in bound for t in a.args)

    def place(i: int) -> None:
        ordered.append(i)
        bound.update(t for t in body[i].args if isinstance(t, Variable))

    for i in seq:
        a = body[i]
        if a.predicate == EQ and a.arity == 2 and not ready(a):
            pending.append(i)
            continue
        place(i)  # then every eq it readied, the first ready one first
        while (k := next((j for j, p in enumerate(pending)
                          if ready(body[p])), None)) is not None:
            place(pending.pop(k))
    ordered.extend(pending)  # still unready: unsafe, raises at compile
    return tuple(ordered)


def _permutation(body: tuple[Atom, ...], bound_vars: frozenset[Variable],
                 order: str, db: Optional[Database]) -> tuple[int, ...]:
    """``body``'s execution order under ``order``, as body positions:
    ``left_to_right`` is the given order, except unready ``eq`` atoms
    wait for a binder."""
    if order == "greedy":
        return greedy_permutation(body, bound_vars, db)
    if order == "cost":
        return _cost_sequence(body, bound_vars, db)[0]
    return _defer_eq_indices(body, range(len(body)), bound_vars)


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
    return _compile_sequence(body, bound_vars, order,
                             _permutation(body, bound_vars, order, db))


def _compile_sequence(
    body: tuple[Atom, ...],
    bound_vars: frozenset[Variable],
    order: str,
    perm: Sequence[int],
    shapes: Optional[dict] = None,
) -> JoinPlan:
    """Compile ``body`` executed in the order ``perm`` into a
    :class:`JoinPlan` (``shapes``: the kernel-function table of its
    cache, if any)."""
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

    for a in [body[i] for i in perm]:
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
            elif l_known or r_known:  # assign the unknown side
                src, var = (left, right) if l_known else (right, left)
                dst = slot(var)
                bound.add(var)  # type: ignore[arg-type]
                const = isinstance(src, Constant)
                guard_sink.append((_ASSIGN, not const,
                                   src.value if const else slot(src), dst))
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
    return JoinPlan(
        body=body,
        bound_vars=bound_vars,
        order=order,
        preload=tuple(preload),
        pre_guards=tuple(pre_guards),
        steps=steps,
        always_empty=always_empty,
        slot_of=slot_of,
        shapes=shapes,
    )


def loop_text(plans: Sequence[JoinPlan], outputs: Sequence[tuple],
              pseudo: Sequence[str], flow: Sequence[tuple[int, int]],
              live: Sequence[bool], read: Sequence[bool],
              traced: bool, batched: bool = False) -> tuple:
    """Source of one loop of Figure 2: while a ``carry`` is non-empty, a
    round of join terms, then ``carry = produced - seen`` and ``seen |=
    carry`` per member.

    Slot ``a`` is the set the bodies call ``pseudo[a]``: the first
    ``len(read)`` are the members' deltas, any after them round-zero
    slots, empty from round one on.  Term ``i`` reads slot ``a`` and
    derives member ``h``, ``flow[i] = (a, h)``, by ``plans[i]`` into
    ``outputs[i]``; a term not ``live[i]`` (a fixed relation absent or
    empty) gets no code, and a term of an empty slot does not run.  A
    carry loop is one slot and one member, a set; a stratum has a delta
    and a :class:`RelationSink` per predicate.  A member some term reads
    in full (``read[h]``: a nonlinear or mutually recursive SCC)
    installs at each of its terms' ends instead, and is planned on.
    ``batched`` runs a carry loop for many seeds (a Lemma 2.1 union):
    carry and seen are dicts of sets by seed, a round runs the terms once
    per non-empty carry, sized by the largest and booked at the totals;
    with no member, it is one pass that installs nothing.  A loop of one
    slot and one member that no term reads, unbatched, takes a table
    ``T`` and a list ``A`` too: while ``T`` is non-empty, a round ends
    in :func:`_absorb`.

    Returns ``(source, groups)``: consecutive terms whose nested loops
    (:meth:`JoinPlan._nest`) read the same are one *shape*, inlined once
    and run ``for`` each in turn (in order: ``rule_out:`` credits a tuple
    to the first term that produces it); ``groups[g]`` lists the terms
    of run ``g`` as ``(probes, constants, i)``, ``probes`` the ``(step,
    positions, cols)`` of each lookup into a fixed relation (``cols``: a
    projected probe's columns, ``()`` a membership test, else None).
    Untraced, a run that scans its slot first, for a member no term
    reads, books ``len(J0)`` times the slot's size; an unbatched round
    makes one pass, each row through each term.  The text names no value,
    name or run length: Example 1.1's down loop, Example 1.2's loops and
    a linear stratum over a join of that shape are one function.

    Bound before the loop: the plans, valid while the slots and the
    members planned on stay inside ``lo`` / ``hi`` (else the function
    returns and the caller re-plans), and each fixed relation's probe
    ``q<j>``.  A slot is scanned, tested with ``in`` or indexed once a
    round, as the plan reads it.  The books are locals, compared with
    limits read once (:func:`_open`); they reach ``stats``
    (:func:`_books`) in a ``finally``, whole rounds only, and the tracer
    (:func:`_tally`) term by term, as the reference loop
    (``core/evaluator.py::_carry_loop``) leaves them.  The deadline is
    checked on entry, the budget at the end of a round that may trip it
    (every round while a deadline is armed).
    """
    once, read = not read, read or (False,)  # no member: one pass
    pad, slots, members = " " * 16, range(len(pseudo)), range(len(read))

    def at(name: str, k: int) -> str:  # Figure 2's names for one slot
        return name if len(slots) == 1 else f"{name}{k}"

    shapes: list[tuple] = []  # the text of each run of like terms
    groups: list[list] = []   # the terms of each run
    indexed = False           # does some term probe a slot?
    for i, (plan, output, alive) in enumerate(zip(plans, outputs, live)):
        if not alive:
            continue
        consts: list = []
        probes: list[tuple] = []
        inputs: list = []
        a, h = flow[i]
        carry, delta = at("carry", a), pseudo[a]

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
            index = const((a, positions))
            cols = _tuple_text(f"f[{const(p)}]" for p in positions)
            build = [f"x = indexes.get({index})", "if x is None:",
                     f"    x = indexes[{index}] = {{}}",
                     f"    for f in {carry}:",
                     f"        x.setdefault({cols}, []).append(f)"]
            return build + ["    I += 1", f"    N += len({carry})"] * traced, \
                f"x.get({key()})", True

        def contains(d, pred, positions, key):
            if pred == delta:
                return f"{key()} in {carry}"
            probes.append((d, positions, ()))
            return f"{key()} in q{len(probes) - 1}"

        lines, zero, *sums = plan._nest(output, pad, const, inputs, fetch,
                                        contains, at("produced", h), delta,
                                        not traced and not read[h])
        if inputs:  # an output variable the body does not bind
            raise KeyError(inputs[0])
        shape = (tuple(lines), tuple(zero), *sums, len(probes), len(consts),
                 a, h)
        if not shapes or shapes[-1] != shape:
            shapes.append(shape)
            groups.append([])
        groups[-1].append((tuple(probes), tuple(consts), i))

    # A round books its counts once its terms have all run: untraced,
    # rx / rp hold them meanwhile; traced, the books take a copy.
    pooled = not traced and not once and (batched or len(shapes) > 1)
    x, p = ("rx", "rp") if pooled else ("X", "P")
    done, final = (["booked = R, X, P"], "booked") if traced else (
        ["R += 1"] + ["X += rx", "P += rp"] * pooled, "(R, X, P)")
    body: list[str] = []
    for g, (lines, zero, lookups, examined, bindings, made, nq, nk, a, h) \
            in enumerate(shapes):
        names = ", ".join([f"q{j}" for j in range(nq)]
                          + [f"k{j}" for j in range(nk)] + ["i"])
        produced, seen = at("produced", h), at("seen", h)
        scan = lines[0].startswith(f"{pad}for f0 in ")  # booked below
        if scan and not (batched or once):  # each row of a round, each term
            size = at("n", a) if a in members else f"len(carry{a})"
            body += [pad[4:] + " = ".join(zero) + " = 0", lines[0][4:],
                     f"{pad}for {names} in J{g}:", *lines[1:],
                     f"{pad[4:]}{x} += len(J{g}) * {size} + {examined}",
                     f"{pad[4:]}{p} += {made}"]
            continue
        if scan:  # a seed's carry, or its seen_1, has rows: term by term
            examined = f"len({at('carry', a)}) + {examined}"
        terms = f"J{g} if carry{a} else ()" if len(slots) > 1 else f"J{g}"
        body.append(f"            for {names} in {terms}:")
        before = [f"{produced} = set()"] * read[h] + [
            f"before = len({produced})"] * traced + [" = ".join(zero) + " = 0"]
        after = [f"{x} += {examined}", f"{p} += {made}"]
        if traced:  # credit the term with what it made and what it added
            after += [f"L += {lookups}", f"B += {bindings}", f"if {made}:",
                      f"    M[i] = M.get(i, 0) + {made}",
                      f"out = len({produced}) - before", "if out:",
                      "    O[i] = O.get(i, 0) + out"]
        after += [f"fresh = {produced} - {seen}", f"{seen} |= fresh",
                  f"{at('next', h)} |= fresh"] * read[h]
        body += [pad + line for line in before] + [*lines] \
            + [pad + line for line in after]

    J = f"    {_tuple_text(f'J{g}' for g in range(len(shapes)))} = J"
    counts = ["X", "P"] + ["L", "B", "S", "I", "N", "F", "i"] * traced
    if once:  # a batch's exit join: each seed's produced set, no round
        run = ["        for seed, carry in batch.items():",
               "            produced = set()"] + ["            indexes = {}"] \
            * indexed + body + ["            F += 1"] * traced + [
            "            todo[seed] = produced",
            "        _flush(stats, None, 0, X, 0, P)", "        return todo,"]
        lines = ["def loop(J, lo, hi, carry, seen, names, labels, stats, "
                 "budget, tracer):", "    (batch,) = carry", J,
                 f"    {' = '.join(counts)} = 0", "    todo = {}"] + ([
            "    M, O = {}, {}", "    try:", *run, "    finally:",
            "        _tally(tracer, (0, L, X, B, S, I, N), labels, "
            "(F, i, M, O))"] if traced else [line[4:] for line in run])
        return "\n".join(lines + [""]), tuple(map(tuple, groups))

    # The sizes checked each round: the slots' and the members' planned on.
    checked = [(a, at("lo", a), at("hi", a), at("n", a) if a in members
                else f"len(carry{a})") for a in slots]
    checked += [(v, f"lo{v}", f"hi{v}", f"len({at('seen', m)})") for m, v in
                zip(members, range(len(slots), len(slots) + len(members)))
                if read[m]]
    within = [f"{lo} <= {size} < {hi}" for _, lo, hi, size in checked]
    if len(slots) > len(members):  # an empty slot was planned as a row
        within[:len(slots)] = [f"({test} or not carry{a})"
                               for a, test in zip(slots, within)]
    test = " and ".join(within)
    top = [f"if not ({test}):" if len(within) > 1 else f"if not {test}:",
           "    break"] + ["R += 1"] * traced + ["rx = rp = 0"] * pooled
    first, tail, caps, over, most, last = [], ["F += 1"] * traced, [], [], \
        [], []
    for m in members:
        carry, seen, n, c, made = (at(name, m) for name in (
            "carry", "seen", "n", "C", "next" if read[m] else "produced"))
        first += [f"{n} = len({carry})", f"if {n} > {c}:", f"    {c} = {n}"]
        top.append(f"{made} = set()")
        tail += [f"{carry} = {made}"] if read[m] else [
            f"{carry} = {made} - {seen}", f"{seen} |= {carry}"]
        caps.append(at("cap", m))
        over.append(f"len({seen}) > {caps[-1]}")
        most.append(f"(max({c}, len({carry})), len({seen}))")
        last.append(f"({c}, len({seen}))")
    if len(slots) > len(members):
        tail.append(" = ".join(f"carry{a}" for a in slots[len(members):])
                    + " = ()")
    absorbs = len(slots) == len(members) == 1 and not read[0] and not batched
    tail += ["if T:", "    carry = _absorb(T, carry, seen, A)"] * absorbs
    carries = _tuple_text(at("carry", a) for a in slots)
    unpack = [f"    {carries} = carry",
              f"    {_tuple_text(at('seen', m) for m in members)} = seen"]
    opened = "names, seen"
    if batched:  # the round's terms and installs, once per seed's carry
        first = ["n = max(map(len, todo.values()))", "if t > C:", "    C = t"]
        top[-1:] = ["batch, todo = todo, {}",
                    "for seed, carry in batch.items():",
                    "    seen = seens[seed]", "    produced = set()"] + [
                    "    indexes = {}"] * indexed
        body = ["    " + line for line in body]
        tail = ["    " + line for line in tail + [
            "if carry:", "    todo[seed] = carry"]] + done + [
            "t = sum(map(len, todo.values()))", "T += t"]
        done = []
        indexed, carries = False, "(todo,)"
        unpack = ["    (todo,) = carry", "    (seens,) = seen",
                  "    T = sum(map(len, seens.values()))",
                  "    t = sum(map(len, todo.values()))"]
        opened = "names, (T,)"
        over, most, last = ["T > cap"], ["(max(C, t), T)"], ["(C, T)"]
    tail += ["tracer.record(%s, %s)" % (at("series", m), "t" if batched
                                        else f"len({at('carry', m)})")
             for m in members] * traced
    caps = _tuple_text(caps)
    tail += [f"if R > rounds or {' or '.join(over)}:",
             f"    {caps} = _books(books, (R, X, P), {_tuple_text(most)})"]
    books = ["R", *counts[:2], *[at("C", m) for m in members], *counts[2:]]
    opened = f"    books, rounds, {caps} = _open(stats, budget, {opened})"
    head = ["def loop(J, lo, hi, carry, seen, names, labels, stats, budget, "
            "tracer%s):" % (", T=None, A=None" * absorbs),
            *(unpack + [opened] if batched else [opened] + unpack),
            "    %s = %s" % (
                ", ".join(f"{lo}, {hi}" for _, lo, hi, _ in checked),
                ", ".join(f"lo[{v}], hi[{v}]" for v, *_ in checked)),
            J,
            f"    {' = '.join(books)} = 0"]
    head += ["    booked = R, X, P", "    M, O = {}, {}", "    %s = labels[0]"
             % _tuple_text(at("series", m) for m in members)] * traced
    head += ["    try:", "        while %s:" % (" or ".join(
        at("carry", a) for a in slots) if not batched else "todo")]
    lines = [" " * 12 + line
             for line in first + top + ["indexes = {}"] * indexed]
    lines += body + [" " * 12 + line for line in done + tail]
    lines += [f"        return {carries}", "    finally:",
              f"        _books(books, {final}, {_tuple_text(last)}, False)"]
    lines += ["        _tally(tracer, (R, L, X, B, S, I, N), labels, "
              "(F, i, M, O))"] * traced
    return "\n".join(head + lines + [""]), tuple(map(tuple, groups))


def _open(stats, budget, names, seen) -> tuple:
    """``(books, rounds, caps)`` of a generated loop at entry, after the
    deadline's check: what :func:`_books` needs, the rounds it may run
    before the iteration limit trips (-1 while a deadline is armed:
    every round then calls :func:`_books`) and :func:`_caps` of the
    members ``seen`` (a batch: of their sizes)."""
    armed = budget.deadline is not None
    if armed:
        budget.check_wall(stats)
    books = (stats, budget, names, stats and (
        stats.iterations, stats.tuples_examined, stats.tuples_produced))
    rounds = -1 if armed else _INF if stats is None \
        else budget.max_iterations - stats.iterations
    return books, rounds, _caps(books, [
        member if type(member) is int else len(member) for member in seen])


def _caps(books, sizes) -> tuple:
    """Per member size, the largest at which no relation or total limit
    can trip: each member and its delta get an equal share of the
    total's room over what the member has on record.  (A delta needs no
    cap of its own: every later delta tuple is a member tuple too.)"""
    stats, budget, names, _ = books
    if stats is None:  # a loop that keeps no statistics
        return (_INF,) * len(sizes)
    room = (budget.max_total_tuples - stats.total_relation_size) \
        // (2 * len(names))
    recorded = stats.relation_sizes.get
    return tuple([min(budget.max_relation_tuples,
                      min(size, recorded(name, 0)) + room)
                  for (_, name), size in zip(names, sizes)])


def _books(books, counts, sizes, check=True):
    """Write a loop's books back: ``stats`` gets ``base + counts``
    (iterations, examined, produced) and, per member of ``names`` --
    ``(delta name or None, member name)`` -- a record of each name at
    ``sizes`` ``(the delta's maximum, the member's size)``: idempotent,
    so a ``finally`` (not ``check``) may repeat what a check wrote.
    With ``check``, run the budget's checks as the reference loop does
    at a round's end -- each member after its records, then the total,
    the iterations and the deadline -- and return new caps."""
    stats, budget, names, base = books
    if stats is not None:
        stats.iterations, stats.tuples_examined, stats.tuples_produced = [
            b + c for b, c in zip(base, counts)]
        for (delta, name), (most, size) in zip(names, sizes):
            if delta is not None:
                stats.record_relation(delta, most)
            stats.record_relation(name, size)
            if check:
                budget.check_relation(name, size, stats)
    if check:
        (budget.check_wall if stats is None else budget.check_stats)(stats)
        return _caps(books, [size for _, size in sizes])


def _absorb(table, carry, seen, found) -> set:
    """A carry loop's round end where ``table`` knows a fresh row: it
    maps a row to ``(seen, ...)`` of this loop already run from it on
    the same database (a memo's
    :meth:`~repro.service.FullSelectionMemo.seen_sets`), and that
    ``seen``, closed under the loop's step, joins ``seen`` whole and
    leaves ``carry``.  Appends the entry and the rows it added to
    ``found`` per row absorbed; returns the carry.  ``table`` is live:
    it is probed, never iterated."""
    for row in [row for row in carry if row in table]:
        entry = table.get(row)
        if entry is not None and row in carry:
            before = len(seen) - len(carry)
            seen |= entry[0]
            carry = carry - entry[0]
            found.append((*entry, len(seen) - len(carry) - before))
    return carry


def _tally(tracer, counts, labels=(), credits=()) -> None:
    """Count what a traced loop or kernel kept in locals, once a call:
    ``counts`` is ``(iterations, atom_lookups, tuples_examined,
    bindings_out, full_scans, index_builds, index_tuples)``; a loop's
    ``credits`` ``(rounds whose terms all ran, the term running, per
    term the tuples it made, ... it added to its round's produced set)``
    go to its ``labels`` (:meth:`PlanCache.loop_for`).  No counter is
    bumped by 0, except ``tuples_examined`` beside lookups."""
    rounds, lookups, examined, bindings, scans, builds, rows = counts
    pairs = []
    if labels:
        _, apps, *outs = labels
        full, running, *credit = credits
        pairs = [(a, full + (rounds > full and j < running)) for a, j in apps]
        for names, made in zip(outs, credit):
            pairs += [(names[j], n) for j, n in made.items() if names]
    if lookups:
        tracer.count("atom_lookups", lookups)
        tracer.count("tuples_examined", examined)
    for name, n in (("iterations", rounds), ("bindings_out", bindings),
                    ("full_scans", scans), ("index_builds", builds),
                    ("index_tuples", rows), *pairs):
        if n:
            tracer.count(name, n)


def _narrow(bounds: list, body: tuple[Atom, ...], moving: Mapping[str, int],
            db: Database, order: str, halfway: bool = False,
            anchored: frozenset = frozenset()) -> None:
    """Narrow ``bounds[slot] = [lo, hi]`` to the sizes ``[lo, hi)`` over
    which :meth:`PlanCache.plan_for` keys ``body`` as it does now, when
    only the relations in ``moving`` (predicate -> slot) change size.

    Every key says which relations are empty; ``cost`` keys on each
    size's ``bit_length`` bucket and ``greedy`` on the stable argsort of
    the sizes (``i`` sorts before a later ``j`` while ``size_i <=
    size_j``).  A pair with one moving side is bounded exactly; two
    moving sides are kept apart at the larger one's current size, where
    sizes only grow (a stratum's) -- or, ``halfway``, at the middle of
    the two, where they also shrink (a view's relations across writes).
    An ``anchored`` slot (a fixed relation, which moves only between
    runs) is split from an unanchored one at its own size, so the
    other side keeps the room it has without it, and from another
    anchored one halfway.
    """
    sized = []  # (size, bounds of the slot or None, anchored) per atom
    for a in body:
        rel = db.relation(a.predicate) if a.predicate != EQ else None
        n = len(rel) if rel is not None else 0
        slot = moving.get(a.predicate)
        if slot is None:
            sized.append((n, None, False))
            continue
        bound = bounds[slot]
        sized.append((n, bound, slot in anchored))
        lo, hi = (1, _INF) if n else (0, 1)
        if order == "cost":
            lo, hi = 1 << n.bit_length() >> 1, 1 << n.bit_length()
        bound[:] = max(bound[0], lo), min(bound[1], hi)
    if order != "greedy":
        return
    for j, (nj, bj, aj) in enumerate(sized):
        for ni, bi, ai in sized[:j]:
            if bi is bj:  # both fixed, or one relation twice
                continue
            both = bi is not None and bj is not None
            meet = both and (halfway or ai and aj)
            if ni <= nj:  # i sorts first while size_i <= cut <= size_j
                cut = (ni + nj) // 2 if meet else (
                    ni if both and ai else nj)
                if bi is not None:
                    bi[1] = min(bi[1], cut + 1)
                if bj is not None:
                    bj[0] = max(bj[0], ni if bi is None else cut)
            else:  # j sorts first while size_j < cut <= size_i
                cut = (ni + nj + 1) // 2 if meet else (
                    nj + 1 if both and aj else ni)
                if bi is not None:
                    bi[0] = max(bi[0], nj + 1 if bj is None else cut)
                if bj is not None:
                    bj[1] = min(bj[1], cut)


def _probe(rel, positions: tuple[int, ...], cols, tracer):
    """``key -> tuples`` (a collection, possibly empty, or None) of one
    relation, bound once for a whole run of a generated loop or kernel:
    the facts matching ``key`` on ``positions``, or with ``cols`` those
    columns of them (:meth:`Relation.lookup_projected`).

    The bound ``dict.get`` of a :class:`Relation` index: the index is
    the relation's own, built here if need be, and stays current because
    whoever writes the relation during the run (a loop installing what
    it derived) patches that very dict.  A traced run probes a
    still-unbuilt index through the relation's method so that the build
    is counted where the reference loop counts it; so does every full
    scan.  A frozen (``_readonly``) ``SQLiteRelation`` binds its
    read-through bucket the same way, so a repeated key is one dict
    lookup, not a SQL call; a writable one, or any other
    ``RelationStorage``, is probed through its method.  ``cols == ()``
    is a membership test: the answer is the relation's row set.
    """
    if cols == ():
        return rel._tuples if type(rel) is Relation else weakref.proxy(rel)
    # Through a weak proxy: a kept loop's probe keeps no relation alive.
    lookup = (partial(type(rel).lookup, weakref.proxy(rel), positions)
              if cols is None else partial(type(rel).lookup_projected,
                                           weakref.proxy(rel), positions,
                                           cols))
    if positions and type(rel) is Relation:
        indexes, signature = _index_of(rel, positions, cols)
        index = indexes.get(signature)
        if index is None and tracer is None:
            lookup(())
            index = indexes[signature]
        if index is not None:
            return index.get
    elif positions and getattr(rel, "_readonly", False):
        bucket = rel._buckets.get((positions, cols))
        if bucket is None and tracer is None:
            bucket = rel._bucket(positions, cols)
        if bucket is not None:
            return bucket.__getitem__
    return partial(lookup, tracer=tracer)


def _index_of(rel: Relation, positions: tuple, cols) -> tuple:
    """``(indexes, signature)``: where ``rel`` keeps the index a probe on
    ``positions`` reads (projected onto ``cols`` unless that is None)."""
    return ((rel._indexes, positions) if cols is None
            else (rel._projected, (positions, cols)))


def _largest(rows) -> int:
    """A slot's size as its plans see it: a batch's largest carry."""
    if type(rows) is dict:
        return max(map(len, rows.values()), default=0)
    return len(rows)


class _Bound:
    """A loop :meth:`PlanCache.loop_for` keeps, apart from any database:
    its function, :func:`loop_text`'s ``groups`` (each probe's relation
    named; ``probed``: the names), :meth:`sized`'s fields, and
    ``pointing``, its probes taken from one database (:meth:`point`),
    replaced whole and without a lock -- a caller runs the pointing it
    checked or made, so a lost race costs one re-point; it refers back
    to the loop until one of its relations goes, and then drops to None
    (:func:`_unpoint`)."""

    __slots__ = ("fn", "groups", "probed", "kept", "fixed", "lo", "hi",
                 "pointing")

    def sized(self, db: Database, carry: tuple, seen: Sequence) -> bool:
        """Whether the loop runs ``carry`` and ``seen`` on ``db`` with
        the plans it would be bound to now: every size is in its
        interval -- the slots' (a batch's largest carry; a ``kept``
        loop's empty slot runs no term), the members', and those of the
        ``fixed`` relations the terms read, which writes and snapshots
        move too (an absent or empty one's term got no code)."""
        lo, hi, kept = self.lo, self.hi, self.kept
        v = 0  # the slots first: there most loops kept for a shape differ
        for size in map(_largest, carry):
            if (size or not kept) and not lo[v] <= size < hi[v]:
                return False
            v += 1
        fixed = [0 if rel is None else len(rel)
                 for rel in map(db.relation, self.fixed)]
        for size in [*map(len, seen), *fixed]:
            if not lo[v] <= size < hi[v]:
                return False
            v += 1
        return True

    def pointed(self, pointing: tuple, db: Database) -> bool:
        """Whether ``pointing``'s probes are ``db``'s: each relation (held
        weakly) is the one ``db`` names so -- as on the database it was
        taken on; a snapshot mounts an unwritten one as the same object
        -- and each index it probes is still its relation's
        (``Relation._unshare`` and ``clear`` drop them in place)."""
        if pointing[0]() is not db:
            relation = db.relation
            for name, ref in zip(self.probed, pointing[1]):
                if ref() is not relation(name):
                    return False
        for indexes, signature, index in pointing[2]:
            if indexes.get(signature) is not index:
                return False
        return True

    def fits(self, pointing: tuple, db: Database, carry: tuple,
             seen: Sequence) -> bool:
        """May ``pointing``'s ``run`` run ``carry`` and ``seen`` on
        ``db`` now?"""
        return self.sized(db, carry, seen) and self.pointed(pointing, db)

    def point(self, db: Database, tracer=None) -> tuple:
        """``(db, refs, held, run, fits)``, all but ``run`` what
        :meth:`pointed` checks, ``run`` bound to the probes of ``db``'s
        relations (:func:`_probe`), holding none of them: a replaced
        snapshot goes by refcount and drops it (:func:`_unpoint`)."""
        relation, terms, held = db.relation, [], []
        for group in self.groups:
            terms.append(tuple([
                (*[_probe(relation(name), positions, cols, tracer)
                   for name, positions, cols in probes], *consts, i)
                for probes, consts, i in group]))
            for probes, _, _ in group:
                for name, positions, cols in probes:
                    rel = relation(name)
                    if positions and cols != () and type(rel) is Relation:
                        where = _index_of(rel, positions, cols)
                        held.append((*where, where[0].get(where[1])))
        drop = partial(_unpoint, self)
        pointing = (weakref.ref(db), tuple([weakref.ref(relation(name), drop)
                                            for name in self.probed]),
                    tuple(held), partial(self.fn, tuple(terms), self.lo,
                                         self.hi))
        return (*pointing, partial(self.fits, pointing))


def _unpoint(loop: _Bound, ref) -> None:
    """A relation probed through ``ref`` is gone: drop ``loop``'s
    pointing on it, and what it held (buckets, a connection) with it."""
    pointing = loop.pointing
    if pointing is not None and ref in pointing[1]:
        loop.pointing = None


class RelationSink:
    """A relation as a member of a generated loop: ``rows - sink`` is
    the set of ``rows`` not in it, ``sink |= rows`` installs them (and
    hands them to ``also``), and ``len(sink)`` is ``size`` plus what it
    installed, so the relation is never asked.  A :class:`Relation`
    answers with one set difference, and first gives up index buckets
    it shares with a snapshot: its next write would drop them
    (:meth:`Relation._unshare`) from under the loop's bound probes.
    Any other ``RelationStorage`` is asked fact by fact."""

    __slots__ = ("name", "size", "_rel", "_also")

    def __init__(self, rel, size: int, also=None) -> None:
        if type(rel) is Relation:
            rel._unshare()
        self.name, self.size, self._rel, self._also = rel.name, size, rel, also

    def __rsub__(self, rows: set) -> set:
        if type(self._rel) is Relation:
            return rows - self._rel._tuples
        return {f for f in rows if f not in self._rel}

    def __ior__(self, rows: set) -> "RelationSink":
        if rows:
            self._rel.add_all(rows)
            self.size += len(rows)
            if self._also is not None:
                self._also(rows)
        return self

    def __len__(self) -> int:
        return self.size


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
                 "_bound", "_lock")

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._plans: dict[tuple, JoinPlan] = {}
        self._order_memo: dict[tuple, tuple[tuple[int, ...], float]] = {}
        #: generated source text -> compiled function, shared by the
        #: plans (kernels) and carry loops of that shape
        self._shapes: dict = {}
        #: (joins, pseudo, plans, live, read, traced) -> (function,
        #: groups, text)
        self._loops: dict[tuple, tuple] = {}
        #: (id of joins, pseudo, order, batched, member names) -> (joins,
        #: its :class:`_Bound` loops, newest first) (:meth:`loop_for`)
        self._bound: dict[tuple, tuple] = {}
        self._lock = threading.Lock()
        self.clear()  # the counters

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
                relation, sizes = db.relation, []
                for a in body:
                    rel = relation(a.predicate) if a.predicate != EQ else None
                    sizes.append(len(rel) if rel is not None else 0)
                rank = tuple(sorted(range(len(body)), key=sizes.__getitem__))
                key = (body, bound_vars, rank, tuple([s == 0 for s in sizes]))
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
        perm = key[3] if order == "cost" \
            else _permutation(body, bound_vars, order, db)
        plan = _compile_sequence(body, bound_vars, order, perm,
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

    def loop_for(self, joins: Sequence, pseudo: tuple, carry: tuple,
                 seen: Sequence, order: str, db: Database, tracer=None):
        """One loop of Figure 2 over the join terms ``joins`` (each with
        a ``body``, an ``output`` and a ``flow``), generated by
        :func:`loop_text` from the plans :meth:`plan_for` gives now --
        asked once per join, not once per round -- and bound to the
        fixed relations' probes and to the sizes ``[lo, hi)`` of each
        slot, each member and each fixed relation of ``db`` over which
        those plans stay :meth:`plan_for`'s choice (:func:`_narrow`).
        Round-zero slots (an incremental view's write) plan an empty
        slot as one row and split two moving sizes halfway.  A carry
        that is a dict of sets by seed is a Lemma 2.1 batch
        (:func:`loop_text`), planned on its largest set; with no member,
        ``run`` returns each seed's produced set.

        An untraced call takes the first of the loops kept -- the
        newest few per ``(joins, pseudo, order, flavour)``, on whatever
        database -- whose sizes hold on ``db`` (:meth:`_Bound.sized`),
        runs its pointing if its probes are ``db``'s, else
        re-points it (:meth:`_repoint`), and binds only when none fits:
        a loop is bound once per set of plans, and on a snapshot after
        a write re-pointed only if it probes a relation written.

        Returns ``(run, fits)``.  ``run(carry, seen, names, labels,
        stats, budget, tracer) -> carry`` advances the loop in place and
        returns the slots: empty when it is done, else out of their
        interval, and the caller asks again.  ``stats`` records
        ``names[m] = (delta name or None, member name)``; the traced
        flavour counts under ``labels = (series per member, (rule_apps
        label, first term) pairs, rule_out label per term credited with
        what it made, the same with what it added to its round's
        produced set)``.  ``fits(db, carry, seen)``: may ``run`` run
        them on ``db`` now (:meth:`_Bound.fits`)?
        """
        written = tuple([member.name if type(member) is RelationSink
                         else None for member in seen])
        if tracer is not None:
            return self._bind(joins, pseudo, carry, seen, order, db, tracer,
                              written).pointing[3:]
        # The entry keeps ``joins``, so its id names it while it lives.
        key = (id(joins), pseudo, order, type(carry[0]) is dict, written)
        with self._lock:
            _, loops = self._bound.get(key, (joins, ()))
            loops = tuple(loops)
        for loop in loops:
            if loop.sized(db, carry, seen):
                pointing = loop.pointing
                if pointing is None or not loop.pointed(pointing, db):
                    pointing = self._repoint(loop, db)
                return pointing[3:]
        loop = self._bind(joins, pseudo, carry, seen, order, db, None, written)
        pointing = loop.pointing  # before another thread may re-point it
        with self._lock:
            while key not in self._bound and len(self._bound) >= self.maxsize:
                del self._bound[next(iter(self._bound))]
            _, loops = self._bound.setdefault(key, (joins, []))
            loops.insert(0, loop)
            del loops[_KEPT:]
        return pointing[3:]

    def _repoint(self, loop: _Bound, db: Database) -> tuple:
        """``loop``'s new pointing, on ``db`` (:meth:`_Bound.point`)."""
        loop.pointing = pointing = loop.point(db)
        return pointing

    def _bind(self, joins: Sequence, pseudo: tuple, carry: tuple,
              seen: Sequence, order: str, db: Database, tracer,
              written: tuple) -> _Bound:
        """:meth:`loop_for`'s loop, bound anew and pointed on ``db``;
        ``written``: the name of each :class:`RelationSink` member."""
        kept = 0 < len(seen) < len(pseudo)
        batched = type(carry[0]) is dict
        if batched:  # planned on its largest carry
            carry = (max(carry[0].values(), key=len, default=set()),)
        preds = {a.predicate: a.arity for join in joins for a in join.body}
        mounts = {name: rows or {(None,) * preds.get(name, 0)} if kept
                  else rows for name, rows in zip(pseudo, carry)}
        fixed = tuple(sorted({*preds} - {*pseudo, *written, EQ}))
        sized = (*pseudo, *written, *fixed)  # the relation of each bound
        moving = {name: v for v, name in enumerate(sized) if name is not None}
        anchored = frozenset() if kept else frozenset(
            range(len(sized) - len(fixed), len(sized)))
        bounds = [[0, _INF] for _ in sized]
        if order == "cost":  # its planner reads statistics, not only sizes
            mounts = {name: Relation(name, len(next(iter(rows))), rows)
                      for name, rows in mounts.items() if rows}
        view = db.with_mounts(mounts)
        plans, live = [], []
        for join in joins:
            plan = self.plan_for(join.body, frozenset(), order, view, tracer)
            plans.append(plan)
            live.append(not plan.always_empty
                        and all(map(view.relation, plan._preds)))
            _narrow(bounds, join.body, moving, view, order, kept, anchored)
        read = tuple([name in preds for name in written])
        key = (joins, pseudo, tuple(plans), tuple(live), read,
               tracer is not None, batched)
        with self._lock:
            entry = self._loops.get(key)
        if entry is None:
            source, groups = loop_text(
                plans, [join.output for join in joins], pseudo,
                [join.flow for join in joins], live, read, tracer is not None,
                batched)
            entry = (_function(self._shapes, source, "separable-loop",
                               "loop"), groups, source)
            with self._lock:
                while len(self._loops) >= self.maxsize:
                    del self._loops[next(iter(self._loops))]
                self._loops[key] = entry
        loop = _Bound()
        loop.fn, groups, _ = entry
        loop.groups = tuple([tuple([  # each probe's step named
            (tuple([(plans[i]._preds[d], positions, cols)
                    for d, positions, cols in probes]), consts, i)
            for probes, consts, i in group]) for group in groups])
        loop.probed = tuple(dict.fromkeys(
            name for group in loop.groups for probes, _, _ in group
            for name, _, _ in probes))
        loop.kept, loop.fixed = kept, fixed
        loop.lo, loop.hi = zip(*bounds)
        loop.pointing = loop.point(db, tracer)
        return loop

    def loops_for(self, joins: Sequence) -> list[tuple]:
        """``(traced, source, terms, joins)`` of the generated loops that
        ran over ``joins`` -- their join terms, or a stratum's delta
        names -- for plan dumps: per join term with code, ``terms`` has
        ``(g, i, probed, constants)``: ``joins[i]`` is read from
        ``J<g>`` and probes ``(relation, index signature, projected
        columns or None)`` per ``probed``."""
        with self._lock:
            return [
                (key[5], source, [
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
            self._bound.clear()
            self.hits = 0
            self.misses = 0
            self.compiles = 0
            self.evictions = 0
            self.orders: dict[str, int] = {}

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
