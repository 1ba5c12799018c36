"""Trace-level invariants the fixpoint loops must satisfy.

These are the observability layer's analogue of the statistics sanity
checks in :mod:`repro.differential.oracle`: structural facts about the
*per-iteration* series a correct evaluation always produces, checked by
the differential fuzzer on every traced run.

For a semi-naive stratum (span ``seminaive.scc``):

* delta sizes are never negative and every predicate's series has the
  same length (one entry per round);
* the loop is *monotone-terminating*: every round except the last
  derives at least one new fact for some SCC member, and the final
  round derives none (that is why the loop exited).  Note this is
  deliberately weaker than "delta sizes decrease" -- on fan-out data
  (trees, grids) deltas legitimately grow before they shrink, and the
  corpus keeps a case that tripped an overly strict version of this
  check;
* the deltas are *sum-consistent*: tuples present before the stratum
  ran (IDB base facts, a magic seed fact) plus every round's delta add
  up to the final relation size, because rounds derive disjoint fact
  sets.

For a Separable carry loop (span ``separable.loop``) the same shape:
every iteration's post-difference carry is nonempty except the last,
and ``seed + sum(carries) + absorbed == |seen|`` (Figure 2's set
difference makes the carries disjoint -- Lemma 3.4; ``absorbed`` counts
the rows a memo miss took from entries it absorbed, 0 when absent).
"""

from __future__ import annotations

from .tracer import Tracer

__all__ = ["trace_violations"]

SCC_SPAN = "seminaive.scc"
CARRY_SPAN = "separable.loop"
DELTA_PREFIX = "delta:"


def _scc_violations(span) -> list[str]:
    problems: list[str] = []
    label = span.attrs.get("scc", "?")
    initial = span.attrs.get("initial", {})
    final = span.attrs.get("final")
    deltas = {
        name[len(DELTA_PREFIX):]: values
        for name, values in span.series.items()
        if name.startswith(DELTA_PREFIX)
    }
    if not deltas:
        problems.append(f"scc {label}: no delta series recorded")
        return problems

    lengths = {len(v) for v in deltas.values()}
    if len(lengths) > 1:
        problems.append(
            f"scc {label}: ragged delta series (lengths {sorted(lengths)})"
        )
        return problems
    rounds = lengths.pop()

    for predicate, values in deltas.items():
        if any(v < 0 for v in values):
            problems.append(
                f"scc {label}: negative delta for {predicate}: {values}"
            )

    if span.status == "ok" and rounds:
        for i in range(rounds - 1):
            if not any(values[i] > 0 for values in deltas.values()):
                problems.append(
                    f"scc {label}: round {i} derived nothing yet the "
                    f"loop continued (non-terminating round structure)"
                )
                break
        if rounds > 1 and any(
            values[-1] > 0 for values in deltas.values()
        ):
            problems.append(
                f"scc {label}: final round still derived facts but the "
                f"loop exited"
            )

    if span.status == "ok" and isinstance(final, dict):
        for predicate, values in deltas.items():
            start = initial.get(predicate, 0)
            end = final.get(predicate)
            if end is None:
                continue
            if start + sum(values) != end:
                problems.append(
                    f"scc {label}: delta sum inconsistent for {predicate}: "
                    f"initial {start} + deltas {values} != final {end}"
                )
    return problems


def _carry_violations(span) -> list[str]:
    problems: list[str] = []
    label = span.attrs.get("relation", "?")
    carries = span.series.get("carry", [])
    if any(c < 0 for c in carries):
        problems.append(f"carry loop {label}: negative carry size")
    if span.status != "ok":
        return problems
    for i, c in enumerate(carries[:-1]):
        if c == 0:
            problems.append(
                f"carry loop {label}: empty carry at iteration {i} but "
                f"the loop continued"
            )
            break
    if carries and carries[-1] != 0:
        problems.append(
            f"carry loop {label}: loop exited with nonempty carry "
            f"{carries[-1]}"
        )
    seed = span.attrs.get("seed")
    final_seen = span.attrs.get("final_seen")
    absorbed = span.attrs.get("absorbed", 0)
    if seed is not None and final_seen is not None:
        if seed + sum(carries) + absorbed != final_seen:
            problems.append(
                f"carry loop {label}: seen size inconsistent: seed {seed} "
                f"+ carries {carries} + absorbed {absorbed} != final "
                f"{final_seen}"
            )
    return problems


def trace_violations(tracer: Tracer) -> list[str]:
    """Every invariant violation found in a recorded trace.

    An empty list means the trace is consistent.  Open spans are
    reported too: every span must be closed once evaluation returns or
    raises (exception safety of ``Tracer.span``).
    """
    problems: list[str] = []
    for span in tracer.spans():
        if not span.closed:
            problems.append(f"span {span.name} was never closed")
    for span in tracer.spans(SCC_SPAN):
        problems.extend(_scc_violations(span))
    for span in tracer.spans(CARRY_SPAN):
        problems.extend(_carry_violations(span))
    return problems
