"""Regression gating: diff a fresh bench run against a committed baseline.

Two sources of gates, matching what is and is not deterministic:

* **baseline gates** on every (strategy, n) cell the current run shares
  with the baseline -- outcome, answer count and digest,
  ``max_relation_size`` and tracer counters depend only on the code and
  the (seeded) workloads, so any drift is a real behavioural change and
  the default tolerance is exact equality; the *normalized* wall-clock
  ratio must stay under ``time_tolerance`` for cells whose baseline
  median clears ``min_time_s`` (below it timer noise dominates);
* **family gates** -- the rows in :attr:`repro.bench.families.Family.gates`
  (:class:`Agrees`, :class:`Bound`, :class:`Flat`, :class:`Ratio`),
  judged on the *current* run alone: the cells they compare were timed
  in one process on one machine, so no calibration is involved.

Every evaluation of every gate ends one of three ways: it passes, it
yields a regression :class:`Finding`, or it yields a ``skipped``
finding that says why the gate could not be applied (reference below
its noise floor, a cell that did not finish, a key an
older report does not carry).  ``bench --check`` prints the
applied-vs-skipped tally and exits 1 on any regression -- including a
family none of whose time cells could be gated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "Finding",
    "Agrees",
    "Bound",
    "Flat",
    "Ratio",
    "compare_reports",
    "DEFAULT_TIME_TOLERANCE",
    "DEFAULT_MIN_TIME_S",
]

DEFAULT_TIME_TOLERANCE = 1.6
DEFAULT_MIN_TIME_S = 1e-3


@dataclass(frozen=True)
class Finding:
    """One regression detected between a baseline and a current run."""

    family: str
    strategy: str
    n: Optional[int]
    # schema | missing | outcome | answers | size | counter | time |
    # ungated | plan | maintenance | backend | skipped
    kind: str
    message: str

    @property
    def regression(self) -> bool:
        """False for a ``skipped`` finding: a gate that could not be
        applied (and says why) rather than one that failed."""
        return self.kind != "skipped"

    def __str__(self) -> str:
        where = (
            f"{self.family}/{self.strategy}"
            + (f" n={self.n}" if self.n is not None else "")
        )
        return f"[{self.kind}] {where}: {self.message}"


@dataclass(frozen=True)
class Agrees:
    """Every other cell (or just ``cells``, where a family has columns
    that answer a different question) counts the same ``answers`` as
    the same-size ``reference`` cell and, where both carry one, has its
    ``answers_sha`` -- byte-identical answer sets, not just
    equinumerous ones."""

    reference: str
    cells: tuple[str, ...] = ()

    @property
    def claim(self) -> str:
        return f"same answers as {self.reference}"


@dataclass(frozen=True)
class Bound:
    """``counter`` (a tracer counter or a top-level cell key) of every
    ``cells`` cell is at most ``limit``."""

    counter: str
    limit: int
    cells: tuple[str, ...]
    kind: str
    claim: str


@dataclass(frozen=True)
class Flat:
    """``counter`` has one value across the sizes of each cell label:
    it counts per-program work (join plans are compiled per rule body,
    binding signature and size rank, never per tuple), so a value that
    rises with ``n`` means some hot path does that work per datum."""

    counter: str

    @property
    def claim(self) -> str:
        return f"{self.counter} must be size-independent"


@dataclass(frozen=True)
class Ratio:
    """``metric`` of ``cell`` is strictly below ``limit`` times that of
    the same-size ``reference`` cell.

    The default metric is the calibrated time: the cells of one run are
    timed minutes apart on a machine whose speed drifts, and each is
    normalized by calibration runs interleaved with its own repeats.
    A size whose reference median is under ``floor_s`` seconds is
    skipped (timer noise).  ``sizes`` quantifies over the rest:
    ``"all"`` of them, the ``"largest"`` one, or ``"any"`` one.
    """

    cell: str
    reference: str
    limit: float
    kind: str
    claim: str
    metric: str = "normalized"
    floor_s: float = 0.0
    sizes: str = "all"


#: Evaluated for every family, before its own rows.
_EVERY_FAMILY = (Flat("plan_compiles"),)


def _cells_by_key(report: dict) -> dict[tuple[str, int], dict]:
    return {
        (c["strategy"], c["n"]): c for c in report.get("results", [])
    }


def _value(cell: dict, name: str):
    if name in cell:
        return cell[name]
    return (cell.get("counters") or {}).get(name)


def _shown(metric: str, value) -> str:
    return f"{value:.3f} units" if metric == "normalized" else str(value)


def _unusable(cells: dict, label: str, n: int) -> Optional[str]:
    cell = cells.get((label, n))
    if cell is None:
        return f"no {label} cell"
    if cell["outcome"] != "ok":
        return f"{label} outcome is {cell['outcome']}"
    return None


def _evaluate(gate, report: dict) -> list[Optional[Finding]]:
    """One entry per evaluation of ``gate`` on ``report``: ``None`` for
    a pass, else the regression or ``skipped`` finding."""
    family = report.get("family", "?")
    cells = _cells_by_key(report)
    labels = list(dict.fromkeys(label for label, _ in cells))
    sizes = sorted({n for _, n in cells})

    def skipped(label: str, n: Optional[int], why: str) -> Finding:
        return Finding(
            family, label, n, "skipped", f"{gate.claim} not checked: {why}"
        )

    out: list[Optional[Finding]] = []
    if isinstance(gate, Agrees):
        for label, n in cells:
            if label == gate.reference or (
                    gate.cells and label not in gate.cells):
                continue
            why = _unusable(cells, label, n) or _unusable(
                cells, gate.reference, n
            )
            if why:
                out.append(skipped(label, n, why))
                continue
            cell, ref = cells[label, n], cells[gate.reference, n]
            sha, ref_sha = cell.get("answers_sha"), ref.get("answers_sha")
            message = None
            if cell.get("answers") != ref.get("answers"):
                message = (
                    f"counted {cell.get('answers')} answers, "
                    f"{gate.reference} {ref.get('answers')} (correctness!)"
                )
            elif sha is not None and ref_sha is not None and sha != ref_sha:
                message = (
                    f"answer digest diverged from {gate.reference} "
                    f"({ref_sha[:12]} -> {sha[:12]}): same count, "
                    f"different tuples (correctness!)"
                )
            out.append(
                Finding(family, label, n, "answers", message)
                if message else None
            )
    elif isinstance(gate, Bound):
        for label, n in cells:
            if label not in gate.cells:
                continue
            value = _value(cells[label, n], gate.counter)
            why = _unusable(cells, label, n)
            if why is None and value is None:
                why = f"{gate.counter} not recorded"
            if why:
                out.append(skipped(label, n, why))
            elif value <= gate.limit:
                out.append(None)
            else:
                out.append(Finding(
                    family, label, n, gate.kind,
                    f"{gate.counter} is {value}; bound is {gate.limit} "
                    f"({gate.claim})",
                ))
    elif isinstance(gate, Flat):
        for label in labels:
            points = [
                (n, _value(cells[label, n], gate.counter))
                for n in sizes
                if (label, n) in cells
                and cells[label, n]["outcome"] == "ok"
            ]
            if any(value is None for _, value in points):
                out.append(
                    skipped(label, None, f"{gate.counter} not recorded")
                )
            elif len({value for _, value in points}) > 1:
                shown = " ".join(f"n={n}:{v}" for n, v in points)
                out.append(Finding(
                    family, label, None, "plan",
                    f"{gate.counter} grows with database size "
                    f"({shown}); {gate.claim}",
                ))
            else:
                out.append(None)
    else:
        out = _evaluate_ratio(gate, family, cells, sizes, skipped)
    return out


def _evaluate_ratio(gate: Ratio, family, cells, sizes, skipped):
    skips: list[Finding] = []
    eligible: list[tuple[int, float, float]] = []
    for n in sizes:
        why = _unusable(cells, gate.cell, n) or _unusable(
            cells, gate.reference, n
        )
        if why is None:
            value = _value(cells[gate.cell, n], gate.metric)
            ref = _value(cells[gate.reference, n], gate.metric)
            ref_s = cells[gate.reference, n].get("median_s") or 0.0
            if value is None or ref is None:
                why = f"{gate.metric} not recorded"
            elif ref_s < gate.floor_s:
                why = (
                    f"{gate.reference} median {ref_s * 1e3:.2f}ms is "
                    f"below the {gate.floor_s * 1e3:g}ms noise floor"
                )
        if why:
            skips.append(skipped(gate.cell, n, why))
        else:
            eligible.append((n, value, ref))

    def verdict(n, value, ref) -> Optional[Finding]:
        if value < gate.limit * ref:
            return None
        return Finding(
            family, gate.cell, n, gate.kind,
            f"{gate.metric} {_shown(gate.metric, value)} is not below "
            f"{gate.limit:.3g}x {gate.reference} "
            f"{_shown(gate.metric, ref)} ({gate.claim})",
        )

    if gate.sizes == "all":
        return skips + [verdict(*point) for point in eligible]
    if not eligible:
        return skips[-1:]  # the largest size's reason speaks for all
    if gate.sizes == "largest":
        return [verdict(*max(eligible))]
    if any(verdict(*point) is None for point in eligible):
        return [None]
    return [Finding(
        family, gate.cell, None, gate.kind,
        f"{gate.metric} never below {gate.limit:.3g}x {gate.reference} "
        f"across {len(eligible)} comparable size(s) ({gate.claim})",
    )]


def _record(
    gate: str, outcome: Optional[Finding], findings: list, gated: list
) -> None:
    if outcome is None or outcome.regression:
        gated.append(gate)
    if outcome is not None:
        findings.append(outcome)


def evaluate_gates(
    report: dict,
    gates: Optional[Sequence] = None,
    gated: Optional[list] = None,
) -> list[Finding]:
    """The findings of the family gate rows on one report (default
    rows: ``plan_compiles`` flat, then those of ``FAMILIES[family]``)."""
    if gates is None:
        from .families import FAMILIES  # families imports the row types

        family = FAMILIES.get(report.get("family"))
        gates = _EVERY_FAMILY + (family.gates if family else ())
    findings: list[Finding] = []
    gated = [] if gated is None else gated
    for gate in gates:
        for outcome in _evaluate(gate, report):
            _record(type(gate).__name__.lower(), outcome, findings, gated)
    return findings


def compare_reports(
    baseline: dict,
    current: dict,
    time_tolerance: float = DEFAULT_TIME_TOLERANCE,
    counter_tolerance: float = 0.0,
    min_time_s: float = DEFAULT_MIN_TIME_S,
    gated: Optional[list] = None,
) -> list[Finding]:
    """All findings of ``current`` relative to ``baseline``.

    Only baseline (strategy, n) cells whose size the current run swept
    (``current["sizes"]``) are compared, so a reduced-n smoke check
    against a full baseline works; a cell the current run should have
    produced but did not is a finding.  Extra cells in the current run
    (a wider sweep) are ignored.  The family's gate rows are then
    judged on the current run alone (:func:`evaluate_gates`).

    The check passes when no finding is a :attr:`~Finding.regression`.
    A gate that could not be applied is returned as a ``skipped``
    finding; for every evaluation that was, the gate's name
    (``"time"`` for a baseline time cell, else ``"agrees"``,
    ``"bound"``, ``"flat"`` or ``"ratio"``) is appended to ``gated``
    when the caller passes a list.  A comparison that gated no time
    cell at all is itself a regression (``ungated``): it would pass
    any slowdown.
    """
    family = baseline.get("family", "?")
    findings: list[Finding] = []
    if gated is None:
        gated = []

    if baseline.get("schema") != current.get("schema"):
        findings.append(
            Finding(
                family, "-", None, "schema",
                f"baseline schema {baseline.get('schema')!r} != current "
                f"{current.get('schema')!r}; regenerate the baseline",
            )
        )
        return findings

    time_cells = 0
    current_cells = _cells_by_key(current)
    swept = set(current.get("sizes", []))
    for key, base in _cells_by_key(baseline).items():
        strategy, n = key
        if n not in swept:
            continue
        cur = current_cells.get(key)
        if cur is None:
            findings.append(
                Finding(
                    family, strategy, n, "missing",
                    "cell present in baseline but not in current run "
                    "(sweep too narrow?)",
                )
            )
            continue
        if base["outcome"] != cur["outcome"]:
            findings.append(
                Finding(
                    family, strategy, n, "outcome",
                    f"outcome changed: {base['outcome']} -> "
                    f"{cur['outcome']}",
                )
            )
            continue  # downstream measures are incomparable
        if base.get("answers") != cur.get("answers"):
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"answer count changed: {base.get('answers')} -> "
                    f"{cur.get('answers')} (correctness!)",
                )
            )
        elif (base.get("answers_sha") and cur.get("answers_sha")
                and base["answers_sha"] != cur["answers_sha"]):
            findings.append(
                Finding(
                    family, strategy, n, "answers",
                    f"answer digest changed: {base['answers_sha'][:12]} "
                    f"-> {cur['answers_sha'][:12]} (correctness!)",
                )
            )
        if base.get("max_relation_size") != cur.get("max_relation_size"):
            findings.append(
                Finding(
                    family, strategy, n, "size",
                    f"max_relation_size changed: "
                    f"{base.get('max_relation_size')} -> "
                    f"{cur.get('max_relation_size')}",
                )
            )
        findings.extend(
            _counter_findings(
                family, strategy, n, base, cur, counter_tolerance
            )
        )
        if base["outcome"] == "ok":
            time_cells += 1
            _record("time", _time_finding(
                family, strategy, n, base, cur, time_tolerance, min_time_s
            ), findings, gated)
    if "time" not in gated:
        findings.append(
            Finding(
                family, "-", None, "ungated",
                f"none of the {time_cells} compared time cell(s) clears "
                f"the {min_time_s * 1e3:g}ms noise floor, so this check "
                f"would pass any slowdown; sweep sizes whose baseline "
                f"medians clear it",
            )
        )
    findings.extend(evaluate_gates(current, gated=gated))
    return findings


def _counter_findings(
    family: str,
    strategy: str,
    n: int,
    base: dict,
    cur: dict,
    tolerance: float,
) -> list[Finding]:
    findings: list[Finding] = []
    base_counters = base.get("counters") or {}
    cur_counters = cur.get("counters") or {}
    for name, base_value in sorted(base_counters.items()):
        cur_value = cur_counters.get(name, 0)
        allowed = tolerance * max(abs(base_value), 1)
        if abs(cur_value - base_value) > allowed:
            findings.append(
                Finding(
                    family, strategy, n, "counter",
                    f"counter {name} changed: {base_value} -> "
                    f"{cur_value} (tolerance {tolerance:g})",
                )
            )
    return findings


def _time_finding(
    family: str,
    strategy: str,
    n: int,
    base: dict,
    cur: dict,
    tolerance: float,
    min_time_s: float,
) -> Optional[Finding]:
    """``None`` when the cell's time was held to ``tolerance`` and
    passed, else the ``time`` or ``skipped`` finding."""
    base_norm = base.get("normalized")
    cur_norm = cur.get("normalized")
    base_median = base.get("median_s")
    if base_norm is None or cur_norm is None or base_median is None:
        return Finding(
            family, strategy, n, "skipped",
            "time not gated: no normalized time recorded",
        )
    if base_median < min_time_s or base_norm <= 0:
        return Finding(
            family, strategy, n, "skipped",
            f"time not gated: baseline median {base_median * 1e3:.3f}ms "
            f"is below the {min_time_s * 1e3:g}ms noise floor",
        )
    ratio = cur_norm / base_norm
    if ratio > tolerance:
        return Finding(
            family, strategy, n, "time",
            f"normalized time ratio {ratio:.2f} exceeds tolerance "
            f"{tolerance:g} (baseline {base_norm:.3f} units, current "
            f"{cur_norm:.3f})",
        )
    return None
