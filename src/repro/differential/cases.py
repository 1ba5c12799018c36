"""Differential test cases and their on-disk repro format.

A :class:`Case` is one ``(program, database, query)`` triple plus the
generator's ground truth about it (is the program separable by
construction, or a near-miss mutant known not to be?).  Cases
round-trip through ordinary ``.dl`` files so any failing case the
fuzzer shrinks can be committed to a corpus directory, replayed by the
test suite, and inspected (or bisected) by hand with the normal
``repro-datalog run``/``detect`` tooling.

Repro file format: a standard Datalog file (rules + facts + one query)
preceded by structured ``%`` comments::

    % differential-repro v1
    % expect-separable: true        (or false / unknown)
    % note: seed=7 case=12 kind=answers strategy=counting

The parser ignores comments, so the body parses as a normal program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.errors import ReproError
from ..datalog.parser import parse_program
from ..datalog.pretty import database_to_text, program_to_text
from ..datalog.programs import Program

__all__ = ["Case", "load_case", "save_case", "load_corpus"]

_HEADER = "% differential-repro v1"


@dataclass(frozen=True)
class Case:
    """One differential test case with generator ground truth.

    ``expect_separable`` is ``True`` for programs separable by
    construction, ``False`` for near-miss mutants built to violate one
    condition of Definition 2.4, and ``None`` when no ground truth is
    claimed (hand-written corpus entries may leave it open).
    """

    program: Program
    database: Database
    query: Atom
    expect_separable: bool | None = None
    note: str = ""

    def annotated(self, note: str) -> "Case":
        return replace(self, note=note)

    def size(self) -> tuple[int, int]:
        """(rule count, fact count) -- the shrinker's progress measure."""
        return (len(self.program), self.database.total_tuples())

    def to_text(self) -> str:
        """The replayable repro-file text for this case."""
        expect = (
            "unknown"
            if self.expect_separable is None
            else str(self.expect_separable).lower()
        )
        lines = [_HEADER, f"% expect-separable: {expect}"]
        if self.note:
            lines.append(f"% note: {self.note}")
        body = program_to_text(self.program)
        facts = database_to_text(self.database)
        if body:
            lines.append(body)
        if facts:
            lines.append(facts)
        lines.append(f"{self.query}?")
        return "\n".join(lines) + "\n"


def _parse_expect(text: str) -> bool | None:
    value = text.strip().lower()
    if value == "true":
        return True
    if value == "false":
        return False
    return None


def case_from_text(text: str) -> Case:
    """Parse repro-file text back into a :class:`Case`."""
    expect: bool | None = None
    note = ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("% expect-separable:"):
            expect = _parse_expect(stripped.split(":", 1)[1])
        elif stripped.startswith("% note:"):
            note = stripped.split(":", 1)[1].strip()
    parsed = parse_program(text)
    if not parsed.queries:
        raise ValueError("repro file contains no query statement")
    return Case(
        program=parsed.program,
        database=parsed.database,
        query=parsed.queries[0],
        expect_separable=expect,
        note=note,
    )


def load_case(path: Union[str, Path]) -> Case:
    """Load one repro file; errors name the offending file."""
    source = Path(path)
    try:
        return case_from_text(source.read_text())
    except (ReproError, ValueError) as exc:
        raise ReproError(f"{source}: {exc}") from exc


def save_case(case: Case, path: Union[str, Path]) -> Path:
    """Write one repro file (creating parent directories)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(case.to_text())
    return target


def load_corpus(directory: Union[str, Path]) -> list[tuple[Path, Case]]:
    """All ``*.dl`` repro files in a corpus directory, sorted by name."""
    corpus_dir = Path(directory)
    if not corpus_dir.is_dir():
        return []
    return [
        (path, load_case(path))
        for path in sorted(corpus_dir.glob("*.dl"))
    ]
