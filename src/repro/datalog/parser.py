"""Parser for the Prolog-flavoured Datalog syntax the paper uses.

Grammar (informal)::

    program   := (statement)*
    statement := rule | fact | query
    rule      := atom ':-' body '.'
    fact      := atom '.'
    query     := atom '?'  |  '?-' atom '.'
    body      := atom (('&' | ',') atom)*
    atom      := IDENT '(' term (',' term)* ')'
    term      := VARIABLE | IDENT | INTEGER | STRING

``%`` starts a comment running to end of line.  Identifiers beginning
with an uppercase letter or ``_`` are variables (Prolog convention);
other identifiers, integers, and single-quoted strings are constants.
Both ``&`` (the paper's conjunction) and ``,`` separate body atoms.

The entry points are :func:`parse_program` (rules + facts + queries),
:func:`parse_rule`, :func:`parse_atom`, and :func:`parse_query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .atoms import Atom
from .database import Database
from .errors import DatalogSyntaxError
from .programs import Program
from .rules import Rule
from .terms import Constant, Term, Variable, is_variable_name

__all__ = [
    "ParsedProgram",
    "parse_program",
    "parse_rule",
    "parse_atom",
    "parse_query",
    "parse_query_memo",
    "Token",
]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT_TWO = {":-", "?-"}
_PUNCT_ONE = set("().,&?")


@dataclass(frozen=True, slots=True)
class Token:
    """A lexical token with its 1-based source position."""

    kind: str  # 'ident' | 'var' | 'int' | 'string' | 'punct' | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[Token]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        two = text[i:i + 2]
        if two in _PUNCT_TWO:
            yield Token("punct", two, start_line, start_col)
            i += 2
            col += 2
            continue
        if ch in _PUNCT_ONE:
            yield Token("punct", ch, start_line, start_col)
            i += 1
            col += 1
            continue
        if ch == "'":
            j = i + 1
            chunks: list[str] = []
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    chunks.append(text[j + 1])
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    raise DatalogSyntaxError(
                        "unterminated string literal", start_line, start_col
                    )
                chunks.append(text[j])
                j += 1
            if j >= n:
                raise DatalogSyntaxError(
                    "unterminated string literal", start_line, start_col
                )
            yield Token("string", "".join(chunks), start_line, start_col)
            col += (j + 1) - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            yield Token("int", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if is_variable_name(word) else "ident"
            yield Token(kind, word, start_line, start_col)
            col += j - i
            i = j
            continue
        raise DatalogSyntaxError(f"unexpected character {ch!r}", line, col)
    yield Token("eof", "", line, col)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _error(self, message: str) -> DatalogSyntaxError:
        tok = self.current
        found = tok.text or "end of input"
        return DatalogSyntaxError(
            f"{message} (found {found!r})", tok.line, tok.column
        )

    def _expect_punct(self, text: str) -> Token:
        tok = self.current
        if tok.kind != "punct" or tok.text != text:
            raise self._error(f"expected {text!r}")
        return self._advance()

    def at_eof(self) -> bool:
        return self.current.kind == "eof"

    # -- grammar productions ----------------------------------------------

    def term(self) -> Term:
        tok = self.current
        if tok.kind == "var":
            self._advance()
            return Variable(tok.text)
        if tok.kind == "ident":
            self._advance()
            return Constant(tok.text)
        if tok.kind == "int":
            self._advance()
            return Constant(int(tok.text))
        if tok.kind == "string":
            self._advance()
            return Constant(tok.text)
        raise self._error("expected a term")

    def atom(self) -> Atom:
        tok = self.current
        if tok.kind not in ("ident", "var"):
            raise self._error("expected a predicate name")
        if tok.kind == "var":
            raise self._error(
                f"predicate names must start with a lowercase letter"
            )
        self._advance()
        self._expect_punct("(")
        args = [self.term()]
        while self.current.kind == "punct" and self.current.text == ",":
            self._advance()
            args.append(self.term())
        self._expect_punct(")")
        return Atom(tok.text, tuple(args))

    def body(self) -> tuple[Atom, ...]:
        atoms = [self.atom()]
        while self.current.kind == "punct" and self.current.text in (",", "&"):
            self._advance()
            atoms.append(self.atom())
        return tuple(atoms)

    def statement(self) -> tuple[str, object]:
        """Parse one statement: ('rule', Rule) | ('query', Atom)."""
        if self.current.kind == "punct" and self.current.text == "?-":
            self._advance()
            a = self.atom()
            self._expect_punct(".")
            return ("query", a)
        head = self.atom()
        tok = self.current
        if tok.kind == "punct" and tok.text == "?":
            self._advance()
            return ("query", head)
        if tok.kind == "punct" and tok.text == ".":
            self._advance()
            return ("rule", Rule(head, ()))
        if tok.kind == "punct" and tok.text == ":-":
            self._advance()
            body = self.body()
            self._expect_punct(".")
            return ("rule", Rule(head, body))
        raise self._error("expected '.', '?' or ':-' after atom")


@dataclass
class ParsedProgram:
    """The result of parsing a program text.

    Facts (bodiless ground rules) are split out of the rule list into a
    :class:`Database`; queries (``p(c, X)?`` statements) are collected in
    order of appearance.
    """

    program: Program
    database: Database
    queries: tuple[Atom, ...] = ()

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.program.rules


def parse_program(text: str) -> ParsedProgram:
    """Parse a full program text into rules, facts, and queries."""
    parser = _Parser(text)
    rules: list[Rule] = []
    db = Database()
    queries: list[Atom] = []
    while not parser.at_eof():
        kind, value = parser.statement()
        if kind == "query":
            queries.append(value)  # type: ignore[arg-type]
        else:
            r: Rule = value  # type: ignore[assignment]
            if r.is_fact:
                db.add_ground_atom(r.head)
            else:
                rules.append(r)
    return ParsedProgram(Program(rules), db, tuple(queries))


def parse_rule(text: str) -> Rule:
    """Parse a single rule or fact, e.g. ``"t(X,Y) :- a(X,W) & t(W,Y)."``."""
    parser = _Parser(text)
    kind, value = parser.statement()
    if kind != "rule":
        raise DatalogSyntaxError("expected a rule, got a query")
    if not parser.at_eof():
        raise parser._error("unexpected trailing input after rule")
    return value  # type: ignore[return-value]


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. ``"buys(tom, Y)"``."""
    parser = _Parser(text)
    a = parser.atom()
    if not parser.at_eof():
        raise parser._error("unexpected trailing input after atom")
    return a


def parse_query(text: str) -> Atom:
    """Parse a query, accepting ``p(c,X)?``, ``?- p(c,X).`` or a bare atom."""
    parser = _Parser(text)
    if parser.current.kind == "punct" and parser.current.text == "?-":
        parser._advance()
        a = parser.atom()
        parser._expect_punct(".")
    else:
        a = parser.atom()
        if parser.current.kind == "punct" and parser.current.text in ("?", "."):
            parser._advance()
    if not parser.at_eof():
        raise parser._error("unexpected trailing input after query")
    return a


#: Query texts :func:`parse_query_memo` keeps parsed.
PARSE_MEMO_SIZE = 1024

#: :func:`parse_query` through one process-wide LRU memo: every entry
#: point given query text (``Engine.query`` / ``plan_for`` / ``advise``
#: / ``profile``, the query service) shares its frozen ``Atom``.  A text
#: that does not parse raises every time and is not kept.
parse_query_memo = lru_cache(maxsize=PARSE_MEMO_SIZE)(parse_query)
