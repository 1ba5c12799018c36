"""Nested wall-clock spans with counters and per-iteration series.

A :class:`Tracer` records a forest of :class:`Span` objects.  Spans
nest through an explicit stack (``with tracer.span("seminaive.scc")``),
close with a wall-clock duration even when the body raises (the span's
``status`` then records the exception type -- ``BudgetExceeded`` mid
fixpoint must not leak open spans), and carry three kinds of payload:

``attrs``
    Static facts known at open (or close) time: the SCC members, the
    seed size, the relation a carry loop fills.
``counters``
    Monotone tallies bumped while the span is open: ``tuples_examined``
    (mirrors the :class:`~repro.stats.EvaluationStats` counter of the
    same name), ``index_builds``, ``bindings_out``, ``iterations``.
``series``
    Ordered per-iteration observations -- the per-round delta sizes of
    a semi-naive stratum, the per-iteration carry sizes of a Separable
    loop -- that no scalar counter can represent.

Counters bump on the *innermost open* span so nested strategy phases
attribute work to themselves; aggregation over the whole run is
:meth:`Tracer.totals`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional

__all__ = ["Span", "Tracer", "span_of"]


class Span:
    """One timed region of an evaluation, possibly with children."""

    __slots__ = (
        "name",
        "attrs",
        "start_s",
        "end_s",
        "status",
        "counters",
        "series",
        "children",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.status = "open"
        self.counters: dict[str, int] = {}
        self.series: dict[str, list] = {}
        self.children: list[Span] = []

    @property
    def duration_s(self) -> Optional[float]:
        """Wall-clock seconds, or ``None`` while the span is open."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready representation: what a profile's JSON report and
        a ``repro-events/2`` trace record hold of the span."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "counters": dict(self.counters),
            "series": {k: list(v) for k, v in self.series.items()},
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """The span :meth:`to_dict` was taken of, children included."""
        span = cls(data["name"], dict(data["attrs"]))
        span.start_s = data["start_s"]
        span.end_s = data["end_s"]
        span.status = data["status"]
        span.counters = dict(data["counters"])
        span.series = {k: list(v) for k, v in data["series"].items()}
        span.children = [cls.from_dict(c) for c in data["children"]]
        return span

    def __repr__(self) -> str:
        timing = (
            f"{self.duration_s * 1e3:.3f}ms" if self.closed else "open"
        )
        return f"Span({self.name}, {timing}, {self.status})"


_NO_SPAN = nullcontext()


def span_of(tracer: Optional["Tracer"], name: str, **attrs):
    """``tracer.span(name, **attrs)``, or -- ``tracer=None`` being the
    one way to say "off" -- a shared context manager that yields
    ``None``: how every evaluator opens its spans."""
    return _NO_SPAN if tracer is None else tracer.span(name, **attrs)


class Tracer:
    """A recording tracer.  Not thread-safe; use one per evaluation.

    ``context`` is an arbitrary dict (query, strategy, trace id, ...)
    the trace carries with it: into :meth:`to_dict`, and so into a
    written trace file (see :mod:`repro.observability.events`) and the
    Chrome export's ``otherData``.
    """

    def __init__(self, context: Optional[dict] = None) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.context: dict = dict(context or {})

    # -- span lifecycle ----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span; always closes it, recording exceptions."""
        s = Span(name, attrs)
        if self._stack:
            self._stack[-1].children.append(s)
        else:
            self.roots.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException as exc:
            s.status = type(exc).__name__
            raise
        else:
            s.status = "ok"
        finally:
            s.end_s = time.perf_counter()
            self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    # -- payload -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter on the innermost open span.

        Counts emitted outside any span are collected on an implicit
        root span named ``(toplevel)`` so they are never lost.
        """
        target = self._stack[-1] if self._stack else self._toplevel()
        target.counters[name] = target.counters.get(name, 0) + n

    def record(self, name: str, value) -> None:
        """Append one observation to a series on the innermost span."""
        target = self._stack[-1] if self._stack else self._toplevel()
        target.series.setdefault(name, []).append(value)

    def _toplevel(self) -> Span:
        if self.roots and self.roots[0].name == "(toplevel)":
            return self.roots[0]
        s = Span("(toplevel)", {})
        s.end_s = s.start_s
        s.status = "ok"
        self.roots.insert(0, s)
        return s

    # -- inspection --------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> Iterator[Span]:
        """Every recorded span (depth first), optionally filtered by name."""
        for root in self.roots:
            for s in root.walk():
                if name is None or s.name == name:
                    yield s

    def totals(self) -> dict[str, int]:
        """Every counter summed over every span of the trace, names in
        first-seen (depth first) order.  The one fold over
        ``span.counters``: metrics text, slowlog records, profiles and
        the service's aggregates are all read off this dict."""
        totals: dict[str, int] = {}
        for s in self.spans():
            for name, value in s.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def counter_total(self, name: str) -> int:
        """One entry of :meth:`totals` (0 for a counter never bumped)."""
        return self.totals().get(name, 0)

    def all_closed(self) -> bool:
        """True when no span is left open (exception safety check)."""
        return not self._stack and all(
            s.closed for s in self.spans()
        )

    def to_dict(self) -> dict:
        """The whole trace, JSON-ready: its context and span forest."""
        return {"context": dict(self.context),
                "spans": [s.to_dict() for s in self.roots]}

    @classmethod
    def from_dict(cls, data: dict) -> "Tracer":
        """The tracer :meth:`to_dict` was taken of (also after a JSON
        round trip): the same forest, timestamps, statuses, attrs,
        counters, series and context, so the exporters in
        :mod:`repro.observability.export` produce byte-identical output
        from either."""
        tracer = cls(data.get("context"))
        tracer.roots = [Span.from_dict(d) for d in data["spans"]]
        return tracer
