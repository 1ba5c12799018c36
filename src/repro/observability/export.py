"""Exporters: a completed trace rendered for external tooling.

Both exporters are pure functions over a :class:`Tracer` whose spans
are closed -- the tracer may be the live object an evaluation just
filled, or one rebuilt from a trace file with
:func:`repro.observability.events.replay_file`; the two produce
byte-identical output, which is what makes a shipped trace file a
faithful substitute for being there.

:func:`to_chrome_trace`
    Chrome trace-event JSON (the ``traceEvents`` array format), loadable
    in Perfetto or ``about:tracing``.  Every span becomes a balanced
    ``B``/``E`` duration pair on one track; counters become ``C``
    events carrying running totals (so the viewer draws a monotone
    work curve); per-iteration series become ``C`` events spaced evenly
    across their span (the per-round delta/carry cardinalities as a
    little histogram under the span that produced them).

:func:`to_metrics_text`
    Prometheus-style text exposition of the trace's final counter
    totals, for scrape-shaped pipelines and quick ``grep``-ing.
"""

from __future__ import annotations

from .tracer import Span, Tracer

__all__ = ["escape_label_value", "to_chrome_trace", "to_metrics_text"]

_PID = 1
_TID = 1


def _origin(tracer: Tracer) -> float:
    starts = [s.start_s for s in tracer.spans()]
    return min(starts) if starts else 0.0


def _us(t: float, origin: float) -> float:
    """Seconds -> microseconds relative to the trace origin."""
    return (t - origin) * 1e6


def _span_events(span: Span, origin: float, out: list[dict]) -> None:
    end_s = span.end_s if span.end_s is not None else span.start_s
    out.append(
        {
            "name": span.name,
            "ph": "B",
            "ts": _us(span.start_s, origin),
            "pid": _PID,
            "tid": _TID,
            "args": dict(span.attrs),
        }
    )
    for name, values in sorted(span.series.items()):
        # One C event per observation, evenly spaced over the span so
        # the viewer shows the per-iteration shape in place.
        step = (end_s - span.start_s) / (len(values) + 1)
        for i, value in enumerate(values):
            out.append(
                {
                    "name": f"{span.name}.{name}",
                    "ph": "C",
                    "ts": _us(span.start_s + (i + 1) * step, origin),
                    "pid": _PID,
                    "tid": _TID,
                    "args": {name: value},
                }
            )
    for child in span.children:
        _span_events(child, origin, out)
    out.append(
        {
            "name": span.name,
            "ph": "E",
            "ts": _us(end_s, origin),
            "pid": _PID,
            "tid": _TID,
            "args": {"status": span.status, "counters": dict(span.counters)},
        }
    )


def to_chrome_trace(tracer: Tracer) -> dict:
    """The trace as a Chrome trace-event JSON object.

    Returns ``{"traceEvents": [...], "otherData": {...}}`` -- dump it
    with ``json.dumps`` and load the file in Perfetto.  ``B``/``E``
    events are emitted in nesting order, so they are balanced by
    construction; running counter totals are attached as ``C`` events
    at each span's close timestamp.
    """
    origin = _origin(tracer)
    events: list[dict] = []
    for root in tracer.roots:
        _span_events(root, origin, events)

    # Running totals per counter name, in span-close order, so the
    # viewer's counter track rises monotonically as work happens.
    totals: dict[str, int] = {}
    counter_events: list[dict] = []
    for span in sorted(
        tracer.spans(), key=lambda s: s.end_s if s.end_s is not None else 0.0
    ):
        if not span.counters:
            continue
        for name, value in sorted(span.counters.items()):
            totals[name] = totals.get(name, 0) + value
            counter_events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": _us(
                        span.end_s if span.end_s is not None
                        else span.start_s,
                        origin,
                    ),
                    "pid": _PID,
                    "tid": _TID,
                    "args": {name: totals[name]},
                }
            )
    events.extend(counter_events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.observability.export",
            "context": dict(getattr(tracer, "context", {}) or {}),
        },
    }


def _metric_name(counter: str) -> str:
    """Counter name -> a legal Prometheus metric name."""
    safe = "".join(
        c if c.isalnum() or c == "_" else "_" for c in counter
    )
    return f"repro_{safe}_total"


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote, and newline are the three characters the
    format defines escapes for; everything else passes through.  Rule
    labels are the usual customers (``seen_1#0`` is fine as-is), but
    span-name and phase labels can carry arbitrary strings.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class MetricFamilies:
    """Emission bookkeeping: ``# HELP``/``# TYPE`` once per family.

    Distinct counter names can sanitize onto the same metric family
    (``rule_apps:x`` labelled and a hypothetical ``rule-apps`` plain
    both become ``repro_rule_apps_total``); Prometheus rejects a
    scrape that declares a family twice, so every exporter funnels its
    headers through one of these.
    """

    def __init__(self, lines: list[str]) -> None:
        self.lines = lines
        self._seen: set[str] = set()

    def declare(self, metric: str, help_text: str,
                kind: str = "counter") -> None:
        if metric in self._seen:
            return
        self._seen.add(metric)
        self.lines.append(f"# HELP {metric} {help_text}")
        self.lines.append(f"# TYPE {metric} {kind}")


def counter_lines(totals: dict[str, int], families: MetricFamilies,
                  plain_help: str, labelled_help: str) -> None:
    """Append counter totals to ``families.lines`` as Prometheus samples.

    A plain counter is one ``repro_<name>_total`` metric; the
    ``family:label`` counters (``rule_out:<label>``, ``span:<name>``)
    are labelled samples of one metric per family.  Both sorted by
    name; the help strings are formatted with the counter's name.  The
    one renderer behind :func:`to_metrics_text` and the service's
    ``/metrics``.
    """
    plain: dict[str, int] = {}
    labelled: dict[str, dict[str, int]] = {}
    for name, value in totals.items():
        if ":" in name:
            metric, _, label = name.partition(":")
            labelled.setdefault(metric, {})[label] = value
        else:
            plain[name] = value
    lines = families.lines
    for name in sorted(plain):
        metric = _metric_name(name)
        families.declare(metric, plain_help.format(name))
        lines.append(f"{metric} {plain[name]}")
    for name in sorted(labelled):
        metric = _metric_name(name)
        families.declare(metric, labelled_help.format(name))
        for label in sorted(labelled[name]):
            lines.append(
                f'{metric}{{rule="{escape_label_value(label)}"}} '
                f"{labelled[name][label]}"
            )


def to_metrics_text(tracer: Tracer) -> str:
    """Final counter totals in the Prometheus text exposition format.

    One ``counter`` metric per tracer counter name
    (:meth:`Tracer.totals`), plus ``repro_spans_total``.  Rule-indexed
    counters (``rule_out:<label>``) become labelled samples of one
    metric.  ``# HELP``/``# TYPE`` headers are emitted exactly once per
    metric family and label values are escaped per the format.
    """
    lines: list[str] = []
    families = MetricFamilies(lines)
    families.declare(
        "repro_spans_total", "Spans recorded in the trace."
    )
    lines.append(f"repro_spans_total {sum(1 for _ in tracer.spans())}")
    counter_lines(
        tracer.totals(), families,
        "Tracer counter {!r} summed over the trace.",
        "Tracer counter {!r} by rule label.",
    )
    return "\n".join(lines) + "\n"
