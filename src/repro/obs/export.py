"""Exporters: JSONL span dumps, span-tree rendering, metrics JSON.

Metrics JSON is one :meth:`repro.obs.hub.TelemetryHub.rollup` document,
written with sorted keys; :func:`repro.obs.hub.read_rollup_json` reads
it back.

The JSONL format is one :meth:`repro.obs.trace.Span.to_dict` object per
line — trivially greppable, streamable, and parseable line-by-line (the
CI smoke job validates exactly this).  ``format_tree`` renders the same
spans as an indented per-trace tree for humans reading a single audited
sample's journey.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.trace import Span


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, in the given span order."""
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True)
                     for span in spans)


def write_spans_jsonl(path: str | pathlib.Path,
                      spans: Iterable[Span]) -> pathlib.Path:
    """Write a span JSONL export; returns the path written."""
    path = pathlib.Path(path)
    text = spans_to_jsonl(spans)
    path.write_text(text + "\n" if text else "")
    return path


def read_spans_jsonl(path: str | pathlib.Path) -> list[Span]:
    """Parse a JSONL export back into spans (round-trip of the writer)."""
    spans = []
    for line in pathlib.Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def _format_attributes(attributes: dict[str, Any]) -> str:
    if not attributes:
        return ""
    rendered = " ".join(f"{key}={value!r}" if isinstance(value, str)
                        else f"{key}={value}"
                        for key, value in sorted(attributes.items()))
    return f"  [{rendered}]"


def _format_duration(span: Span) -> str:
    duration = span.duration_s
    if duration is None:
        return "(open)"
    if duration >= 1.0:
        return f"{duration:.3f}s"
    return f"{duration * 1e3:.3f}ms"


def format_tree(spans: Sequence[Span]) -> str:
    """Render spans as one indented tree per trace, children by start time.

    Spans whose parent is missing from ``spans`` (e.g. a filtered export)
    are promoted to roots so nothing silently disappears.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start_s, s.span_id))

    lines: list[str] = []

    def render(span: Span, depth: int) -> None:
        marker = "" if span.status == "ok" else f" !{span.status}"
        lines.append(f"{'  ' * depth}- {span.name} {_format_duration(span)}"
                     f"{marker}{_format_attributes(span.attributes)}")
        for child in children.get(span.span_id, ()):
            render(child, depth + 1)

    roots = children.get(None, [])
    for trace_id in dict.fromkeys(span.trace_id for span in roots):
        lines.append(f"trace {trace_id}")
        for root in roots:
            if root.trace_id == trace_id:
                render(root, 1)
    return "\n".join(lines)


def write_metrics_json(path: str | pathlib.Path,
                       rollup: Mapping[str, Any]) -> pathlib.Path:
    """Write a telemetry-hub rollup as sorted JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(rollup, indent=2, sort_keys=True) + "\n")
    return path
