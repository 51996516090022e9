"""Prometheus text exposition for metrics snapshots and hub rollups.

Renders the classic ``text/plain; version=0.0.4`` exposition format so a
``{name: {"type": ...}}`` metrics snapshot (:mod:`repro.obs.adapters`,
or a metrics-JSON file written by the CLI) can be scraped or diffed
with standard tooling:

* counters and gauges become one sample each;
* histogram snapshots become summaries (``{quantile="0.5"}`` samples
  plus ``_sum`` / ``_count``).

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``) — the repo's dotted names map dots to
underscores under an ``alidrone_`` namespace prefix.
:func:`validate_exposition` is the grammar checker the tests and the CI
smoke script run over the output.
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\")*)\})?"
    r" (?P<value>[^ ]+)$")
_COMMENT_LINE = re.compile(
    r"^# (?P<what>HELP|TYPE) (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<rest>.+)$")
_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}

#: Map from the repo's histogram-snapshot quantile keys to the
#: ``quantile`` label values Prometheus summaries use.
_QUANTILE_KEYS = (("p50", "0.5"), ("p90", "0.9"), ("p95", "0.95"),
                  ("p99", "0.99"))

DEFAULT_PREFIX = "alidrone_"


def prometheus_name(name: str, prefix: str = DEFAULT_PREFIX) -> str:
    """Sanitize a dotted metric name into the Prometheus grammar."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    full = f"{prefix}{sanitized}"
    if not _NAME_OK.match(full):
        full = f"_{full}"
    return full


def _format_value(value: Any) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def to_prometheus(snapshot: Mapping[str, Mapping[str, Any]], *,
                  prefix: str = DEFAULT_PREFIX) -> str:
    """Render a ``{name: {"type": ...}}`` metrics snapshot as exposition text.

    Entries with unknown ``type`` are rendered as untyped gauges of
    their ``value`` when they carry one, and skipped otherwise — an
    exporter must never crash a scrape over one odd entry.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type")
        full = prometheus_name(name, prefix)
        if kind == "counter":
            lines.append(f"# TYPE {full} counter")
            lines.append(f"{full} {_format_value(entry.get('value', 0))}")
        elif kind == "gauge":
            lines.append(f"# TYPE {full} gauge")
            lines.append(f"{full} {_format_value(entry.get('value', 0))}")
        elif kind == "histogram":
            lines.append(f"# TYPE {full} summary")
            for key, label in _QUANTILE_KEYS:
                if key in entry:
                    lines.append(f"{full}{{quantile=\"{label}\"}} "
                                 f"{_format_value(entry[key])}")
            lines.append(f"{full}_sum {_format_value(entry.get('sum', 0))}")
            lines.append(f"{full}_count "
                         f"{_format_value(entry.get('count', 0))}")
        elif "value" in entry:
            lines.append(f"# TYPE {full} untyped")
            lines.append(f"{full} {_format_value(entry['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


def validate_exposition(text: str) -> list[str]:
    """Grammar problems with an exposition document (empty = clean).

    Checks every line against the classic text-format grammar: comment
    lines declare HELP/TYPE for a valid metric name with a known type;
    sample lines are ``name[{labels}] value`` with parseable float
    values; every sample's name family has a preceding TYPE
    declaration (``_sum``/``_count`` resolve to their summary family).
    """
    problems: list[str] = []
    declared: set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {number}: blank line")
            continue
        if line.startswith("#"):
            match = _COMMENT_LINE.match(line)
            if match is None:
                problems.append(f"line {number}: malformed comment")
                continue
            if match.group("what") == "TYPE":
                if match.group("rest") not in _TYPES:
                    problems.append(f"line {number}: unknown type "
                                    f"{match.group('rest')!r}")
                declared.add(match.group("name"))
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {number}: malformed sample {line!r}")
            continue
        value = match.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {number}: unparseable value "
                                f"{value!r}")
        family = match.group("name")
        for suffix in ("_sum", "_count", "_bucket"):
            if family.endswith(suffix) and family[:-len(suffix)] in declared:
                family = family[:-len(suffix)]
                break
        if family not in declared:
            problems.append(f"line {number}: sample {family!r} has no "
                            "TYPE declaration")
    return problems
