"""Prometheus text exposition for telemetry-hub rollups.

Renders one :meth:`repro.obs.hub.TelemetryHub.rollup` document (live,
or read back from a metrics-JSON file or a rollup JSONL line) in the
classic ``text/plain; version=0.0.4`` exposition format, so it can be
scraped or diffed with standard tooling:

* each counter becomes a counter ``<name>_total`` of its ``cumulative``;
* each quantile sketch becomes a summary (``{quantile="0.5"}`` samples
  for p50/p90/p95/p99 plus ``_sum`` / ``_count``);
* each gauge becomes a gauge;
* every numeric value under any other top-level key (a section such as
  ``stages``) becomes an ``untyped`` sample named by its dotted path.
  Strings, lists, booleans, ``t`` and ``window_s`` are skipped.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``) — the repo's dotted names map dots to
underscores under an ``alidrone_`` namespace prefix — and each name is
one family (the first instrument to claim it wins).
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

#: Map from rollup quantile keys to the ``quantile`` label values
#: Prometheus summaries use.
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


#: Rollup keys that describe the document rather than measure anything.
_ROLLUP_META = ("t", "window_s")


def _numeric_leaves(value: Any, path: str):
    """``(dotted path, number)`` for every numeric leaf under ``value``."""
    if isinstance(value, Mapping):
        for key in sorted(value):
            yield from _numeric_leaves(value[key], f"{path}.{key}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def to_prometheus(rollup: Mapping[str, Any], *,
                  prefix: str = DEFAULT_PREFIX) -> str:
    """Render a telemetry-hub rollup as exposition text, sorted by family."""
    families: dict[str, list[str]] = {}
    taken: set[str] = set()

    def family(name: str, kind: str, samples, children=()) -> None:
        full = prometheus_name(name, prefix)
        names = {full, *(full + suffix for suffix in children)}
        if names & taken:
            return
        taken.update(names)
        families[full] = [f"# TYPE {full} {kind}"] + [
            f"{full}{suffix} {_format_value(value)}"
            for suffix, value in samples]

    for name, entry in sorted(rollup.get("counters", {}).items()):
        family(f"{name}_total", "counter", [("", entry["cumulative"])])
    for name, entry in sorted(rollup.get("quantiles", {}).items()):
        samples = [(f'{{quantile="{label}"}}', entry[key])
                   for key, label in _QUANTILE_KEYS if key in entry]
        samples += [("_sum", entry.get("sum", 0.0)),
                    ("_count", entry.get("count", 0))]
        family(name, "summary", samples, children=("_sum", "_count"))
    for name, value in sorted(rollup.get("gauges", {}).items()):
        family(name, "gauge", [("", value)])
    for key in sorted(rollup):
        if key in ("counters", "quantiles", "gauges", *_ROLLUP_META):
            continue
        for path, value in _numeric_leaves(rollup[key], key):
            family(path, "untyped", [("", value)])
    lines = [line for name in sorted(families) for line in families[name]]
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
