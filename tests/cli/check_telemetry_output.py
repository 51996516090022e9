#!/usr/bin/env python
"""Schema sanity checks for the CLI telemetry artefacts.

The CI smoke job runs ``alidrone simulate --trace`` and
``alidrone audit-batch --json --metrics-json --trace`` on a tiny
scenario, then points this script at the files they wrote.  Only the
stdlib is needed — the checks are about the *formats* (the contract
downstream tooling parses), not the library internals:

* span JSONL: every line is one JSON object with the span fields,
  span ids are unique, parent links resolve, durations are coherent;
* audit-batch ``--json``: outcome rows and status counts reconcile
  with the batch size, per-stage timing is complete;
* metrics JSON: one telemetry rollup — ``t``/``window_s``, counters
  with window and lifetime totals, quantile sketches with a count,
  numeric gauges — and, once its engine audited anything (an
  ``audit.submissions`` counter), a complete ``stages`` section in the
  same per-stage shape as ``stage_timing``.

Exit 0 when every provided file passes, 1 otherwise (problems are
listed on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

SPAN_FIELDS = {"name", "span_id", "trace_id", "parent_id",
               "start_s", "end_s", "duration_s", "status", "attributes"}
SPAN_STATUSES = {"ok", "error"}
AUDIT_FIELDS = {"batch_size", "samples_per_submission", "drones",
                "wall_time_s", "submissions_per_second",
                "status_counts", "outcomes", "stage_timing"}
OUTCOME_FIELDS = {"flight_id", "drone_id", "status", "sample_count",
                  "message"}
STAGE_FIELDS = {"runs", "samples", "total_seconds", "mean_seconds",
                "std_seconds"}
ROLLUP_FIELDS = {"t", "window_s", "counters", "quantiles", "gauges"}
COUNTER_FIELDS = {"total", "rate", "cumulative"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_stage_timing(path: str, section: str, stages) -> list[str]:
    """Problems with a per-stage timing object (``stage_timing``/``stages``)."""
    if not isinstance(stages, dict) or not stages:
        return [f"{path}: {section} is empty"]
    problems = []
    for stage, entry in stages.items():
        missing = STAGE_FIELDS - set(entry)
        if missing:
            problems.append(f"{path}: stage {stage!r} missing "
                            f"fields {sorted(missing)}")
        elif not all(_is_number(entry[key]) and entry[key] >= 0
                     for key in STAGE_FIELDS):
            problems.append(f"{path}: stage {stage!r} has a negative or "
                            "non-numeric field")
    return problems


def check_trace(path: str) -> list[str]:
    """Problems with a span JSONL export (empty list = clean)."""
    problems: list[str] = []
    spans = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                problems.append(f"{path}:{number}: blank line")
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{number}: not JSON ({exc})")
    if not spans:
        problems.append(f"{path}: no spans")
        return problems

    ids = [span.get("span_id") for span in spans]
    if len(set(ids)) != len(ids):
        problems.append(f"{path}: duplicate span ids")
    known = set(ids)
    for span in spans:
        missing = SPAN_FIELDS - set(span)
        if missing:
            problems.append(f"{path}: span {span.get('span_id')} missing "
                            f"fields {sorted(missing)}")
            continue
        if span["status"] not in SPAN_STATUSES:
            problems.append(f"{path}: span {span['span_id']} has status "
                            f"{span['status']!r}")
        if span["parent_id"] is not None and span["parent_id"] not in known:
            problems.append(f"{path}: span {span['span_id']} parent "
                            f"{span['parent_id']!r} not in file")
        if span["end_s"] is not None:
            duration = span["end_s"] - span["start_s"]
            if duration < 0:
                problems.append(f"{path}: span {span['span_id']} ends "
                                "before it starts")
            elif abs(duration - (span["duration_s"] or 0.0)) > 1e-9:
                problems.append(f"{path}: span {span['span_id']} "
                                "duration_s does not match end_s - start_s")
    if not any(span.get("parent_id", "?") is None for span in spans):
        problems.append(f"{path}: no root span")
    return problems


def check_audit_json(path: str) -> list[str]:
    """Problems with an ``audit-batch --json`` document."""
    problems: list[str] = []
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"{path}: not JSON ({exc})"]
    missing = AUDIT_FIELDS - set(document)
    if missing:
        return [f"{path}: missing fields {sorted(missing)}"]

    batch_size = document["batch_size"]
    outcomes = document["outcomes"]
    if len(outcomes) != batch_size:
        problems.append(f"{path}: {len(outcomes)} outcomes for batch_size "
                        f"{batch_size}")
    if sum(document["status_counts"].values()) != batch_size:
        problems.append(f"{path}: status_counts do not sum to batch_size")
    for index, outcome in enumerate(outcomes):
        missing = OUTCOME_FIELDS - set(outcome)
        if missing:
            problems.append(f"{path}: outcome {index} missing "
                            f"fields {sorted(missing)}")
    problems.extend(check_stage_timing(path, "stage_timing",
                                       document["stage_timing"]))
    return problems


def check_metrics_json(path: str) -> list[str]:
    """Problems with a metrics-JSON telemetry rollup."""
    problems: list[str] = []
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            return [f"{path}: not JSON ({exc})"]
    if not isinstance(document, dict):
        return [f"{path}: expected a rollup object"]
    missing = ROLLUP_FIELDS - set(document)
    if missing:
        return [f"{path}: missing fields {sorted(missing)}"]
    if not (_is_number(document["window_s"]) and document["window_s"] > 0):
        problems.append(f"{path}: window_s must be a positive number")
    for name, entry in document["counters"].items():
        if not (isinstance(entry, dict) and COUNTER_FIELDS <= set(entry)
                and all(_is_number(entry[key]) for key in COUNTER_FIELDS)):
            problems.append(f"{path}: counter {name!r} needs numeric "
                            f"{sorted(COUNTER_FIELDS)}")
        elif entry["total"] > entry["cumulative"] + 1e-9:
            problems.append(f"{path}: counter {name!r} window total "
                            "exceeds its lifetime cumulative")
    for name, entry in document["quantiles"].items():
        if not (isinstance(entry, dict) and _is_number(entry.get("count"))):
            problems.append(f"{path}: quantile {name!r} missing count")
        elif entry["count"] and "sum" not in entry:
            problems.append(f"{path}: quantile {name!r} missing sum")
    for name, value in document["gauges"].items():
        if not _is_number(value):
            problems.append(f"{path}: gauge {name!r} is not numeric")
    if "audit.submissions" in document["counters"] or "stages" in document:
        problems.extend(check_stage_timing(path, "stages",
                                           document.get("stages")))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", action="append", default=[],
                        help="span JSONL export to check (repeatable)")
    parser.add_argument("--audit-json", action="append", default=[],
                        help="audit-batch --json document to check")
    parser.add_argument("--metrics-json", action="append", default=[],
                        help="metrics-JSON rollup to check")
    args = parser.parse_args(argv)
    if not (args.trace or args.audit_json or args.metrics_json):
        parser.error("nothing to check")

    problems: list[str] = []
    for path in args.trace:
        problems.extend(check_trace(path))
    for path in args.audit_json:
        problems.extend(check_audit_json(path))
    for path in args.metrics_json:
        problems.extend(check_metrics_json(path))

    for problem in problems:
        print(problem, file=sys.stderr)
    checked = len(args.trace) + len(args.audit_json) + len(args.metrics_json)
    if not problems:
        print(f"telemetry check: {checked} file(s) ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
