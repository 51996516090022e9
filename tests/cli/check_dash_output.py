#!/usr/bin/env python
"""Schema sanity checks for the streaming-telemetry CLI artefacts.

The CI ``obs-dash-smoke`` job runs ``alidrone chaos --rollup-jsonl``
(honest traffic only), captures ``alidrone dash --plain`` frames, and
renders the stream's last rollup line — the same document the dashboard
drew — as a Prometheus exposition with ``alidrone metrics --prometheus
--from-json``; this script then validates the *formats* with nothing
but the stdlib —
its grammar rules are written independently of the library so a
regression in ``repro.obs`` cannot silently validate itself:

* rollup JSONL: every line is one JSON rollup document (``t``,
  ``window_s``, ``counters``/``quantiles``/``gauges`` sections, alert
  state fields), time is non-decreasing, at least one monitor rule was
  evaluated on every tick — and, for honest traffic, **zero alerts
  fired across the whole stream**;
* Prometheus text: every line is a valid comment or sample under the
  classic ``text/plain; version=0.0.4`` grammar, every sample family
  has a TYPE declaration, and no family is declared twice;
* dash frames: the plain-frame stream contains the rates/alerts
  sections and a final telemetry summary line.

Exit 0 when every provided file passes, 1 otherwise (problems are
listed on stderr).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

ROLLUP_FIELDS = {"t", "window_s", "counters", "quantiles", "gauges",
                 "alerts_fired", "alerts_firing", "rules_evaluated"}
COUNTER_FIELDS = {"total", "rate", "cumulative"}
ALERT_FIELDS = {"rule", "severity", "kind", "fired_at", "value",
                "threshold", "message"}

# Independent re-statement of the Prometheus text-format grammar (do not
# import repro.obs.prom here; the checker must not validate itself).
_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_SAMPLE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})"
    r"(?:\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\")*\})?"
    r" (?P<value>\S+)$")
_PROM_COMMENT = re.compile(
    rf"^# (?P<what>HELP|TYPE) (?P<name>{_METRIC_NAME}) (?P<rest>.+)$")
_PROM_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


def check_rollups(path: str, expect_no_alerts: bool = False) -> list[str]:
    """Problems with a rollup JSONL stream (empty list = clean)."""
    problems: list[str] = []
    rollups = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                problems.append(f"{path}:{number}: blank line")
                continue
            try:
                rollups.append((number, json.loads(line)))
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{number}: not JSON ({exc})")
    if not rollups:
        problems.append(f"{path}: no rollups")
        return problems

    last_t = None
    alerts_fired = 0
    for number, rollup in rollups:
        missing = ROLLUP_FIELDS - set(rollup)
        if missing:
            problems.append(f"{path}:{number}: missing fields "
                            f"{sorted(missing)}")
            continue
        t = rollup["t"]
        if last_t is not None and t < last_t:
            problems.append(f"{path}:{number}: time went backwards "
                            f"({t} after {last_t})")
        last_t = t
        if rollup["window_s"] <= 0:
            problems.append(f"{path}:{number}: non-positive window_s")
        if rollup["rules_evaluated"] < 1:
            problems.append(f"{path}:{number}: no monitor rules evaluated")
        for name, entry in rollup["counters"].items():
            missing = COUNTER_FIELDS - set(entry)
            if missing:
                problems.append(f"{path}:{number}: counter {name!r} "
                                f"missing {sorted(missing)}")
            elif entry["total"] > entry["cumulative"] + 1e-9:
                problems.append(f"{path}:{number}: counter {name!r} window "
                                "total exceeds lifetime cumulative")
        for name, entry in rollup["quantiles"].items():
            if "count" not in entry:
                problems.append(f"{path}:{number}: quantile {name!r} "
                                "missing count")
            elif entry["count"] and "p99" not in entry:
                problems.append(f"{path}:{number}: non-empty quantile "
                                f"{name!r} missing p99")
        for alert in rollup["alerts_fired"]:
            missing = ALERT_FIELDS - set(alert)
            if missing:
                problems.append(f"{path}:{number}: alert missing fields "
                                f"{sorted(missing)}")
        alerts_fired += len(rollup["alerts_fired"])
        if set(rollup["alerts_firing"]) and rollup["rules_evaluated"] == 0:
            problems.append(f"{path}:{number}: alerts firing with no rules")
    if expect_no_alerts and alerts_fired:
        problems.append(f"{path}: {alerts_fired} alert(s) fired on traffic "
                        "expected to be honest")
    return problems


def check_prometheus(path: str) -> list[str]:
    """Problems with a Prometheus text exposition file."""
    problems: list[str] = []
    declared: set[str] = set()
    samples = 0
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        return [f"{path}: empty exposition"]
    for number, line in enumerate(lines, start=1):
        if not line:
            problems.append(f"{path}:{number}: blank line")
            continue
        if line.startswith("#"):
            match = _PROM_COMMENT.match(line)
            if match is None:
                problems.append(f"{path}:{number}: malformed comment")
            elif (match.group("what") == "TYPE"):
                if match.group("rest") not in _PROM_TYPES:
                    problems.append(f"{path}:{number}: unknown type "
                                    f"{match.group('rest')!r}")
                if match.group("name") in declared:
                    problems.append(f"{path}:{number}: family "
                                    f"{match.group('name')!r} declared "
                                    "twice")
                declared.add(match.group("name"))
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            problems.append(f"{path}:{number}: malformed sample {line!r}")
            continue
        samples += 1
        value = match.group("value")
        if value not in ("NaN", "+Inf", "-Inf"):
            try:
                float(value)
            except ValueError:
                problems.append(f"{path}:{number}: unparseable value "
                                f"{value!r}")
        family = match.group("name")
        for suffix in ("_sum", "_count", "_bucket"):
            if family.endswith(suffix) and family[:-len(suffix)] in declared:
                family = family[:-len(suffix)]
                break
        if family not in declared:
            problems.append(f"{path}:{number}: sample {family!r} has no "
                            "TYPE declaration")
    if not samples:
        problems.append(f"{path}: no samples")
    return problems


def check_dash_log(path: str) -> list[str]:
    """Problems with a captured ``alidrone dash --plain`` log."""
    with open(path) as fh:
        text = fh.read()
    problems = []
    for needle, what in (("rates", "a rates section"),
                         ("alerts (", "an alerts section"),
                         ("telemetry:", "the closing telemetry summary")):
        if needle not in text:
            problems.append(f"{path}: no {what} in the frame stream")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rollups", action="append", default=[],
                        help="rollup JSONL stream to check (repeatable)")
    parser.add_argument("--honest-rollups", action="append", default=[],
                        help="rollup stream from honest traffic: schema "
                             "checks plus zero-alerts-fired")
    parser.add_argument("--prometheus", action="append", default=[],
                        help="Prometheus exposition file to check")
    parser.add_argument("--dash-log", action="append", default=[],
                        help="captured dash --plain output to check")
    args = parser.parse_args(argv)
    checked = (len(args.rollups) + len(args.honest_rollups)
               + len(args.prometheus) + len(args.dash_log))
    if not checked:
        parser.error("nothing to check")

    problems: list[str] = []
    for path in args.rollups:
        problems.extend(check_rollups(path))
    for path in args.honest_rollups:
        problems.extend(check_rollups(path, expect_no_alerts=True))
    for path in args.prometheus:
        problems.extend(check_prometheus(path))
    for path in args.dash_log:
        problems.extend(check_dash_log(path))

    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"dash check: {checked} file(s) ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
