#!/usr/bin/env python3
"""Check benchmark output against ``BENCHMARK.json`` (stdlib only).

Usage::

    python3 benchmarks/e2e/check_result.py RESULT [--benchmark PATH]

``RESULT`` is a file (or ``-`` for stdin) holding either the result line
``run.py`` prints last for one workload, or the committed
``baseline.json``.  A result line must have exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and its metrics must be
exactly the ``end_to_end`` set (untraced) or the ``per_layer`` set
(traced), each with the unit ``BENCHMARK.json`` gives it.  A baseline
must hold a ``meta`` block and an untraced and a traced result for every
workload ``BENCHMARK.json`` lists.  Exits 1 and prints each problem when
anything is off.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
META_KEYS = {"git_sha", "python", "timestamp_utc"}


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_result(result, spec: dict, *, extra_keys=()) -> list[str]:
    """Problems with one result object (empty when it conforms)."""
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    errors = []
    keys = set(result) - set(extra_keys)
    if keys != RESULT_KEYS:
        errors.append(f"result keys {sorted(keys)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result.get("correct"), bool):
        errors.append("'correct' is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and not isinstance(attempted, bool)
            and attempted >= 1):
        errors.append("'attempted' is not a whole number >= 1")
    if not (isinstance(failed, int) and not isinstance(failed, bool)
            and failed >= 0):
        errors.append("'failed' is not a whole number >= 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return errors + ["'metrics' is not an object"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expected = per_layer if set(metrics) & set(per_layer) else end_to_end
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            errors.append(f"metric {name!r} is missing")
        elif not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            errors.append(f"metric {name!r} is not {{value, unit}}")
        elif entry["unit"] != unit:
            errors.append(f"metric {name!r} has unit {entry['unit']!r}, "
                          f"expected {unit!r}")
        elif not _is_number(entry["value"]):
            errors.append(f"metric {name!r} value is not a finite number")
    for name in sorted(set(metrics) - set(expected)):
        errors.append(f"metric {name!r} is not in BENCHMARK.json")
    return errors


def check_baseline(baseline: dict, spec: dict) -> list[str]:
    """Problems with a committed baseline (empty when it conforms)."""
    errors = []
    meta = baseline.get("meta")
    if not isinstance(meta, dict) or not META_KEYS <= set(meta):
        errors.append(f"baseline 'meta' lacks {sorted(META_KEYS)}")
    runs = baseline.get("workloads")
    if not isinstance(runs, dict):
        return errors + ["baseline 'workloads' is not an object"]
    names = [w["name"] for w in spec["workloads"]]
    if sorted(runs) != sorted(names):
        errors.append(f"baseline workloads {sorted(runs)} != {sorted(names)}")
    for name in names:
        for mode, metric_set in (("untraced", "end_to_end"),
                                 ("traced", "per_layer")):
            result = runs.get(name, {}).get(mode)
            if result is None:
                errors.append(f"{name}: no {mode} result")
                continue
            for problem in check_result(result, spec,
                                        extra_keys=("details",)):
                errors.append(f"{name} {mode}: {problem}")
            wanted = {m["name"] for m in spec[metric_set]}
            if set(result.get("metrics", {})) != wanted:
                errors.append(f"{name} {mode}: metrics are not the "
                              f"{metric_set} set")
    return errors


def check(document, spec: dict) -> list[str]:
    """Dispatch on the document shape: baseline or single result."""
    if isinstance(document, dict) and "workloads" in document:
        return check_baseline(document, spec)
    return check_result(document, spec)


def main(argv=None) -> int:
    here = pathlib.Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="result JSON file, or - for stdin")
    parser.add_argument("--benchmark", type=pathlib.Path,
                        default=here.parents[1] / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    text = (sys.stdin.read() if args.result == "-"
            else pathlib.Path(args.result).read_text())
    lines = [line for line in text.strip().splitlines() if line.strip()]
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        # A captured run: the result is the last line of its stdout.
        document = json.loads(lines[-1]) if lines else None
    errors = check(document, spec)
    for error in errors:
        print(f"FAIL: {error}")
    if not errors:
        print("ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
