#!/usr/bin/env python
"""Schema sanity checks for the ``alidrone chaos`` report artefact.

The CI chaos-smoke job runs ``alidrone chaos`` in a tiny configuration
and points this script at the JSON report it wrote.  Only the stdlib is
needed — the checks are about the artefact *format* downstream tooling
diffs, not the library internals:

* top level: ``config`` / ``cells`` / ``invariants`` / ``ok``;
* config echoes the sweep parameters (seed, budget, scenario and plan
  name lists);
* one cell per (scenario, plan) pair, each carrying the status, the
  liveness fields, a PoA digest, and the fault/retry stats (each
  accumulator's ``to_dict``);
* the invariant block is consistent with ``ok`` (``ok`` is true exactly
  when there are no false accepts, no liveness failures, and the no-op
  path was bit-identical).

Exit 0 when every provided file passes, 1 otherwise (problems are listed
on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

TOP_FIELDS = {"config", "cells", "invariants", "ok"}
CONFIG_FIELDS = {"seed", "key_bits", "update_rate_hz", "liveness_budget_s",
                 "liveness_loss_ceiling", "scenarios", "plans"}
CELL_FIELDS = {"scenario", "plan", "violation", "status", "accepted",
               "submission_complete", "liveness_applies", "liveness_ok",
               "recovery_latency_s", "auth_samples", "degraded_decisions",
               "retransmissions", "duplicate_frames", "corrupt_frames",
               "poa_digest", "fault_stats", "retry_stats"}
INVARIANT_FIELDS = {"false_accepts", "liveness_failures",
                    "noop_path_identical"}


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_chaos(path: str) -> list[str]:
    """Problems with a chaos report file (empty list = clean)."""
    try:
        document = _load(path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    if not isinstance(document, dict):
        return [f"{path}: expected a JSON object"]
    missing = TOP_FIELDS - set(document)
    if missing:
        return [f"{path}: missing fields {sorted(missing)}"]
    problems: list[str] = []

    config = document["config"]
    missing = CONFIG_FIELDS - set(config)
    if missing:
        problems.append(f"{path}: config missing fields {sorted(missing)}")

    cells = document["cells"]
    if not isinstance(cells, list) or not cells:
        return problems + [f"{path}: cells must be a non-empty list"]
    expected = len(config.get("scenarios", [])) * len(config.get("plans", []))
    if expected and len(cells) != expected:
        problems.append(f"{path}: {len(cells)} cells for "
                        f"{expected} (scenario, plan) pairs")
    for cell in cells:
        label = f"{cell.get('scenario')}/{cell.get('plan')}"
        missing = CELL_FIELDS - set(cell)
        if missing:
            problems.append(f"{path}: cell {label} missing fields "
                            f"{sorted(missing)}")
            continue
        if cell["scenario"] not in config.get("scenarios", []):
            problems.append(f"{path}: cell {label} names an unknown "
                            "scenario")
        if cell["plan"] not in config.get("plans", []):
            problems.append(f"{path}: cell {label} names an unknown plan")
        if not isinstance(cell["status"], str) or not cell["status"]:
            problems.append(f"{path}: cell {label} status invalid")
        if cell["accepted"] and cell["status"] != "accepted":
            problems.append(f"{path}: cell {label} accepted flag "
                            "contradicts its status")
        if not (_is_number(cell["recovery_latency_s"])
                and cell["recovery_latency_s"] >= 0):
            problems.append(f"{path}: cell {label} recovery latency "
                            "invalid")
        for counter in ("auth_samples", "degraded_decisions",
                        "retransmissions", "duplicate_frames",
                        "corrupt_frames"):
            value = cell[counter]
            if not (isinstance(value, int) and value >= 0):
                problems.append(f"{path}: cell {label} counter {counter} "
                                "invalid")
        if cell["submission_complete"] and not (
                isinstance(cell["poa_digest"], str) and cell["poa_digest"]):
            problems.append(f"{path}: cell {label} completed without a "
                            "PoA digest")
        for stats in ("fault_stats", "retry_stats"):
            if not isinstance(cell[stats], dict):
                problems.append(f"{path}: cell {label} {stats} is not "
                                "an object")

    invariants = document["invariants"]
    missing = INVARIANT_FIELDS - set(invariants)
    if missing:
        return problems + [f"{path}: invariants missing fields "
                           f"{sorted(missing)}"]
    if not isinstance(invariants["noop_path_identical"], bool):
        problems.append(f"{path}: noop_path_identical must be a boolean")
    derived_ok = (not invariants["false_accepts"]
                  and not invariants["liveness_failures"]
                  and invariants["noop_path_identical"] is True)
    if document["ok"] is not derived_ok:
        problems.append(f"{path}: ok={document['ok']!r} contradicts the "
                        "invariant block")
    # The point of the smoke job: a violation cell marked accepted must
    # be listed as a false accept.
    for cell in cells:
        if isinstance(cell, dict) and cell.get("violation") \
                and cell.get("accepted"):
            label = f"{cell['scenario']}/{cell['plan']}"
            if label not in invariants["false_accepts"]:
                problems.append(f"{path}: accepted violation {label} not "
                                "reported as a false accept")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chaos", action="append", default=[],
                        help="chaos report JSON to check (repeatable)")
    args = parser.parse_args(argv)
    if not args.chaos:
        parser.error("nothing to check")

    problems: list[str] = []
    for path in args.chaos:
        problems.extend(check_chaos(path))

    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"chaos check: {len(args.chaos)} file(s) ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
