#!/usr/bin/env python
"""Independent validation of ``alidrone serve --json`` run summaries.

The CI service-smoke job drives ``alidrone serve`` for a few hundred
virtual ticks and points this script at the JSON it printed.  The checks
are deliberately implemented with nothing but the stdlib — no imports
from ``repro`` — so a bug in the service cannot also hide in its
validator.  What must hold for any completed run:

* **Schema** — every summary field present with the right shape.
* **Intake accounting** — ``submitted`` partitions exactly into
  ``accepted + deduplicated + shed``, and ``shed`` into its rate-limit
  and queue-full components.
* **Audit completeness** — everything accepted was audited
  (``audited == accepted + replayed_on_start``), the queue drained to
  zero, the store holds one verdict per submission with nothing
  pending, and the per-status verdict counts cover every verdict row
  (the store outlives the run, so on a durable re-run they exceed this
  run's ``audited``).
* **Zones** — the store reports the zones it holds, at least one.
* **Shard accounting** — ``per_shard_audited`` has one slot per shard
  and sums to ``audited``.
* **Health** — no intake errors, no page-severity alerts, and the run's
  own ``ok`` verdict is true.

Exit 0 when every provided file passes, 1 otherwise (problems on
stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

TOP_FIELDS = {"ticks", "rate_hz", "shards", "drones",
              "samples_per_submission", "queue_capacity",
              "admission_rate_per_s", "arrivals", "replayed_on_start",
              "stats", "status_counts", "queue_depth_final", "store",
              "intake_p99_s", "store_p99_s", "payload_cache", "alerts",
              "ok"}
STATS_FIELDS = {"submitted", "accepted", "deduplicated", "shed",
                "shed_rate_limited", "shed_queue_full", "audited",
                "replayed", "intake_errors", "per_shard_audited",
                "submissions_by_scheme"}
STORE_FIELDS = {"path", "zones", "submissions", "verdicts", "pending"}
CACHE_FIELDS = {"hits", "misses"}


def _is_count(value) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


def _is_latency(value) -> bool:
    if value is None:  # empty window: no arrivals landed in it
        return True
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0)


def check_serve(path: str, min_audited: int = 1) -> list[str]:
    """Problems with one serve summary (empty list = clean)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path}: expected a JSON object"]
    missing = TOP_FIELDS - set(doc)
    if missing:
        return [f"{path}: missing fields {sorted(missing)}"]
    problems: list[str] = []

    stats = doc["stats"]
    if not isinstance(stats, dict) or STATS_FIELDS - set(stats):
        return [f"{path}: stats missing fields "
                f"{sorted(STATS_FIELDS - set(stats))}"]
    for field in STATS_FIELDS - {"per_shard_audited",
                                 "submissions_by_scheme"}:
        if not _is_count(stats[field]):
            problems.append(f"{path}: stats.{field} is not a count")
    if problems:
        return problems

    # Scheme accounting: the live per-scheme counters partition exactly
    # the submissions this process accepted.
    by_scheme = stats["submissions_by_scheme"]
    if not (isinstance(by_scheme, dict)
            and all(isinstance(k, str) and _is_count(v)
                    for k, v in by_scheme.items())):
        problems.append(f"{path}: submissions_by_scheme malformed")
    elif sum(by_scheme.values()) != stats["accepted"]:
        problems.append(
            f"{path}: submissions_by_scheme sums to "
            f"{sum(by_scheme.values())}, accepted={stats['accepted']}")

    # Intake accounting: every submission got exactly one decision.
    if stats["submitted"] != (stats["accepted"] + stats["deduplicated"]
                              + stats["shed"]):
        problems.append(
            f"{path}: submitted={stats['submitted']} != accepted"
            f"+deduplicated+shed="
            f"{stats['accepted'] + stats['deduplicated'] + stats['shed']}")
    if stats["shed"] != stats["shed_rate_limited"] + stats["shed_queue_full"]:
        problems.append(f"{path}: shed components do not sum")
    if doc["arrivals"] != stats["submitted"]:
        problems.append(f"{path}: arrivals={doc['arrivals']} != "
                        f"submitted={stats['submitted']}")

    # Audit completeness: accepted (plus any restart replay) all audited,
    # queue and store fully drained.
    expected_audited = stats["accepted"] + doc["replayed_on_start"]
    if stats["audited"] != expected_audited:
        problems.append(f"{path}: audited={stats['audited']} != "
                        f"accepted+replayed={expected_audited}")
    if stats["audited"] < min_audited:
        problems.append(f"{path}: audited={stats['audited']} below "
                        f"required minimum {min_audited}")
    if doc["queue_depth_final"] != 0:
        problems.append(f"{path}: queue not drained "
                        f"({doc['queue_depth_final']} left)")

    store = doc["store"]
    if not isinstance(store, dict) or STORE_FIELDS - set(store):
        problems.append(f"{path}: store missing fields "
                        f"{sorted(STORE_FIELDS - set(store))}")
    else:
        # The store holds the zones too, so a re-run over it keeps them.
        if not (_is_count(store["zones"]) and store["zones"] >= 1):
            problems.append(f"{path}: store.zones={store['zones']!r} is "
                            "not a count of at least 1")
        if store["pending"] != 0:
            problems.append(f"{path}: store has {store['pending']} "
                            "unaudited rows")
        if store["verdicts"] != store["submissions"]:
            problems.append(f"{path}: store verdicts={store['verdicts']} "
                            f"!= submissions={store['submissions']}")

    status_counts = doc["status_counts"]
    if not isinstance(status_counts, dict):
        problems.append(f"{path}: status_counts is not an object")
    elif isinstance(store, dict) and "verdicts" in store:
        # Counts span the whole store, which outlives one run: a durable
        # re-run dedups everything (audited=0) yet reports every verdict.
        total = sum(status_counts.values())
        if total != store["verdicts"]:
            problems.append(f"{path}: status counts sum to {total}, "
                            f"store verdicts={store['verdicts']}")

    # Shard accounting.
    per_shard = stats["per_shard_audited"]
    if not (isinstance(per_shard, list) and len(per_shard) == doc["shards"]
            and all(_is_count(n) for n in per_shard)):
        problems.append(f"{path}: per_shard_audited malformed for "
                        f"{doc['shards']} shard(s)")
    elif sum(per_shard) != stats["audited"]:
        problems.append(f"{path}: per-shard counts sum to "
                        f"{sum(per_shard)}, audited={stats['audited']}")

    # Health.
    if stats["intake_errors"] != 0:
        problems.append(f"{path}: {stats['intake_errors']} intake error(s)")
    if not isinstance(doc["alerts"], list):
        problems.append(f"{path}: alerts is not a list")
    else:
        pages = [a for a in doc["alerts"]
                 if isinstance(a, dict) and a.get("severity") == "page"]
        if pages:
            problems.append(f"{path}: {len(pages)} page-severity alert(s): "
                            + ", ".join(sorted({a.get('rule', '?')
                                                for a in pages})))
    cache = doc["payload_cache"]
    if not isinstance(cache, dict) or CACHE_FIELDS - set(cache):
        problems.append(f"{path}: payload_cache missing fields")
    for field in ("intake_p99_s", "store_p99_s"):
        if not _is_latency(doc[field]):
            problems.append(f"{path}: {field} is not a finite latency")
    if doc["ok"] is not True:
        problems.append(f"{path}: run reported ok={doc['ok']!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", action="append", default=[],
                        help="serve --json summary to check (repeatable)")
    parser.add_argument("--min-audited", type=int, default=1,
                        help="require at least this many audited "
                             "submissions (default 1)")
    args = parser.parse_args(argv)
    if not args.serve:
        parser.error("nothing to check")

    problems: list[str] = []
    for path in args.serve:
        problems.extend(check_serve(path, min_audited=args.min_audited))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"service check: {len(args.serve)} file(s) ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
