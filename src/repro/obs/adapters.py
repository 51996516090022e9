"""Metrics snapshots of the accumulators the system already keeps.

``StageMetrics`` (verification timing), ``SmcStats`` (world switches),
``LinkStats`` (radio counters), ``EventLog`` (simulation events) and the
fault / retry / attack tallies keep their own APIs.  Each function here
reads one live accumulator and returns its ``{name: {"type": ...}}``
snapshot entries, so a metrics snapshot is a merge of these dicts taken
when it is written — no double bookkeeping on the hot paths.  The
entries are what ``write_metrics_json`` writes and
:func:`repro.obs.prom.to_prometheus` renders.

The accumulators are referenced duck-typed (no imports of the TEE / net /
perf layers) so the observability package stays dependency-free and
import-cycle-free: instrumented modules may import :mod:`repro.obs`, never
the other way around.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

Snapshot = dict[str, dict[str, Any]]


def stage_metrics_snapshot(stage_metrics,
                           prefix: str = "verify") -> Snapshot:
    """Snapshot entries for a :class:`repro.perf.meter.StageMetrics`.

    Per stage: ``<prefix>.<stage>.runs``, ``.samples``,
    ``.total_seconds`` (counters) and ``.seconds`` (a histogram-style
    summary with the mean/std the meter already computes).
    """
    out: Snapshot = {}
    for stage in stage_metrics.stages():
        base = f"{prefix}.{stage}"
        runs = stage_metrics.runs(stage)
        out[f"{base}.runs"] = {"type": "counter", "value": runs}
        out[f"{base}.samples"] = {
            "type": "counter",
            "value": stage_metrics.total_samples(stage)}
        out[f"{base}.total_seconds"] = {
            "type": "counter",
            "value": stage_metrics.total_seconds(stage)}
        if runs:
            timing = stage_metrics.timing(stage)
            out[f"{base}.seconds"] = {
                "type": "histogram", "count": timing.n,
                "sum": stage_metrics.total_seconds(stage),
                "mean": timing.mean, "std": timing.std}
    return out


def smc_stats_snapshot(smc_stats,
                       prefix: str = "tee.smc") -> Snapshot:
    """Snapshot entries for a :class:`repro.tee.monitor.SmcStats`."""
    out = {
        f"{prefix}.world_switches": {
            "type": "counter", "value": smc_stats.world_switches},
        f"{prefix}.total_calls": {
            "type": "counter", "value": smc_stats.total_calls},
    }
    for command, calls in sorted(smc_stats.calls_by_command.items()):
        out[f"{prefix}.calls.{command}"] = {
            "type": "counter", "value": calls}
    return out


def link_stats_snapshot(link_stats,
                        prefix: str = "net.link") -> Snapshot:
    """Snapshot entries for a :class:`repro.net.link.LinkStats`."""
    return {
        f"{prefix}.sent": {"type": "counter",
                           "value": link_stats.sent},
        f"{prefix}.dropped": {"type": "counter",
                              "value": link_stats.dropped},
        f"{prefix}.delivered": {"type": "counter",
                                "value": link_stats.delivered},
        f"{prefix}.bytes_sent": {"type": "counter",
                                 "value": link_stats.bytes_sent},
        f"{prefix}.loss_rate": {"type": "gauge",
                                "value": link_stats.loss_rate},
    }


def zone_index_stats_snapshot(stats,
                              prefix: str = "geo.zone_index") -> Snapshot:
    """Snapshot entries for a :class:`repro.geo.proximity.ZoneIndexStats`.

    Counters ``<prefix>.queries``, ``.candidates``, ``.rings``,
    ``.cutoff_exits`` plus per-query mean gauges, so a snapshot shows the
    ring-search pruning working (candidates per query should stay flat as
    the zone count grows).
    """
    return {
        f"{prefix}.queries": {"type": "counter",
                              "value": stats.queries},
        f"{prefix}.candidates": {"type": "counter",
                                 "value": stats.candidates},
        f"{prefix}.rings": {"type": "counter",
                            "value": stats.rings},
        f"{prefix}.cutoff_exits": {"type": "counter",
                                   "value": stats.cutoff_exits},
        f"{prefix}.mean_candidates_per_query": {
            "type": "gauge", "value": stats.mean_candidates_per_query},
        f"{prefix}.mean_rings_per_query": {
            "type": "gauge", "value": stats.mean_rings_per_query},
    }


def fault_stats_snapshot(stats,
                         prefix: str = "fault") -> Snapshot:
    """Snapshot entries for a :class:`repro.faults.injector.FaultStats`.

    ``<prefix>.opportunities.total`` and ``<prefix>.injected.total``
    counters, plus per-point ``<prefix>.opportunities.<point>`` and
    per-fault-kind ``<prefix>.injected.<point>.<action>`` breakdowns, so
    a snapshot shows exactly which failures a chaos run exercised.
    """
    out = {
        f"{prefix}.opportunities.total": {
            "type": "counter",
            "value": sum(stats.opportunities.values())},
        f"{prefix}.injected.total": {"type": "counter",
                                     "value": stats.total_injected},
    }
    for point, count in sorted(stats.opportunities.items()):
        out[f"{prefix}.opportunities.{point}"] = {"type": "counter",
                                                  "value": count}
    for key, count in sorted(stats.injected.items()):
        out[f"{prefix}.injected.{key}"] = {"type": "counter",
                                           "value": count}
    return out


def retry_stats_snapshot(stats,
                         prefix: str = "retry") -> Snapshot:
    """Snapshot entries for a :class:`repro.faults.retry.RetryStats`.

    Aggregate counters (``<prefix>.calls``, ``.attempts``, ``.retries``,
    ``.recoveries``, ``.giveups``), total virtual backoff as a counter,
    and a per-operation ``<prefix>.op.<operation>.retries`` breakdown.
    """
    out = {
        f"{prefix}.calls": {"type": "counter", "value": stats.calls},
        f"{prefix}.attempts": {"type": "counter",
                               "value": stats.attempts},
        f"{prefix}.retries": {"type": "counter",
                              "value": stats.retries},
        f"{prefix}.recoveries": {"type": "counter",
                                 "value": stats.recoveries},
        f"{prefix}.giveups": {"type": "counter",
                              "value": stats.giveups},
        f"{prefix}.total_backoff_seconds": {
            "type": "counter", "value": stats.total_backoff_s},
    }
    for operation, retries in sorted(stats.by_operation.items()):
        out[f"{prefix}.op.{operation}.retries"] = {
            "type": "counter", "value": retries}
    return out


def event_log_snapshot(event_log,
                       prefix: str = "sim.events") -> Snapshot:
    """Snapshot entries for a :class:`repro.sim.events.EventLog`.

    ``<prefix>.total`` plus one ``<prefix>.kind.<kind>`` counter per
    distinct event kind seen so far.
    """
    kinds = Counter(event.kind for event in event_log)
    out = {f"{prefix}.total": {"type": "counter",
                               "value": len(event_log)}}
    for kind, count in sorted(kinds.items()):
        out[f"{prefix}.kind.{kind}"] = {"type": "counter",
                                        "value": count}
    return out


def attack_stats_snapshot(stats,
                          prefix: str = "adversary") -> Snapshot:
    """Snapshot entries for a :class:`repro.adversary.matrix.AttackStats`.

    Aggregate counters (``<prefix>.attacks_run``, ``.rejected``,
    ``.false_accepts``, ``.unexpected_outcomes``) plus a per-label
    ``<prefix>.outcome.<label>`` breakdown, so a snapshot shows how every
    attack in a matrix sweep was dispatched.
    """
    out = {
        f"{prefix}.attacks_run": {"type": "counter",
                                  "value": stats.attacks_run},
        f"{prefix}.rejected": {"type": "counter",
                               "value": stats.rejected},
        f"{prefix}.false_accepts": {"type": "counter",
                                    "value": stats.false_accepts},
        f"{prefix}.unexpected_outcomes": {
            "type": "counter", "value": stats.unexpected_outcomes},
    }
    for label, count in sorted(stats.by_outcome.items()):
        out[f"{prefix}.outcome.{label}"] = {"type": "counter",
                                            "value": count}
    return out
