"""Tests for the metrics snapshots and the instrument API beside them.

Metrics snapshots are plain ``{name: {"type": ...}}`` dicts read off the
live accumulators (:mod:`repro.obs.adapters`).  Counting, gauges,
distributions and get-or-create naming live in one instrument API, the
:class:`TelemetryHub` and its :class:`QuantileSketch` windows.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.net.link import SimulatedLink
from repro.obs import (
    QuantileSketch,
    TelemetryHub,
    event_log_snapshot,
    link_stats_snapshot,
    smc_stats_snapshot,
    stage_metrics_snapshot,
)
from repro.perf.meter import StageMetrics
from repro.sim.events import EventLog


@pytest.fixture()
def hub():
    return TelemetryHub()


class TestCounter:
    def test_inc(self, hub):
        counter = hub.counter("hits")
        counter.inc(now=0.0)
        counter.inc(4, now=0.0)
        assert counter.cumulative == 5
        assert hub.rollup(0.0)["counters"]["hits"]["cumulative"] == 5

    def test_negative_inc_rejected(self, hub):
        with pytest.raises(ConfigurationError):
            hub.counter("hits").inc(-1, now=0.0)


class TestGauge:
    def test_callback_backed(self, hub):
        backing = {"n": 7}
        hub.gauge("live", lambda: backing["n"])
        assert hub.rollup(0.0)["gauges"]["live"] == 7
        backing["n"] = 9
        assert hub.rollup(0.0)["gauges"]["live"] == 9


class TestQuantile:
    def test_rejects_empty_and_out_of_range(self):
        sketch = QuantileSketch()
        with pytest.raises(ConfigurationError):
            sketch.quantile(0.5)
        sketch.observe(1.0)
        with pytest.raises(ConfigurationError):
            sketch.quantile(1.5)


class TestHistogram:
    def test_snapshot_summary(self, hub):
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            hub.observe("wall_s", value, now=0.0)
        snap = hub.rollup(0.0)["quantiles"]["wall_s"]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(15.0)
        assert snap["mean"] == pytest.approx(3.0)
        assert (snap["min"], snap["max"]) == (1.0, 5.0)
        assert snap["p50"] == pytest.approx(3.0, rel=hub.alpha)

    def test_empty_snapshot_has_no_quantiles(self, hub):
        hub.sketch("empty")
        assert hub.rollup(0.0)["quantiles"]["empty"] == {"count": 0}

    def test_compaction_keeps_count_and_sum_exact(self):
        sketch = QuantileSketch(max_bins=4)
        for value in range(1, 11):
            sketch.observe(float(value))
        assert sketch.count == 10
        assert sketch.sum == pytest.approx(55.0)
        assert sketch.bins <= 4
        # The extremes stay exact through the collapse.
        assert sketch.quantile(1.0) == 10.0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self, hub):
        assert hub.counter("x") is hub.counter("x")

    def test_kind_conflict_rejected(self, hub):
        hub.counter("x")
        with pytest.raises(ConfigurationError):
            hub.gauge("x", lambda: 1.0)

    def test_to_json_is_valid(self, hub):
        hub.mark("a", now=0.0)
        parsed = json.loads(json.dumps(hub.rollup(0.0)))
        assert parsed["counters"]["a"]["cumulative"] == 1

    def test_sources_merge_into_snapshot(self, hub):
        hub.add_section("ext", lambda: {"n": 2})
        assert hub.rollup(0.0)["ext"]["n"] == 2


class TestAdapters:
    def test_stage_metrics_source(self):
        meter = StageMetrics()
        meter.record("signature", 0.010, 8)
        meter.record("signature", 0.030, 8)
        snapshot = stage_metrics_snapshot(meter, prefix="audit")
        assert snapshot["audit.signature.runs"]["value"] == 2
        assert snapshot["audit.signature.samples"]["value"] == 16
        assert snapshot["audit.signature.seconds"]["mean"] == \
            pytest.approx(0.020)
        # Live view: a later read shows later recordings.
        meter.record("decode", 0.001, 8)
        assert stage_metrics_snapshot(meter, prefix="audit")[
            "audit.decode.runs"]["value"] == 1

    def test_link_stats_source(self):
        link = SimulatedLink(latency_s=0.0, jitter_s=0.0)
        link.send(b"payload", now=0.0)
        link.receive(now=10.0)
        snapshot = link_stats_snapshot(link.stats)
        assert snapshot["net.link.sent"]["value"] == 1
        assert snapshot["net.link.delivered"]["value"] == 1
        assert snapshot["net.link.bytes_sent"]["value"] == len(b"payload")

    def test_smc_stats_source(self):
        class Stats:
            world_switches = 6
            total_calls = 3
            calls_by_command = {"GetGPSAuth": 3}

        snapshot = smc_stats_snapshot(Stats())
        assert snapshot["tee.smc.world_switches"]["value"] == 6
        assert snapshot["tee.smc.calls.GetGPSAuth"]["value"] == 3

    def test_zone_index_stats_source(self):
        from repro.geo.circle import Circle
        from repro.geo.proximity import ZoneIndexStats, ZoneProximityIndex
        from repro.obs import zone_index_stats_snapshot

        stats = ZoneIndexStats()
        index = ZoneProximityIndex.from_circles(
            [Circle(0.0, 0.0, 10.0), Circle(50.0, 0.0, 5.0)], stats=stats)
        index.nearest_boundary((20.0, 0.0))
        snapshot = zone_index_stats_snapshot(stats)
        assert snapshot["geo.zone_index.queries"]["value"] == 1
        assert snapshot["geo.zone_index.queries"]["type"] == "counter"
        assert snapshot["geo.zone_index.candidates"]["value"] >= 1
        assert snapshot["geo.zone_index.mean_candidates_per_query"][
            "type"] == "gauge"
        assert snapshot["geo.zone_index.mean_rings_per_query"]["value"] == \
            pytest.approx(stats.mean_rings_per_query)
        # Live view: a later read shows more queries.
        index.min_pair_distance((0.0, 0.0), (5.0, 0.0))
        snapshot = zone_index_stats_snapshot(stats)
        assert snapshot["geo.zone_index.queries"]["value"] == 2
        assert snapshot["geo.zone_index.cutoff_exits"]["value"] == 0

    def test_attack_stats_source(self):
        from repro.adversary import AttackStats
        from repro.adversary.attacks import AttackResult
        from repro.obs.adapters import attack_stats_snapshot

        stats = AttackStats()
        stats.record(AttackResult(outcome="bad_signature", accepted=False,
                                  cleared=False, detail=""),
                     expected_ok=True)
        snapshot = attack_stats_snapshot(stats)
        assert snapshot["adversary.attacks_run"]["value"] == 1
        assert snapshot["adversary.rejected"]["value"] == 1
        assert snapshot["adversary.false_accepts"]["value"] == 0
        assert snapshot["adversary.outcome.bad_signature"]["value"] == 1
        # Live view: a later read shows later recordings.
        stats.record(AttackResult(outcome="no_poa", accepted=False,
                                  cleared=False, detail=""),
                     expected_ok=True)
        assert attack_stats_snapshot(stats)[
            "adversary.outcome.no_poa"]["value"] == 1

    def test_event_log_source(self):
        log = EventLog()
        log.record(1.0, "sample")
        log.record(2.0, "sample")
        log.record(3.0, "violation")
        snapshot = event_log_snapshot(log)
        assert snapshot["sim.events.total"]["value"] == 3
        assert snapshot["sim.events.kind.sample"]["value"] == 2
        assert snapshot["sim.events.kind.violation"]["value"] == 1

    def test_fault_stats_source(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, FaultRule
        from repro.obs import fault_stats_snapshot

        injector = FaultInjector(FaultPlan("t", (
            FaultRule("link.uplink.send", "drop"),)))
        injector.link_deliveries("link.uplink.send", b"m")
        snapshot = fault_stats_snapshot(injector.stats)
        assert snapshot["fault.opportunities.total"]["value"] == 1
        assert snapshot["fault.opportunities.link.uplink.send"]["value"] == 1
        assert snapshot["fault.injected.total"]["value"] == 1
        assert snapshot["fault.injected.link.uplink.send.drop"] == {
            "type": "counter", "value": 1}
        # Live view: a later read shows later injections.
        injector.link_deliveries("link.uplink.send", b"m")
        assert fault_stats_snapshot(injector.stats)[
            "fault.injected.total"]["value"] == 2

    def test_retry_stats_source(self):
        import random

        from repro.errors import TransientError
        from repro.faults.retry import (
            RetryPolicy,
            RetryStats,
            execute_with_retry,
        )
        from repro.obs import retry_stats_snapshot
        from repro.sim.clock import SimClock

        stats = RetryStats()
        attempts = iter([TransientError("busy"), "ok"])

        def flaky():
            item = next(attempts)
            if isinstance(item, Exception):
                raise item
            return item

        execute_with_retry(flaky, clock=SimClock(0.0),
                           policy=RetryPolicy(max_attempts=3),
                           rng=random.Random(0), stats=stats,
                           operation="register")
        snapshot = retry_stats_snapshot(stats)
        assert snapshot["retry.calls"]["value"] == 1
        assert snapshot["retry.attempts"]["value"] == 2
        assert snapshot["retry.retries"]["value"] == 1
        assert snapshot["retry.recoveries"]["value"] == 1
        assert snapshot["retry.giveups"]["value"] == 0
        assert snapshot["retry.total_backoff_seconds"]["value"] > 0
        assert snapshot["retry.op.register.retries"] == {
            "type": "counter", "value": 1}
