"""Tests for the instrument API and the rollup sections beside it.

Counting, gauges, distributions and get-or-create naming live in one
instrument API, the :class:`TelemetryHub` and its
:class:`QuantileSketch` windows.  The accumulators the system already
keeps join its rollup as sections, each through its own ``to_dict``.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import QuantileSketch, TelemetryHub
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
    """Each accumulator is a rollup section through its own ``to_dict``."""

    def test_stage_metrics_source(self, hub):
        meter = StageMetrics()
        hub.add_section("stages", meter.to_dict)
        meter.record("signature", 0.010, 8)
        meter.record("signature", 0.030, 8)
        section = hub.rollup(0.0)["stages"]
        assert section["signature"]["runs"] == 2
        assert section["signature"]["samples"] == 16
        assert section["signature"]["total_seconds"] == pytest.approx(0.040)
        assert section["signature"]["mean_seconds"] == pytest.approx(0.020)
        assert section["signature"]["std_seconds"] == pytest.approx(0.010)
        # Live view: a later rollup shows later recordings.
        meter.record("decode", 0.001, 8)
        assert hub.rollup(1.0)["stages"]["decode"]["runs"] == 1

    def test_zone_index_stats_source(self):
        from repro.geo.circle import Circle
        from repro.geo.proximity import ZoneIndexStats, ZoneProximityIndex

        stats = ZoneIndexStats()
        index = ZoneProximityIndex.from_circles(
            [Circle(0.0, 0.0, 10.0), Circle(50.0, 0.0, 5.0)], stats=stats)
        index.nearest_boundary((20.0, 0.0))
        section = stats.to_dict()
        assert section["queries"] == 1
        assert section["candidates"] >= 1
        assert section["mean_candidates_per_query"] == pytest.approx(
            stats.mean_candidates_per_query)
        assert section["mean_rings_per_query"] == pytest.approx(
            stats.mean_rings_per_query)
        # Live view: a later read shows more queries.
        index.min_pair_distance((0.0, 0.0), (5.0, 0.0))
        section = stats.to_dict()
        assert section["queries"] == 2
        assert section["cutoff_exits"] == 0

    def test_attack_stats_source(self, hub):
        from repro.adversary import AttackStats
        from repro.adversary.attacks import AttackResult

        stats = AttackStats()
        hub.add_section("adversary", stats.to_dict)
        stats.record(AttackResult(outcome="bad_signature", accepted=False,
                                  cleared=False, detail=""),
                     expected_ok=True)
        section = hub.rollup(0.0)["adversary"]
        assert section["attacks_run"] == 1
        assert section["rejected"] == 1
        assert section["false_accepts"] == 0
        assert section["by_outcome"]["bad_signature"] == 1
        # Live view: a later rollup shows later recordings.
        stats.record(AttackResult(outcome="no_poa", accepted=False,
                                  cleared=False, detail=""),
                     expected_ok=True)
        assert hub.rollup(1.0)["adversary"]["by_outcome"]["no_poa"] == 1

    def test_event_log_source(self):
        log = EventLog()
        log.record(1.0, "sample")
        log.record(2.0, "sample")
        log.record(3.0, "violation")
        assert log.counts() == {"total": 3,
                                "kind": {"sample": 2, "violation": 1}}

    def test_fault_stats_source(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, FaultRule

        injector = FaultInjector(FaultPlan("t", (
            FaultRule("link.uplink.send", "drop"),)))
        injector.link_deliveries("link.uplink.send", b"m")
        section = injector.stats.to_dict()
        assert section["opportunities"] == {"link.uplink.send": 1}
        assert section["total_injected"] == 1
        assert section["injected"] == {"link.uplink.send.drop": 1}
        # Live view: a later read shows later injections.
        injector.link_deliveries("link.uplink.send", b"m")
        assert injector.stats.to_dict()["total_injected"] == 2

    def test_retry_stats_source(self):
        import random

        from repro.errors import TransientError
        from repro.faults.retry import (
            RetryPolicy,
            RetryStats,
            execute_with_retry,
        )
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
        section = stats.to_dict()
        assert section["calls"] == 1
        assert section["attempts"] == 2
        assert section["retries"] == 1
        assert section["recoveries"] == 1
        assert section["giveups"] == 0
        assert section["total_backoff_s"] > 0
        assert section["by_operation"] == {"register": 1}
