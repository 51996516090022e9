"""Tests for repro.faults.chaos: the matrix harness and its invariants.

Cells drive the whole protocol (registration through audit), so these use
deliberately tiny scenarios to stay fast.
"""

import pytest

from repro.core.nfz import NoFlyZone
from repro.faults.chaos import run_cell, run_matrix
from repro.faults.plan import FaultPlan, FaultRule, builtin_plans
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.gps.replay import WaypointSource
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.scenario import Scenario

T0 = DEFAULT_EPOCH


@pytest.fixture(scope="module")
def chaos_frame():
    return LocalFrame(GeoPoint(40.1000, -88.2200))


def tiny_scenario(frame, violation: bool) -> Scenario:
    """A 60 s straight 300 m flight; the zone sits on or off the path."""
    zone_y = 0.0 if violation else 120.0
    center = frame.to_geo(150.0, zone_y)
    return Scenario(
        name="tiny-violation" if violation else "tiny-compliant",
        description="unit-test scenario",
        frame=frame,
        zones=[NoFlyZone(center.lat, center.lon, 30.0)],
        source=WaypointSource([(T0, 0.0, 0.0), (T0 + 60.0, 300.0, 0.0)]),
        t_start=T0, t_end=T0 + 60.0, gps_noise_std_m=0.5)


class TestRunCell:
    def test_compliant_baseline_accepted(self, chaos_frame):
        cell = run_cell(tiny_scenario(chaos_frame, violation=False),
                        builtin_plans(0)["baseline"], seed=0)
        assert cell.status == "accepted"
        assert cell.accepted
        assert cell.submission_complete
        assert cell.liveness_ok
        assert cell.auth_samples > 0
        assert cell.poa_digest

    def test_violation_never_accepted_under_loss(self, chaos_frame):
        cell = run_cell(tiny_scenario(chaos_frame, violation=True),
                        builtin_plans(0)["lossy30"], violation=True, seed=0)
        assert not cell.accepted
        assert cell.violation

    def test_noop_injector_bit_identical(self, chaos_frame):
        scenario = tiny_scenario(chaos_frame, violation=False)
        with_empty = run_cell(scenario, FaultPlan("baseline"), seed=3)
        without = run_cell(scenario, None, seed=3)
        assert with_empty.poa_digest == without.poa_digest
        assert with_empty.auth_samples == without.auth_samples

    def test_lossy_link_recovers_with_retransmissions(self, chaos_frame):
        cell = run_cell(tiny_scenario(chaos_frame, violation=False),
                        builtin_plans(0)["lossy30"], seed=0)
        assert cell.submission_complete
        assert cell.retransmissions > 0
        assert cell.status == "accepted"

    def test_fault_and_retry_metrics_exposed(self, chaos_frame):
        plan = FaultPlan("outage", (
            FaultRule("auditor.receive_poa", "fail", max_count=2),))
        cell = run_cell(tiny_scenario(chaos_frame, violation=False),
                        plan, seed=0)
        assert cell.status == "accepted"  # retries rode out the outage
        assert cell.fault_stats["injected"] == {
            "auditor.receive_poa.fail": 2}
        assert cell.retry_stats["retries"] >= 2
        assert cell.fault_stats["total_injected"] == 2
        assert "metrics" not in cell.to_dict()

    def test_cell_is_deterministic(self, chaos_frame):
        scenario = tiny_scenario(chaos_frame, violation=False)
        plan = builtin_plans(5)["kitchen_sink"]
        first = run_cell(scenario, plan, seed=5).to_dict()
        second = run_cell(scenario, plan, seed=5).to_dict()
        assert first == second


class TestRunMatrix:
    def test_matrix_report_schema_and_invariants(self, chaos_frame):
        scenarios = [(tiny_scenario(chaos_frame, violation=False), False),
                     (tiny_scenario(chaos_frame, violation=True), True)]
        plans = [builtin_plans(0)["baseline"], builtin_plans(0)["lossy30"]]
        report = run_matrix(scenarios, plans, seed=0)
        assert report.ok
        payload = report.to_dict()
        assert set(payload) == {"config", "cells", "invariants", "ok"}
        assert len(payload["cells"]) == 4
        inv = payload["invariants"]
        assert inv["false_accepts"] == []
        assert inv["liveness_failures"] == []
        assert inv["noop_path_identical"] is True

    def test_false_accept_would_fail_the_sweep(self, chaos_frame):
        """A violation cell marked accepted must flip the verdict (guard
        the guard: forge a matrix outcome through the public report)."""
        from repro.faults.chaos import ChaosReport

        report = ChaosReport(config={}, cells=[],
                             false_accepts=["tiny-violation/lossy30"],
                             liveness_failures=[], noop_path_identical=True)
        assert not report.ok
