"""Unit and service-integration tests for the admission scheduler.

The policy layer is what turns a flood from a starvation event into a
contained nuisance, so the units pin down exactly who gets denied and
why, and the integration tests prove the service wires denials into
``IntakeDecision`` accounting, stats, and telemetry.
"""

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.protocol import DroneRegistrationRequest
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import ConfigurationError
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.server import AuditorService
from repro.server.admission import (
    DENY_DRONE,
    DENY_GLOBAL,
    DENY_PENALTY,
    DENY_REGION,
    POLICY_FAIR_SHARE,
    POLICY_FIFO,
    POLICY_HYBRID,
    AdmissionScheduler,
    build_scheduler,
)
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import build_flight_submission, provision_fleet

T0 = DEFAULT_EPOCH


class TestFifoPolicy:
    def test_global_rate_limit_only(self):
        sched = AdmissionScheduler(POLICY_FIFO, rate_per_s=1.0, burst=4.0)
        decisions = [sched.admit("hog", "r0", 0.0) for _ in range(10)]
        admitted = [d for d in decisions if d.admitted]
        denied = [d for d in decisions if not d.admitted]
        assert len(admitted) == 4
        assert all(d.reason == DENY_GLOBAL for d in denied)
        # fifo has no per-drone compartments: the hog emptied the bucket
        # for everyone.
        assert not sched.admit("quiet", "r1", 0.0).admitted

    def test_stats_accounting(self):
        sched = AdmissionScheduler(POLICY_FIFO, rate_per_s=1.0, burst=2.0)
        for _ in range(5):
            sched.admit("d", "r", 0.0)
        stats = sched.stats.to_dict()
        assert stats["admitted"] == 2
        assert stats["denied"] == 3
        assert stats["denied_by"] == {DENY_GLOBAL: 3}


class TestFairSharePolicy:
    def test_hog_is_isolated_from_quiet_drone(self):
        sched = AdmissionScheduler(POLICY_FAIR_SHARE, rate_per_s=100.0,
                                   burst=50.0, drone_rate_per_s=1.0,
                                   drone_burst=4.0)
        hog = [sched.admit("hog", "r0", 0.0) for _ in range(40)]
        assert sum(d.admitted for d in hog) == 4
        assert {d.reason for d in hog if not d.admitted} == {DENY_DRONE}
        # The hog's denials never touched the global bucket, so a quiet
        # drone still admits at the same instant.
        assert sched.admit("quiet", "r0", 0.0).admitted

    def test_region_layer_when_enabled(self):
        sched = AdmissionScheduler(POLICY_FAIR_SHARE, rate_per_s=100.0,
                                   burst=50.0, drone_rate_per_s=100.0,
                                   drone_burst=50.0, region_rate_per_s=1.0,
                                   region_burst=2.0)
        decisions = [sched.admit(f"d{i}", "hot", 0.0) for i in range(6)]
        assert sum(d.admitted for d in decisions) == 2
        assert {d.reason for d in decisions if not d.admitted} == \
            {DENY_REGION}
        # Other regions are unaffected.
        assert sched.admit("d9", "cold", 0.0).admitted

    def test_tracked_buckets_bounded(self):
        sched = AdmissionScheduler(POLICY_FAIR_SHARE, rate_per_s=1000.0,
                                   burst=1000.0, max_tracked=8)
        for i in range(50):
            sched.admit(f"d{i}", "r", 0.0)
        assert len(sched._drone_buckets) <= 8


class TestHybridPolicy:
    def test_penalty_deprioritizes_rejected_drone(self):
        sched = AdmissionScheduler(POLICY_HYBRID, rate_per_s=100.0,
                                   burst=50.0, drone_rate_per_s=1.0,
                                   drone_burst=4.0)
        for _ in range(3):
            sched.note_rejection("liar", 0.0)
        assert sched.penalty("liar", 0.0) == pytest.approx(3.0)
        # Each admit now costs 1 + penalty tokens: the 4-token burst that
        # funds 4 clean admits funds only 1 penalised one.
        liar = [sched.admit("liar", "r", 0.0) for _ in range(4)]
        assert sum(d.admitted for d in liar) == 1
        assert {d.reason for d in liar if not d.admitted} == {DENY_PENALTY}
        clean = [sched.admit("clean", "r", 0.0) for _ in range(4)]
        assert all(d.admitted for d in clean)

    def test_penalty_decays_with_halflife(self):
        sched = AdmissionScheduler(POLICY_HYBRID, rate_per_s=10.0,
                                   penalty_halflife_s=10.0)
        sched.note_rejection("d", 0.0, weight=4.0)
        assert sched.penalty("d", 10.0) == pytest.approx(2.0)
        assert sched.penalty("d", 20.0) == pytest.approx(1.0)
        assert sched.penalty("d", 1000.0) == pytest.approx(0.0, abs=1e-6)

    def test_penalty_capped(self):
        sched = AdmissionScheduler(POLICY_HYBRID, rate_per_s=10.0,
                                   penalty_cap=3.0)
        for _ in range(100):
            sched.note_rejection("d", 0.0)
        assert sched.penalty("d", 0.0) <= 3.0


class TestBuildScheduler:
    def test_none_policy_disables(self):
        assert build_scheduler(None, rate_per_s=10.0) is None
        assert build_scheduler("none", rate_per_s=10.0) is None
        assert build_scheduler(POLICY_FIFO, rate_per_s=None) is None

    def test_builds_requested_policy(self):
        sched = build_scheduler(POLICY_HYBRID, rate_per_s=10.0, burst=5.0)
        assert isinstance(sched, AdmissionScheduler)
        assert sched.policy == POLICY_HYBRID

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError):
            AdmissionScheduler("round-robin", rate_per_s=10.0)
        with pytest.raises(ConfigurationError):
            build_scheduler("round-robin", rate_per_s=10.0)


FRAME = LocalFrame(GeoPoint(40.1000, -88.2200))


def _make_service(**kwargs):
    service = AuditorService(
        FRAME, ":memory:",
        encryption_key=generate_rsa_keypair(512, rng=random.Random(606)),
        **kwargs)
    center = FRAME.to_geo(0.0, 0.0)
    service.register_zone(NoFlyZone(center.lat, center.lon, 50.0))
    return service


class TestServiceIntegration:
    @pytest.fixture()
    def service(self):
        service = _make_service(
            admission=AdmissionScheduler(POLICY_FAIR_SHARE,
                                         rate_per_s=100.0, burst=50.0,
                                         drone_rate_per_s=1.0,
                                         drone_burst=2.0))
        try:
            yield service
        finally:
            service.close()

    @staticmethod
    def _fleet(service):
        def register(operator_public, tee_public, name):
            return service.register_drone(DroneRegistrationRequest(
                operator_public_key=operator_public,
                tee_public_key=tee_public, operator_name=name), now=T0)

        return provision_fleet(register, drones=2, seed=9)

    def test_flooding_drone_shed_with_drone_reason(self, service):
        flooder, quiet = self._fleet(service)
        enc = service.public_encryption_key
        base = build_flight_submission(
            flooder, enc, frame=FRAME, flight_index=0, samples=3,
            start=T0 - 10.0, rng=random.Random(0))
        outcomes = [service.submit(base, now=T0 + 1.0,
                                   region=flooder.region).outcome
                    for _ in range(6)]
        # burst of 2 admits (one accepted, one dedup of the same bytes);
        # the rest are shed at the drone layer.
        assert outcomes.count("accepted") == 1
        assert outcomes.count("deduplicated") == 1
        assert outcomes.count("shed_rate_limited") == 4
        assert service.stats.shed_rate_limited == 4
        assert service.stats.admission_denied == {DENY_DRONE: 4}
        # The quiet drone is untouched by the flooder's denials.
        other = build_flight_submission(
            quiet, enc, frame=FRAME, flight_index=1, samples=3,
            start=T0 - 10.0, rng=random.Random(1))
        assert service.submit(other, now=T0 + 1.0,
                              region=quiet.region).outcome == "accepted"
        assert service.admission.stats.to_dict()["denied"] == 4
        assert "admission_denied" in service.stats.to_dict()
