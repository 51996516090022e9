"""Tests for NFZ deregistration/update and the pre-flight plan check."""

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.protocol import DroneRegistrationRequest
from repro.core.verification import PoaVerifier, VerificationStatus
from repro.crypto.rsa import generate_rsa_keypair
from repro.drone.flightplan import FlightPlan
from repro.errors import RegistrationError
from repro.server.database import NfzDatabase
from repro.server.engine import AuditEngine
from repro.server.service import AuditorService
from repro.server.store import FlightStore
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import (
    TRACE_OFFSET_M,
    FleetDrone,
    build_flight_submission,
    provision_fleet,
)


def zone_at(frame, x, y, r):
    center = frame.to_geo(x, y)
    return NoFlyZone(center.lat, center.lon, r)


class TestZoneLifecycle:
    def test_deregister_removes_from_queries(self, frame):
        db = NfzDatabase(frame)
        record = db.register(zone_at(frame, 100, 100, 20.0),
                             proof_of_ownership="deed")
        assert db.query_rect(frame.to_geo(0, 0), frame.to_geo(200, 200))
        removed = db.deregister(record.zone_id)
        assert removed.zone_id == record.zone_id
        assert record.zone_id not in db
        assert not db.query_rect(frame.to_geo(0, 0), frame.to_geo(200, 200))

    def test_deregister_unknown_rejected(self, frame):
        with pytest.raises(RegistrationError):
            NfzDatabase(frame).deregister("zone-999")

    def test_update_moves_zone(self, frame):
        db = NfzDatabase(frame)
        record = db.register(zone_at(frame, 100, 100, 20.0),
                             owner_name="alice", proof_of_ownership="deed")
        db.update(record.zone_id, zone_at(frame, 5_000, 5_000, 20.0))
        assert not db.query_rect(frame.to_geo(0, 0), frame.to_geo(200, 200))
        hits = db.query_rect(frame.to_geo(4_900, 4_900),
                             frame.to_geo(5_100, 5_100))
        assert [r.zone_id for r in hits] == [record.zone_id]
        # Ownership metadata preserved.
        assert db.lookup(record.zone_id).owner_name == "alice"

    def test_update_unknown_rejected(self, frame):
        with pytest.raises(RegistrationError):
            NfzDatabase(frame).update("zone-404",
                                      zone_at(frame, 0, 0, 1.0))

    def test_identical_registration_is_idempotent(self, frame):
        db = NfzDatabase(frame)
        zone = zone_at(frame, 100, 100, 20.0)
        first = db.register(zone, owner_name="alice", proof_of_ownership="d")
        zones = db.zone_set()
        again = db.register(zone, owner_name="alice", proof_of_ownership="d")
        assert again == first
        assert db.zone_set() is zones          # the engine's index stays valid
        assert len(db.store.load_zones()) == 1
        other = db.register(zone, owner_name="bob", proof_of_ownership="d")
        assert other.zone_id != first.zone_id
        assert len(db) == 2

    def test_changes_survive_reopen(self, frame, tmp_path):
        path = tmp_path / "zones.db"
        with FlightStore(path) as store:
            db = NfzDatabase(frame, store)
            kept = db.register(zone_at(frame, 0, 0, 5.0), owner_name="alice",
                               proof_of_ownership="d")
            gone = db.register(zone_at(frame, 50, 0, 5.0),
                               proof_of_ownership="d")
            db.update(kept.zone_id, zone_at(frame, 5_000, 5_000, 20.0))
            db.deregister(gone.zone_id)
        with FlightStore(path) as store:
            db = NfzDatabase(frame, store)
            assert [r.zone_id for r in db.all_zones()] == [kept.zone_id]
            moved = db.lookup(kept.zone_id)
            assert moved.owner_name == "alice"
            assert moved.zone == zone_at(frame, 5_000, 5_000, 20.0)
            fresh = db.register(zone_at(frame, 50, 0, 5.0),
                                proof_of_ownership="d")
            assert fresh.zone_id not in (kept.zone_id, gone.zone_id)

    def test_id_not_reused_after_deregister(self, frame):
        db = NfzDatabase(frame)
        first = db.register(zone_at(frame, 0, 0, 5.0),
                            proof_of_ownership="d")
        db.deregister(first.zone_id)
        second = db.register(zone_at(frame, 0, 0, 5.0),
                             proof_of_ownership="d")
        assert second.zone_id != first.zone_id


class TestPreFlightCheck:
    def test_clear_plan_is_compliant(self, frame):
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(500, 0)])
        zones = [zone_at(frame, 250, 300, 40.0)]
        assert plan.is_compliant(zones, frame)
        assert plan.min_zone_clearance(zones, frame) == pytest.approx(
            260.0, abs=1.0)

    def test_crossing_plan_is_not(self, frame):
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(500, 0)])
        zones = [zone_at(frame, 250, 0, 40.0)]
        assert not plan.is_compliant(zones, frame)
        assert plan.min_zone_clearance(zones, frame) < 0

    def test_clearance_threshold(self, frame):
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(500, 0)])
        zones = [zone_at(frame, 250, 100, 40.0)]  # 60 m clearance
        assert plan.is_compliant(zones, frame, clearance_m=50.0)
        assert not plan.is_compliant(zones, frame, clearance_m=70.0)

    def test_no_zones_infinite_clearance(self, frame):
        import math
        plan = FlightPlan([frame.to_geo(0, 0), frame.to_geo(10, 0)])
        assert plan.min_zone_clearance([], frame) == math.inf


class TestZoneChangesReachTheNextDrain:
    """The engines reuse their zone index while the zone set is unchanged.

    A mutator that forgot to drop the database's memoized zone tuple
    would keep the engines judging against the old zones: an ACCEPTED
    flight through a zone just moved onto its path, a false accept.
    """

    T0 = DEFAULT_EPOCH

    def flight(self, service, drone, frame, index):
        return build_flight_submission(
            drone, service.public_encryption_key, frame=frame,
            flight_index=index, samples=4, start=self.T0 + 100.0 * index,
            rng=random.Random(index))

    def audit(self, service, submission, now):
        service.submit(submission, now=now)
        (record,) = service.drain(now=now + 1.0)
        return record.outcome.report.status.value

    def test_update_and_deregister_reach_the_next_drain(self, frame):
        service = AuditorService(
            frame, ":memory:",
            encryption_key=generate_rsa_keypair(512, rng=random.Random(41)))
        (drone,) = provision_fleet(
            lambda operator, tee, name: service.register_drone(
                DroneRegistrationRequest(operator_public_key=operator,
                                         tee_public_key=tee,
                                         operator_name=name)),
            drones=1, seed=41)
        engine = service.engines[0]
        zone_id = service.register_zone(zone_at(frame, 5_000, 5_000, 50.0))

        assert self.audit(service, self.flight(service, drone, frame, 0),
                          self.T0 + 10.0) == "accepted"
        assert engine.zone_index_builds == 1
        assert self.audit(service, self.flight(service, drone, frame, 1),
                          self.T0 + 110.0) == "accepted"
        assert engine.zone_index_builds == 1  # no mutation, no rebuild

        service.zones.update(zone_id, zone_at(frame, TRACE_OFFSET_M + 20.0,
                                              0.0, 100.0))
        assert self.audit(service, self.flight(service, drone, frame, 2),
                          self.T0 + 210.0) != "accepted"
        assert engine.zone_index_builds == 2

        service.zones.deregister(zone_id)
        assert self.audit(service, self.flight(service, drone, frame, 3),
                          self.T0 + 310.0) == "accepted"
        assert engine.zone_index_builds == 3
        assert self.audit(service, self.flight(service, drone, frame, 4),
                          self.T0 + 410.0) == "accepted"
        assert engine.zone_index_builds == 3

    def test_list_mutated_in_place_rebuilds_the_index(self, frame,
                                                      signing_key,
                                                      other_key):
        """Identity reuse is for tuples only: one list object whose
        contents change between batches is keyed by its contents."""
        drone = FleetDrone(drone_id="drone-0", tee_key=signing_key,
                           operator_key=signing_key, region="region-0")
        zones = [zone_at(frame, 5_000, 5_000, 50.0)]
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda drone_id: signing_key.public_key,
            encryption_key=other_key, zones_provider=lambda: zones)
        submission = build_flight_submission(
            drone, other_key.public_key, frame=frame, flight_index=0,
            samples=4, start=self.T0, rng=random.Random(7))

        (first,) = engine.audit_batch([submission]).reports
        assert first.status is VerificationStatus.ACCEPTED
        zones[0] = zone_at(frame, TRACE_OFFSET_M + 20.0, 0.0, 100.0)
        (second,) = engine.audit_batch([submission]).reports
        assert second.status is not VerificationStatus.ACCEPTED
        assert engine.zone_index_builds == 2
