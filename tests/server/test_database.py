"""Tests for the Auditor's registries: drones (the store) and NFZs."""

import pytest

from repro.core.nfz import NoFlyZone
from repro.errors import RegistrationError
from repro.server.database import NfzDatabase
from repro.server.store import FlightStore


class TestDroneRegistry:
    """The durable :class:`FlightStore` is the one drone registry."""

    def test_register_and_lookup(self, signing_key, other_key):
        registry = FlightStore(":memory:")
        drone_id = registry.register_drone(signing_key.public_key,
                                           other_key.public_key, "op")
        assert drone_id == "drone-000001"
        record = registry.get_drone(drone_id)
        assert record.operator_public_key == signing_key.public_key
        assert record.tee_public_key == other_key.public_key
        assert record.operator_name == "op"
        assert registry.drone_count() == 1

    def test_sequential_ids(self, signing_key, other_key, vendor_key):
        registry = FlightStore(":memory:")
        a = registry.register_drone(signing_key.public_key,
                                    other_key.public_key)
        b = registry.register_drone(signing_key.public_key,
                                    vendor_key.public_key)
        assert a != b

    def test_duplicate_tee_key_rejected(self, signing_key, other_key):
        """One physical TEE = one license plate."""
        registry = FlightStore(":memory:")
        registry.register_drone(signing_key.public_key, other_key.public_key)
        with pytest.raises(RegistrationError):
            registry.register_drone(signing_key.public_key,
                                    other_key.public_key)

    def test_same_operator_key_many_drones_allowed(self, signing_key,
                                                   other_key, vendor_key):
        """One operator can own a fleet (distinct TEEs)."""
        registry = FlightStore(":memory:")
        registry.register_drone(signing_key.public_key, other_key.public_key)
        registry.register_drone(signing_key.public_key, vendor_key.public_key)
        assert registry.drone_count() == 2

    def test_unknown_lookup_rejected(self):
        with pytest.raises(RegistrationError):
            FlightStore(":memory:").get_drone("drone-999999")


class TestNfzDatabase:
    def zone_at(self, frame, x, y, r):
        center = frame.to_geo(x, y)
        return NoFlyZone(center.lat, center.lon, r)

    def test_register_requires_ownership_proof(self, frame):
        db = NfzDatabase(frame)
        with pytest.raises(RegistrationError):
            db.register(self.zone_at(frame, 0, 0, 10.0))

    def test_register_and_lookup(self, frame):
        db = NfzDatabase(frame)
        record = db.register(self.zone_at(frame, 0, 0, 10.0),
                             owner_name="alice", proof_of_ownership="deed")
        assert db.lookup(record.zone_id).owner_name == "alice"
        assert record.zone_id in db
        assert len(db) == 1

    def test_unknown_lookup_rejected(self, frame):
        with pytest.raises(RegistrationError):
            NfzDatabase(frame).lookup("zone-404")

    def test_query_rect_hits(self, frame):
        db = NfzDatabase(frame)
        inside = db.register(self.zone_at(frame, 100, 100, 20.0),
                             proof_of_ownership="deed")
        db.register(self.zone_at(frame, 9_000, 9_000, 20.0),
                    proof_of_ownership="deed")
        hits = db.query_rect(frame.to_geo(0, 0), frame.to_geo(500, 500))
        assert [r.zone_id for r in hits] == [inside.zone_id]

    def test_query_rect_corner_order_irrelevant(self, frame):
        db = NfzDatabase(frame)
        record = db.register(self.zone_at(frame, 100, 100, 20.0),
                             proof_of_ownership="deed")
        hits = db.query_rect(frame.to_geo(500, 500), frame.to_geo(0, 0))
        assert [r.zone_id for r in hits] == [record.zone_id]

    def test_zone_overlapping_rect_edge_included(self, frame):
        db = NfzDatabase(frame)
        # Zone centre outside the rect, but its circle pokes in.
        record = db.register(self.zone_at(frame, 510, 250, 30.0),
                             proof_of_ownership="deed")
        hits = db.query_rect(frame.to_geo(0, 0), frame.to_geo(500, 500))
        assert [r.zone_id for r in hits] == [record.zone_id]

    def test_all_zones(self, frame):
        db = NfzDatabase(frame)
        db.register(self.zone_at(frame, 0, 0, 5.0), proof_of_ownership="d")
        db.register(self.zone_at(frame, 50, 0, 5.0), proof_of_ownership="d")
        assert len(list(db.all_zones())) == 2
