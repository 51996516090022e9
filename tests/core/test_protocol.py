"""Tests for repro.core.protocol."""

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.protocol import (
    NONCE_LENGTH,
    PoaSubmission,
    ZoneQuery,
    ZoneResponse,
    generate_nonce,
    rect_bounds,
)
from repro.errors import ProtocolError
from repro.geo.geodesy import GeoPoint


class TestNonce:
    def test_length(self, rng):
        assert len(generate_nonce(rng)) == NONCE_LENGTH

    def test_uniqueness(self, rng):
        assert generate_nonce(rng) != generate_nonce(rng)


class TestZoneQuery:
    def test_create_and_verify(self, signing_key, rng):
        query = ZoneQuery.create("drone-1", GeoPoint(40.0, -88.3),
                                 GeoPoint(40.2, -88.1), signing_key, rng=rng)
        assert query.verify(signing_key.public_key)

    def test_wrong_key_fails(self, signing_key, other_key, rng):
        query = ZoneQuery.create("drone-1", GeoPoint(40.0, -88.3),
                                 GeoPoint(40.2, -88.1), signing_key, rng=rng)
        assert not query.verify(other_key.public_key)

    def test_tampered_nonce_fails(self, signing_key, rng):
        query = ZoneQuery.create("drone-1", GeoPoint(40.0, -88.3),
                                 GeoPoint(40.2, -88.1), signing_key, rng=rng)
        forged = ZoneQuery(drone_id=query.drone_id, corner_a=query.corner_a,
                           corner_b=query.corner_b,
                           nonce=bytes(NONCE_LENGTH),
                           signature=query.signature)
        assert not forged.verify(signing_key.public_key)

    def test_malformed_nonce_length_fails(self, signing_key, rng):
        query = ZoneQuery.create("drone-1", GeoPoint(40.0, -88.3),
                                 GeoPoint(40.2, -88.1), signing_key, rng=rng)
        forged = ZoneQuery(drone_id=query.drone_id, corner_a=query.corner_a,
                           corner_b=query.corner_b, nonce=b"short",
                           signature=query.signature)
        assert not forged.verify(signing_key.public_key)


class TestZoneResponse:
    def test_zone_list(self):
        zone = NoFlyZone(40.0, -88.0, 10.0)
        response = ZoneResponse(zones=(("zone-1", zone),))
        assert response.zone_list == [zone]


class TestPoaSubmission:
    def test_window_validation(self):
        with pytest.raises(ProtocolError):
            PoaSubmission(drone_id="d", flight_id="f", records=[],
                          claimed_start=10.0, claimed_end=5.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("end", ["start", "end"])
    def test_non_finite_window_rejected(self, bad, end):
        """NaN compares false, so it used to pass the order check and
        fail untyped in the store write, after admission."""
        window = {"claimed_start": 0.0, "claimed_end": 1.0}
        window["claimed_" + end] = bad
        with pytest.raises(ProtocolError, match="finite"):
            PoaSubmission(drone_id="d", flight_id="f", records=[], **window)

    def test_records_are_tuple(self):
        sub = PoaSubmission(drone_id="d", flight_id="f", records=[],
                            claimed_start=0.0, claimed_end=1.0)
        assert sub.records == ()


class TestRectBounds:
    def test_normalization(self):
        a, b = GeoPoint(40.5, -88.0), GeoPoint(40.0, -88.5)
        assert rect_bounds(a, b) == (40.0, -88.5, 40.5, -88.0)
