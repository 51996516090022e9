"""Tests for repro.storage: the PoA vault and server snapshots."""

import json
import random
import struct

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import (
    EncryptedPoaRecord,
    ProofOfAlibi,
    SignedSample,
    encrypt_poa,
)
from repro.core.protocol import (
    DroneRegistrationRequest,
    IncidentReport,
    PoaSubmission,
    ZoneRegistrationRequest,
)
from repro.core.samples import GpsSample
from repro.core.verification import VerificationStatus
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.crypto.schemes import authenticate_payloads, scheme_ids
from repro.errors import EncodingError
from repro.server.auditor import AliDroneServer
from repro.sim.clock import DEFAULT_EPOCH
from repro.storage import PoaVault, load_server_state, save_server_state

T0 = DEFAULT_EPOCH


def record(i: int) -> EncryptedPoaRecord:
    return EncryptedPoaRecord(ciphertext=bytes([i]) * 32,
                              signature=bytes([i + 1]) * 32)


class TestPoaVault:
    def test_store_and_load(self, tmp_path):
        vault = PoaVault(tmp_path / "vault")
        records = [record(i) for i in range(5)]
        vault.store("flight-1", "adaptive", T0, T0 + 60.0, records)
        entry = vault.load("flight-1")
        assert entry.policy == "adaptive"
        assert entry.records == tuple(records)
        assert entry.claimed_end == T0 + 60.0

    def test_overwrite_refused(self, tmp_path):
        vault = PoaVault(tmp_path)
        vault.store("flight-1", "adaptive", T0, T0 + 1, [record(0)])
        with pytest.raises(EncodingError):
            vault.store("flight-1", "adaptive", T0, T0 + 1, [record(0)])

    def test_missing_flight(self, tmp_path):
        with pytest.raises(EncodingError):
            PoaVault(tmp_path).load("nope")

    def test_flight_listing_sorted(self, tmp_path):
        vault = PoaVault(tmp_path)
        for fid in ("b-flight", "a-flight"):
            vault.store(fid, "fixed-2hz", T0, T0 + 1, [record(1)])
        assert vault.flights() == ["a-flight", "b-flight"]

    def test_corrupt_file_skipped_in_listing(self, tmp_path):
        vault = PoaVault(tmp_path)
        vault.store("good", "adaptive", T0, T0 + 1, [record(1)])
        (tmp_path / "bad.poa.json").write_text("{not json")
        assert vault.flights() == ["good"]
        with pytest.raises(EncodingError):
            vault.load("bad")

    def test_unsafe_flight_ids_sanitized(self, tmp_path):
        vault = PoaVault(tmp_path)
        path = vault.store("../../etc/passwd", "adaptive", T0, T0 + 1,
                           [record(1)])
        assert path.parent == tmp_path
        assert vault.load("../../etc/passwd").records == (record(1),)

    def test_delete(self, tmp_path):
        vault = PoaVault(tmp_path)
        vault.store("f", "adaptive", T0, T0 + 1, [record(1)])
        vault.delete("f")
        assert vault.flights() == []
        with pytest.raises(EncodingError):
            vault.delete("f")


@pytest.fixture()
def populated_server(frame, signing_key, other_key):
    server = AliDroneServer(frame, rng=random.Random(6),
                            encryption_key_bits=512)
    drone_id = server.register_drone(DroneRegistrationRequest(
        operator_public_key=other_key.public_key,
        tee_public_key=signing_key.public_key, operator_name="op"))
    center = frame.to_geo(0.0, 0.0)
    zone_id = server.register_zone(ZoneRegistrationRequest(
        zone=NoFlyZone(center.lat, center.lon, 50.0),
        proof_of_ownership="deed", owner_name="alice"))

    entries = []
    for i in range(6):
        point = frame.to_geo(200.0 + 20.0 * i, 0.0)
        sample = GpsSample(lat=point.lat, lon=point.lon, t=T0 + i)
        payload = sample.to_signed_payload()
        entries.append(SignedSample(
            payload=payload, signature=sign_pkcs1_v15(signing_key, payload)))
    poa = ProofOfAlibi(entries)
    records = encrypt_poa(poa, server.public_encryption_key,
                          rng=random.Random(7))
    server.receive_poa(PoaSubmission(drone_id=drone_id, flight_id="f-1",
                                     records=records, claimed_start=T0,
                                     claimed_end=T0 + 5.0))
    # One adjudicated violation for the ledger.
    server.handle_incident(IncidentReport(zone_id=zone_id,
                                          drone_id=drone_id,
                                          incident_time=T0 + 9999.0))
    return server, drone_id, zone_id


class TestServerArchive:
    def test_round_trip_preserves_everything(self, tmp_path, frame,
                                             populated_server):
        server, drone_id, zone_id = populated_server
        path = tmp_path / "server.json"
        save_server_state(server, path)

        restored = AliDroneServer(frame, rng=random.Random(99),
                                  encryption_key_bits=512)
        load_server_state(path, restored)

        assert restored.store.get_drone(drone_id).drone_id == drone_id
        assert zone_id in restored.zones
        assert restored.public_encryption_key == server.public_encryption_key
        assert len(restored.retained_for(drone_id)) == 1
        assert restored.ledger.offences(drone_id) == 1
        assert restored.ledger.total_fines(drone_id) == (
            server.ledger.total_fines(drone_id))

    def test_restored_server_adjudicates_identically(self, tmp_path, frame,
                                                     populated_server):
        server, drone_id, zone_id = populated_server
        path = tmp_path / "server.json"
        save_server_state(server, path)
        restored = load_server_state(
            path, AliDroneServer(frame, rng=random.Random(98),
                                 encryption_key_bits=512))
        original = server.handle_incident(IncidentReport(
            zone_id=zone_id, drone_id=drone_id, incident_time=T0 + 2.5))
        again = restored.handle_incident(IncidentReport(
            zone_id=zone_id, drone_id=drone_id, incident_time=T0 + 2.5))
        assert original.violation == again.violation

    def test_wrong_frame_rejected(self, tmp_path, populated_server):
        from repro.geo.geodesy import GeoPoint, LocalFrame
        server, _, _ = populated_server
        path = tmp_path / "server.json"
        save_server_state(server, path)
        other = AliDroneServer(LocalFrame(GeoPoint(30.0, -97.0)),
                               rng=random.Random(1),
                               encryption_key_bits=512)
        with pytest.raises(EncodingError):
            load_server_state(path, other)

    def test_tampered_evidence_detected_on_restore(self, tmp_path, frame,
                                                   populated_server):
        """Editing a stored verdict (or evidence) fails the re-verification
        cross-check at load time."""
        server, _, _ = populated_server
        path = tmp_path / "server.json"
        save_server_state(server, path)
        document = json.loads(path.read_text())
        document["retained"][0]["status"] = "insufficient"  # doctor verdict
        path.write_text(json.dumps(document))
        with pytest.raises(EncodingError):
            load_server_state(path, AliDroneServer(
                frame, rng=random.Random(2), encryption_key_bits=512))

    def test_inconsistent_key_is_an_encoding_error(self, tmp_path, frame,
                                                   populated_server):
        """A key whose factors do not multiply to ``n`` is malformed input
        like any other, not a bare ``CryptoError``."""
        server, _, _ = populated_server
        path = tmp_path / "server.json"
        save_server_state(server, path)
        document = json.loads(path.read_text())
        document["encryption_key"] = (b"ADSK" + b"".join(
            struct.pack(">I", 1) + bytes([v]) for v in (15, 3, 3, 3, 7))).hex()
        path.write_text(json.dumps(document))
        with pytest.raises(EncodingError):
            load_server_state(path, AliDroneServer(
                frame, rng=random.Random(4), encryption_key_bits=512))

    def test_garbage_file_rejected(self, tmp_path, frame):
        path = tmp_path / "junk.json"
        path.write_text("{definitely not json")
        with pytest.raises(EncodingError):
            load_server_state(path, AliDroneServer(
                frame, rng=random.Random(3), encryption_key_bits=512))


@pytest.mark.parametrize("scheme", scheme_ids())
def test_snapshot_restores_every_scheme(tmp_path, frame, signing_key,
                                        other_key, scheme):
    """Retained evidence keeps its scheme and finalizer, so a snapshot of
    any scheme's accepted PoA restores and adjudicates identically."""
    server = AliDroneServer(frame, rng=random.Random(6),
                            encryption_key_bits=512)
    drone_id = server.register_drone(DroneRegistrationRequest(
        operator_public_key=other_key.public_key,
        tee_public_key=signing_key.public_key, operator_name="op"))
    center = frame.to_geo(0.0, 0.0)
    zone_id = server.register_zone(ZoneRegistrationRequest(
        zone=NoFlyZone(center.lat, center.lon, 50.0),
        proof_of_ownership="deed", owner_name="alice"))
    payloads = []
    for i in range(6):
        point = frame.to_geo(200.0 + 20.0 * i, 0.0)
        payloads.append(GpsSample(lat=point.lat, lon=point.lon,
                                  t=T0 + i).to_signed_payload())
    blobs, finalizer = authenticate_payloads(signing_key, payloads, scheme,
                                             rng=random.Random(8))
    poa = ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=scheme)
         for payload, blob in zip(payloads, blobs)),
        scheme=scheme, finalizer=finalizer)
    report = server.receive_poa(PoaSubmission(
        drone_id=drone_id, flight_id="f-1",
        records=encrypt_poa(poa, server.public_encryption_key,
                            rng=random.Random(7)),
        claimed_start=T0, claimed_end=T0 + 5.0,
        scheme=scheme, finalizer=finalizer))
    assert report.status is VerificationStatus.ACCEPTED

    path = tmp_path / "server.json"
    save_server_state(server, path)
    restored = load_server_state(path, AliDroneServer(
        frame, rng=random.Random(97), encryption_key_bits=512))
    assert len(restored.retained_for(drone_id)) == 1
    incident = IncidentReport(zone_id=zone_id, drone_id=drone_id,
                              incident_time=T0 + 2.5)
    assert (restored.handle_incident(incident)
            == server.handle_incident(incident))
