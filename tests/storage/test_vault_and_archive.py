"""Tests for the drone's PoA vault and the Auditor's restart round trip.

The Auditor's snapshot is its closed store file: every server test here
builds a file-backed :class:`AliDroneServer`, closes it and reopens it
over the same path.
"""

import contextlib
import random
import shutil
import sqlite3
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
from repro.errors import ConfigurationError, EncodingError
from repro.server.auditor import AliDroneServer
from repro.server.store import decode_records, encode_records
from repro.sim.clock import DEFAULT_EPOCH
from repro.storage import PoaVault

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
def populated_server(frame, signing_key, other_key, tmp_path):
    server = AliDroneServer(frame, store=tmp_path / "auditor.db",
                            rng=random.Random(6), encryption_key_bits=512)
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


def reopen(path, frame, seed):
    """A fresh server over a closed store; its own rng and key size go
    unused, because the store already holds the key."""
    return AliDroneServer(frame, store=path, rng=random.Random(seed),
                          encryption_key_bits=512)


def edit_store(path, sql, params=()):
    """Change a closed store's rows behind the server's back."""
    with contextlib.closing(sqlite3.connect(path)) as conn, conn:
        conn.execute(sql, params)


class TestServerArchive:
    def test_round_trip_preserves_everything(self, tmp_path, frame,
                                             populated_server):
        server, drone_id, zone_id = populated_server
        fines = server.ledger.total_fines(drone_id)
        key = server.public_encryption_key
        server.close()

        restored = reopen(tmp_path / "auditor.db", frame, 99)

        assert restored.store.get_drone(drone_id).drone_id == drone_id
        assert zone_id in restored.zones
        assert restored.public_encryption_key == key
        assert len(restored.retained_for(drone_id)) == 1
        assert restored.ledger.offences(drone_id) == 1
        assert restored.ledger.total_fines(drone_id) == fines

    def test_restored_server_adjudicates_identically(self, tmp_path, frame,
                                                     populated_server):
        server, drone_id, zone_id = populated_server
        incident = IncidentReport(zone_id=zone_id, drone_id=drone_id,
                                  incident_time=T0 + 2.5)
        original = server.handle_incident(incident)
        server.close()
        again = reopen(tmp_path / "auditor.db", frame, 98).handle_incident(
            incident)
        assert original.violation == again.violation

    def test_wrong_frame_rejected(self, tmp_path, populated_server):
        from repro.geo.geodesy import GeoPoint, LocalFrame
        server, _, _ = populated_server
        server.close()
        other_frame = LocalFrame(GeoPoint(30.0, -97.0))
        with pytest.raises(ConfigurationError):
            reopen(tmp_path / "auditor.db", other_frame, 1)

    def test_tampered_evidence_detected_on_restore(self, tmp_path, frame,
                                                   populated_server):
        """Editing a stored verdict, or the evidence it was reached on,
        fails the re-derivation check when the store is reopened."""
        server, _, _ = populated_server
        server.close()
        doctored = tmp_path / "auditor.db"
        corrupted = tmp_path / "corrupted.db"
        shutil.copyfile(doctored, corrupted)
        edit_store(doctored, "UPDATE verdicts SET status = 'bad_signature'"
                             " WHERE status = 'accepted'")
        with contextlib.closing(sqlite3.connect(corrupted)) as conn:
            (blob,) = conn.execute("SELECT records FROM submissions").fetchone()
        first, *rest = decode_records(blob)
        flipped = bytearray(first.ciphertext)
        flipped[7] ^= 0xFF
        edit_store(corrupted, "UPDATE submissions SET records = ?",
                   (encode_records([EncryptedPoaRecord(bytes(flipped),
                                                       first.signature),
                                    *rest]),))
        for path in (doctored, corrupted):
            with pytest.raises(EncodingError, match="does not reproduce"):
                reopen(path, frame, 2)

    def test_inconsistent_key_is_an_encoding_error(self, tmp_path, frame,
                                                   populated_server):
        """A key whose factors do not multiply to ``n`` is malformed input
        like any other, not a bare ``CryptoError``."""
        server, _, _ = populated_server
        server.close()
        bad_key = b"ADSK" + b"".join(
            struct.pack(">I", 1) + bytes([v]) for v in (15, 3, 3, 3, 7))
        edit_store(tmp_path / "auditor.db",
                   "UPDATE auditor SET private_key = ?", (bad_key,))
        with pytest.raises(EncodingError):
            reopen(tmp_path / "auditor.db", frame, 4)

    def test_garbage_file_rejected(self, tmp_path, frame):
        path = tmp_path / "junk.db"
        path.write_text("{definitely not a database")
        with pytest.raises(EncodingError):
            reopen(path, frame, 3)


@pytest.mark.parametrize("scheme", scheme_ids())
def test_snapshot_restores_every_scheme(tmp_path, frame, signing_key,
                                        other_key, scheme):
    """Retained evidence keeps its scheme and finalizer, so a reopened
    store holding any scheme's accepted PoA adjudicates identically."""
    path = tmp_path / "auditor.db"
    server = AliDroneServer(frame, store=path, rng=random.Random(6),
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

    incident = IncidentReport(zone_id=zone_id, drone_id=drone_id,
                              incident_time=T0 + 2.5)
    finding = server.handle_incident(incident)
    server.close()
    restored = reopen(path, frame, 97)
    assert len(restored.retained_for(drone_id)) == 1
    assert restored.handle_incident(incident) == finding
