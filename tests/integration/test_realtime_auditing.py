"""Integration: real-time auditing over the radio (the §IV-B alternative).

A drone streams its encrypted PoA entries live; the Auditor endpoint
reassembles them, converts the completed stream into a standard
submission, and the server verifies it the moment the flight ends — no
post-flight upload step.
"""

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import encrypt_poa
from repro.core.protocol import (
    DroneRegistrationRequest,
    ZoneRegistrationRequest,
)
from repro.core.verification import VerificationStatus
from repro.crypto.schemes import SCHEME_RSA, scheme_ids
from repro.drone.client import AliDroneClient
from repro.errors import ProtocolError
from repro.gps.receiver import SimulatedGpsReceiver
from repro.gps.replay import WaypointSource
from repro.net.link import SimulatedLink
from repro.net.streaming import StreamingAuditorEndpoint, StreamingUploader
from repro.server.auditor import AliDroneServer
from repro.sim.clock import DEFAULT_EPOCH, SimClock
from repro.workloads.fleet import build_flight_submission, provision_fleet

T0 = DEFAULT_EPOCH


@pytest.fixture()
def streamed_world(frame, make_device):
    server = AliDroneServer(frame, rng=random.Random(61),
                            encryption_key_bits=512)
    center = frame.to_geo(300.0, 90.0)
    server.register_zone(ZoneRegistrationRequest(
        zone=NoFlyZone(center.lat, center.lon, 25.0),
        proof_of_ownership="deed"))
    source = WaypointSource([(T0, 0.0, 0.0), (T0 + 60.0, 600.0, 0.0)])
    device = make_device(seed=62)
    clock = SimClock(T0)
    receiver = SimulatedGpsReceiver(source, frame, update_rate_hz=5.0,
                                    start_time=T0, seed=3)
    device.attach_gps(receiver, clock)
    client = AliDroneClient(device, receiver, clock, frame,
                            rng=random.Random(63))
    drone_id = client.register(server)
    zone = NoFlyZone(center.lat, center.lon, 25.0)
    record = client.fly(T0 + 60.0, policy="adaptive", zones=[zone])
    return server, client, drone_id, record


def stream_records(records, flight_id, loss=0.1, seed=9,
                   scheme=SCHEME_RSA, finalizer=b""):
    uplink = SimulatedLink(latency_s=0.02, jitter_s=0.0,
                           loss_probability=loss, seed=seed)
    downlink = SimulatedLink(latency_s=0.02, jitter_s=0.0)
    uploader = StreamingUploader(uplink, downlink, flight_id,
                                 retransmit_timeout_s=0.3)
    endpoint = StreamingAuditorEndpoint(uplink, downlink)
    t = 0.0
    uploader.begin_flight(t)
    for i, record in enumerate(records):
        t = (i + 1) * 0.2
        uploader.push(record, t)
        endpoint.poll(t)
        uploader.poll(t)
    uploader.end_flight(t, scheme, finalizer)
    while not (endpoint.complete and uploader.fully_acked):
        t += 0.2
        endpoint.poll(t)
        uploader.poll(t)
    return endpoint


class TestRealtimeAuditing:
    def test_streamed_flight_verifies_on_arrival(self, streamed_world):
        server, client, drone_id, record = streamed_world
        records = encrypt_poa(record.poa, server.public_encryption_key,
                              rng=random.Random(64))
        endpoint = stream_records(records, record.flight_id)
        submission = endpoint.to_submission(
            drone_id, record.result.stats.start_time,
            record.result.stats.end_time)
        report = server.receive_poa(submission)
        assert report.status is VerificationStatus.ACCEPTED
        assert len(server.retained_for(drone_id)) == 1

    def test_incomplete_stream_cannot_build_submission(self, streamed_world):
        server, client, drone_id, record = streamed_world
        records = encrypt_poa(record.poa, server.public_encryption_key,
                              rng=random.Random(65))
        uplink = SimulatedLink(latency_s=0.02)
        downlink = SimulatedLink(latency_s=0.02)
        uploader = StreamingUploader(uplink, downlink, record.flight_id)
        endpoint = StreamingAuditorEndpoint(uplink, downlink)
        uploader.begin_flight(0.0)
        uploader.push(records[0], 0.1)
        endpoint.poll(0.5)   # FLIGHT_END never sent
        with pytest.raises(ProtocolError):
            endpoint.to_submission(drone_id, T0, T0 + 60.0)

    def test_streamed_equals_deferred_verdict(self, streamed_world):
        """Real-time and store-and-upload yield identical verdicts."""
        server, client, drone_id, record = streamed_world
        deferred_report = client.submit_poa(server, record)
        records = encrypt_poa(record.poa, server.public_encryption_key,
                              rng=random.Random(66))
        endpoint = stream_records(records, record.flight_id + "-rt")
        streamed_report = server.receive_poa(endpoint.to_submission(
            drone_id, record.result.stats.start_time,
            record.result.stats.end_time))
        assert streamed_report.status == deferred_report.status


class TestStreamedSchemes:
    @pytest.mark.parametrize("scheme", scheme_ids())
    def test_streamed_verdict_equals_uploaded(self, frame, scheme):
        """FLIGHT_END carries the flight's scheme and finalizer, so a
        streamed flight is audited under its own scheme."""
        server = AliDroneServer(frame, rng=random.Random(71),
                                encryption_key_bits=512)
        center = frame.to_geo(0.0, 0.0)
        server.register_zone(ZoneRegistrationRequest(
            zone=NoFlyZone(center.lat, center.lon, 50.0),
            proof_of_ownership="deed"))
        (drone,) = provision_fleet(
            lambda operator, tee, name: server.register_drone(
                DroneRegistrationRequest(operator_public_key=operator,
                                         tee_public_key=tee,
                                         operator_name=name)),
            drones=1, seed=7)
        uploaded = build_flight_submission(
            drone, server.public_encryption_key, frame=frame,
            flight_index=0, samples=6, start=T0, rng=random.Random(72),
            scheme=scheme)
        endpoint = stream_records(uploaded.records,
                                  uploaded.flight_id + "-rt",
                                  scheme=uploaded.scheme,
                                  finalizer=uploaded.finalizer)
        streamed = endpoint.to_submission(drone.drone_id,
                                          uploaded.claimed_start,
                                          uploaded.claimed_end)
        uploaded_report = server.receive_poa(uploaded, now=T0 + 10.0)
        streamed_report = server.receive_poa(streamed, now=T0 + 10.0)
        assert server.service.stats.deduplicated == 0
        assert uploaded_report.status is VerificationStatus.ACCEPTED
        assert streamed_report.status is uploaded_report.status


class TestLiveIncrementalVerification:
    def test_verify_during_flight(self, streamed_world):
        """The streamed records, opened one by one as they arrive, are one
        flight that the staged pipeline accepts."""
        from repro.core.poa import ProofOfAlibi, SignedSample
        from repro.core.verification import PoaVerifier
        from repro.crypto import envelope

        server, client, drone_id, record = streamed_world
        zones = [r.zone for r in server.zones.all_zones()]
        records = encrypt_poa(record.poa, server.public_encryption_key,
                              rng=random.Random(67))
        endpoint = stream_records(records, record.flight_id)
        streamed = endpoint.records()
        sealed = envelope.parse([r.ciphertext for r in streamed],
                                server.engine.encryption_key.byte_length)
        # One unwrap for the flight; each record then opens on its own.
        key = envelope.unwrap(server.engine.encryption_key, sealed.wrapped_key)
        entries = [SignedSample(payload=envelope.open_record(key, body),
                                signature=entry.signature)
                   for body, entry in zip(sealed.records, streamed)]
        report = PoaVerifier(server.frame).verify(
            ProofOfAlibi(entries), client.device.tee_public_key, zones)
        assert report.status is VerificationStatus.ACCEPTED

    def test_incremental_catches_mid_stream_tamper(self, streamed_world):
        """One forged entry mid-stream rejects the whole flight, and the
        report names exactly that entry."""
        from repro.core.poa import SignedSample
        from repro.core.verification import PoaVerifier, RejectionReason

        server, client, drone_id, record = streamed_world
        zones = [r.zone for r in server.zones.all_zones()]
        entries = list(record.poa.entries)
        middle = len(entries) // 2
        entries[middle] = SignedSample(
            payload=entries[middle].payload,
            signature=bytes(len(entries[middle].signature)))
        report = PoaVerifier(server.frame).verify(
            record.poa.replace_entries(entries),
            client.device.tee_public_key, zones)
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE
        assert report.reason is RejectionReason.BAD_SIGNATURE
        assert report.bad_signature_indices == [middle]
