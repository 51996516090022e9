"""The AliDrone Server as a front-end over the durable auditor service.

Intake is ``AuditorService.submit`` + ``drain``; the service's store is
the one drone registry and evidence ledger that retention, re-uploads
and recovery all read, and the state a restarted server reopens.
"""

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import EncryptedPoaRecord
from repro.core.protocol import (
    DroneRegistrationRequest,
    IncidentReport,
    PoaSubmission,
    ZoneQuery,
    ZoneRegistrationRequest,
)
from repro.core.verification import VerificationStatus
from repro.errors import AuthenticationError, RegistrationError
from repro.server.auditor import AliDroneServer
from repro.sim.clock import DEFAULT_EPOCH
from tests.server.test_auditor import make_submission

T0 = DEFAULT_EPOCH


@pytest.fixture()
def server(frame):
    return AliDroneServer(frame, rng=random.Random(7),
                          encryption_key_bits=512)


@pytest.fixture()
def registered(server, signing_key, other_key):
    return server.register_drone(DroneRegistrationRequest(
        operator_public_key=other_key.public_key,
        tee_public_key=signing_key.public_key, operator_name="op"))


class TestReupload:
    def test_byte_identical_reupload_returns_stored_verdict(
            self, server, frame, registered, signing_key):
        submission = make_submission(server, frame, signing_key, registered)
        first = server.receive_poa(submission, now=T0)
        again = server.receive_poa(make_submission(
            server, frame, signing_key, registered), now=T0 + 60.0)
        assert again == first
        assert first.status is VerificationStatus.ACCEPTED
        assert len(server.retained_for(registered)) == 1
        assert server.service.stats.deduplicated == 1
        assert server.service.stats.audited == 1

    def test_reupload_from_unknown_drone_raises_both_times(
            self, server, frame, signing_key):
        submission = make_submission(server, frame, signing_key,
                                     "drone-404404")
        for _ in range(2):
            with pytest.raises(RegistrationError):
                server.receive_poa(submission, now=T0)
        assert server.service.stats.deduplicated == 1
        assert server.retained_for("drone-404404") == []


class TestRetention:
    def test_purge_boundary_is_inclusive(self, server, frame, registered,
                                         signing_key):
        older = make_submission(server, frame, signing_key, registered,
                                flight="f-old")
        newer = make_submission(server, frame, signing_key, registered,
                                flight="f-new", t_offset=20.0)
        server.receive_poa(older, now=T0)
        server.receive_poa(newer, now=T0 + 10.0)
        # The newer row was received exactly retention_s ago: kept.
        assert server.purge_expired(T0 + 10.0 + server.retention_s) == 1
        (kept,) = server.retained_for(registered)
        assert kept.submission.flight_id == "f-new"

    def test_undecryptable_upload_is_not_evidence(self, server, registered):
        garbage = PoaSubmission(
            drone_id=registered, flight_id="f",
            records=[EncryptedPoaRecord(ciphertext=b"\x00" * 64,
                                        signature=b"\x00" * 64)],
            claimed_start=T0, claimed_end=T0 + 1)
        report = server.receive_poa(garbage, now=T0)
        assert report.status is VerificationStatus.REJECTED_MALFORMED
        assert server.retained_for(registered) == []
        assert server.purge_expired(T0 + server.retention_s + 1.0) == 0
        assert server.store.submission_count() == 0

    def test_purge_never_drops_unaudited_rows(self, server, frame,
                                              registered, signing_key):
        # A stored row whose audit never ran, as a crash leaves it.
        seq, _ = server.store.put_submission(
            make_submission(server, frame, signing_key, registered),
            received_at=T0)
        assert server.purge_expired(T0 + server.retention_s + 1.0) == 0
        assert server.store.pending_count() == 1
        assert server.service.recover(now=T0 + server.retention_s + 2.0) == 1
        verdict = server.store.get_verdict(seq)
        assert verdict.status == VerificationStatus.ACCEPTED.value


class TestBatchIntake:
    def test_batch_larger_than_queue_keeps_input_order(
            self, server, frame, registered, signing_key):
        server.service.queue_capacity = 2
        submissions = [
            make_submission(server, frame, signing_key, registered,
                            flight=f"f-{i}", t_offset=20.0 * i)
            for i in range(5)]
        result = server.receive_poa_batch(submissions, now=T0)
        assert [o.submission.flight_id for o in result.outcomes] == [
            f"f-{i}" for i in range(5)]
        assert all(o.report.status is VerificationStatus.ACCEPTED
                   for o in result.outcomes)
        assert len(server.retained_for(registered)) == 5
        assert server.service.queue_depth == 0


class TestRestart:
    """A server closed and reopened over one store file keeps its state."""

    @pytest.fixture()
    def path(self, tmp_path):
        return tmp_path / "auditor.db"

    @staticmethod
    def open_server(frame, path):
        return AliDroneServer(frame, store=path, rng=random.Random(7),
                              encryption_key_bits=512)

    @pytest.fixture()
    def durable(self, frame, path, signing_key, other_key):
        server = self.open_server(frame, path)
        drone_id = server.register_drone(DroneRegistrationRequest(
            operator_public_key=other_key.public_key,
            tee_public_key=signing_key.public_key, operator_name="op"))
        center = frame.to_geo(0.0, 0.0)
        zone_id = server.register_zone(ZoneRegistrationRequest(
            zone=NoFlyZone(center.lat, center.lon, 50.0),
            proof_of_ownership="deed", owner_name="alice"))
        return server, drone_id, zone_id

    def test_served_zone_query_is_refused_after_restart(
            self, frame, path, durable, other_key, rng):
        server, drone_id, _ = durable
        query = ZoneQuery.create(drone_id, frame.to_geo(0, 0),
                                 frame.to_geo(1, 1), other_key, rng=rng)
        server.handle_zone_query(query, now=T0)
        server.close()

        restarted = self.open_server(frame, path)
        with pytest.raises(AuthenticationError, match="replayed"):
            restarted.handle_zone_query(query, now=T0 + 60.0)
        later = T0 + restarted.nonce_window_s + 1.0
        restarted.purge_expired(later)
        assert len(restarted.handle_zone_query(query, now=later).zones) == 1

    def test_ledger_survives_restart(self, frame, path, durable):
        server, drone_id, zone_id = durable
        for t in (1.0, 2.0):
            server.handle_incident(IncidentReport(
                zone_id=zone_id, drone_id=drone_id, incident_time=T0 + t))
        entries = list(server.ledger)
        fines = server.ledger.total_fines(drone_id)
        server.close()

        restarted = self.open_server(frame, path)
        assert restarted.ledger.offences(drone_id) == 2
        assert restarted.ledger.total_fines(drone_id) == fines
        assert list(restarted.ledger) == entries
        third = restarted.ledger.adjudicate(entries[0].finding)
        assert third.fine > entries[1].fine      # escalation continues

    def test_zone_added_beside_an_accepted_track_reopens_cleanly(
            self, frame, path, durable, signing_key):
        """A new zone may turn a stored ``accepted`` into ``insufficient``
        on re-derivation; that is not tampering."""
        server, drone_id, zone_id = durable
        submission = make_submission(server, frame, signing_key, drone_id)
        assert server.receive_poa(submission, now=T0).status is \
            VerificationStatus.ACCEPTED
        beside = frame.to_geo(270.0, 30.0)
        server.register_zone(ZoneRegistrationRequest(
            zone=NoFlyZone(beside.lat, beside.lon, 15.0),
            proof_of_ownership="deed", owner_name="bob"))
        (now_judged,) = server.engine.audit_batch([submission]).outcomes
        assert now_judged.report.status is VerificationStatus.INSUFFICIENT
        incident = IncidentReport(zone_id=zone_id, drone_id=drone_id,
                                  incident_time=T0 + 3.5)
        finding = server.handle_incident(incident)
        server.close()

        restarted = self.open_server(frame, path)
        assert len(restarted.zones) == 2
        assert restarted.handle_incident(incident) == finding

    def test_intake_error_for_an_id_issued_later_reopens_cleanly(
            self, frame, path, durable, signing_key, other_key):
        """An upload under the next unissued drone id is stored as an
        intake error; once a real drone holds that id, the row would
        audit to a real verdict, which is not tampering."""
        server, _, _ = durable
        early = make_submission(server, frame, signing_key, "drone-000002")
        with pytest.raises(RegistrationError):
            server.receive_poa(early, now=T0)
        assert server.register_drone(DroneRegistrationRequest(
            operator_public_key=signing_key.public_key,
            tee_public_key=other_key.public_key,
            operator_name="op2")) == "drone-000002"
        (now_judged,) = server.engine.audit_batch([early]).outcomes
        assert now_judged.report.status is \
            VerificationStatus.REJECTED_BAD_SIGNATURE
        server.close()

        restarted = self.open_server(frame, path)
        assert restarted.store.submission_count() == 1
        assert restarted.retained_for("drone-000002") == []
