"""The AliDrone Server as a front-end over the durable auditor service.

Intake is ``AuditorService.submit`` + ``drain``; the service's store is
the one drone registry and evidence ledger that retention, re-uploads
and recovery all read.
"""

import random

import pytest

from repro.core.poa import EncryptedPoaRecord
from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
from repro.core.verification import VerificationStatus
from repro.errors import RegistrationError
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
