"""Tests for repro.server.store: the SQLite/WAL-backed flight ledger.

The store is the service's crash-safety layer, so the suite pins the
contracts recovery depends on: lossless submission round-trips, dedup
idempotency, the pending set as verdict-row absence, and durability of
every table across a close/reopen cycle on a real file.
"""

import random
import sqlite3

import pytest

from repro.core.poa import EncryptedPoaRecord
from repro.core.protocol import PoaSubmission
from repro.core.verification import (
    RejectionReason,
    VerificationReport,
    VerificationStatus,
)
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import ConfigurationError, EncodingError, RegistrationError
from repro.server.store import (
    EPOCH_BUCKET_S,
    FlightStore,
    decode_records,
    encode_records,
    submission_dedup_key,
)
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH


def make_submission(drone="drone-000001", flight="f-1", n=3, start=T0,
                    seed=0, scheme="rsa-v15"):
    rng = random.Random(seed)
    records = tuple(
        EncryptedPoaRecord(ciphertext=rng.randbytes(64),
                           signature=rng.randbytes(64))
        for _ in range(n))
    return PoaSubmission(drone_id=drone, flight_id=flight, records=records,
                         claimed_start=start, claimed_end=start + n - 1.0,
                         scheme=scheme)


def make_report(status=VerificationStatus.ACCEPTED, reason=None, n=3,
                message="ok", bad=()):
    return VerificationReport(status=status, sample_count=n, message=message,
                              bad_signature_indices=list(bad), reason=reason)


@pytest.fixture()
def store():
    with FlightStore(":memory:") as s:
        yield s


class TestRecordCodec:
    def test_round_trip(self):
        records = make_submission(n=4).records
        assert decode_records(encode_records(records)) == records

    def test_empty(self):
        assert decode_records(encode_records(())) == ()

    def test_truncated_blob_raises(self):
        blob = encode_records(make_submission(n=2).records)
        with pytest.raises(EncodingError):
            decode_records(blob[:-3])
        with pytest.raises(EncodingError):
            decode_records(b"\x00\x00")

    def test_trailing_bytes_raise(self):
        blob = encode_records(make_submission(n=1).records)
        with pytest.raises(EncodingError):
            decode_records(blob + b"\x00")


class TestDedupKey:
    def test_stable_and_sensitive(self):
        a = make_submission()
        assert submission_dedup_key(a) == submission_dedup_key(
            make_submission())
        for variant in (make_submission(flight="f-2"),
                        make_submission(drone="drone-000002"),
                        make_submission(seed=1),
                        make_submission(start=T0 + 1.0)):
            assert submission_dedup_key(variant) != submission_dedup_key(a)

    def test_pinned_key_and_stored_row(self, store):
        submission = make_submission(n=20, seed=19, scheme="rsa-batch")
        submission = PoaSubmission(
            drone_id=submission.drone_id, flight_id=submission.flight_id,
            records=submission.records,
            claimed_start=submission.claimed_start,
            claimed_end=submission.claimed_end, scheme=submission.scheme,
            finalizer=b"fin")
        # Stored rows are keyed on this digest, so it must never drift.
        pinned = ("c4bf6052ff83686e4587ba1340d6c215"
                  "0a0cf8d2914388dda52218cc00fe8e73")
        assert submission_dedup_key(submission) == pinned
        seq, _ = store.put_submission(submission)
        row = store._conn.execute(
            "SELECT dedup_key, records FROM submissions WHERE seq = ?",
            (seq,)).fetchone()
        assert row == (pinned, encode_records(submission.records))


class TestDroneRegistry:
    def test_sequential_ids_and_round_trip(self, store, signing_key,
                                           other_key):
        drone_id = store.register_drone(other_key.public_key,
                                        signing_key.public_key,
                                        operator_name="op", registered_at=T0)
        assert drone_id == "drone-000001"
        second = generate_rsa_keypair(512, rng=random.Random(404))
        assert store.register_drone(other_key.public_key,
                                    second.public_key) == "drone-000002"
        stored = store.get_drone(drone_id)
        assert stored.tee_public_key == signing_key.public_key
        assert stored.operator_public_key == other_key.public_key
        assert stored.operator_name == "op"
        assert store.drone_count() == 2
        assert store.get_drone("drone-000002").tee_public_key == \
            second.public_key

    def test_duplicate_tee_key_rejected(self, store, signing_key, other_key):
        store.register_drone(other_key.public_key, signing_key.public_key)
        with pytest.raises(RegistrationError):
            store.register_drone(other_key.public_key,
                                 signing_key.public_key)

    def test_unknown_drone_raises(self, store):
        with pytest.raises(RegistrationError):
            store.get_drone("drone-404404")

    def test_find_by_tee(self, store, signing_key, other_key):
        assert store.find_drone_by_tee(signing_key.public_key) is None
        drone_id = store.register_drone(other_key.public_key,
                                        signing_key.public_key)
        assert store.find_drone_by_tee(
            signing_key.public_key).drone_id == drone_id


class TestSubmissions:
    def test_round_trip(self, store):
        submission = make_submission()
        seq, inserted = store.put_submission(submission, region="region-1",
                                             received_at=T0 + 5.0)
        assert inserted
        stored = store.get_submission(seq)
        assert stored.submission == submission
        assert stored.region == "region-1"
        assert stored.received_at == T0 + 5.0

    def test_dedup_returns_original_seq(self, store):
        seq, inserted = store.put_submission(make_submission())
        again, inserted_again = store.put_submission(make_submission())
        assert (inserted, inserted_again) == (True, False)
        assert again == seq
        assert store.submission_count() == 1

    def test_missing_seq_raises(self, store):
        with pytest.raises(ConfigurationError):
            store.get_submission(99)

    def test_indexed_lookups(self, store):
        store.put_submission(make_submission(drone="drone-000001",
                                             flight="a"), region="east")
        store.put_submission(make_submission(drone="drone-000001",
                                             flight="b", seed=1),
                             region="west")
        store.put_submission(
            make_submission(drone="drone-000002", flight="c", seed=2,
                            start=T0 + 2 * EPOCH_BUCKET_S), region="east")
        assert len(store.submissions_for_drone("drone-000001")) == 2
        assert len(store.submissions_for_drone("drone-000002")) == 1
        east = store.submissions_in_region("east")
        assert [s.submission.flight_id for s in east] == ["a", "c"]
        epoch = int(T0 // EPOCH_BUCKET_S)
        assert [s.submission.flight_id
                for s in store.submissions_in_region("east", epoch=epoch)
                ] == ["a"]

    def test_counts_by_scheme(self, store):
        assert store.submission_counts_by_scheme() == {}
        store.put_submission(make_submission(flight="r1"))
        store.put_submission(make_submission(flight="r2", seed=1))
        store.put_submission(make_submission(flight="m1", seed=2,
                                             scheme="merkle-disclosure"))
        store.put_submission(make_submission(flight="m1", seed=2,
                                             scheme="merkle-disclosure"))
        # Dedup keeps the duplicate out of the per-scheme partition.
        assert store.submission_counts_by_scheme() == {
            "merkle-disclosure": 1, "rsa-v15": 2}
        total = sum(store.submission_counts_by_scheme().values())
        assert total == store.submission_count()


class TestVerdictsAndPending:
    def test_report_round_trip(self, store):
        seq, _ = store.put_submission(make_submission())
        report = make_report(status=VerificationStatus.REJECTED_BAD_SIGNATURE,
                             reason=RejectionReason.BAD_SIGNATURE,
                             message="1 of 3 signatures failed", bad=[1])
        store.record_verdict(seq, report, audited_at=T0 + 9.0)
        verdict = store.get_verdict(seq)
        assert verdict.to_report() == report
        assert verdict.audited_at == T0 + 9.0

    def test_pending_is_verdict_absence(self, store):
        seqs = [store.put_submission(make_submission(flight=f"f-{i}",
                                                     seed=i))[0]
                for i in range(3)]
        assert store.pending_count() == 3
        store.record_verdict(seqs[1], make_report(), audited_at=T0)
        pending = store.pending()
        assert [p.seq for p in pending] == [seqs[0], seqs[2]]
        assert store.pending_count() == 2
        assert store.get_verdict(seqs[0]) is None
        assert store.pending(limit=1)[0].seq == seqs[0]

    def test_intake_error_leaves_pending_set(self, store):
        seq, _ = store.put_submission(make_submission())
        store.record_intake_error(seq, "unknown drone id", audited_at=T0)
        assert store.pending_count() == 0
        verdict = store.get_verdict(seq)
        assert verdict.status == "intake_error"
        with pytest.raises(ConfigurationError):
            verdict.to_report()

    def test_audited_pairs_in_arrival_order(self, store):
        reports = {}
        for i in range(3):
            seq, _ = store.put_submission(make_submission(flight=f"f-{i}",
                                                          seed=i))
            reports[seq] = make_report(message=f"r-{i}")
            store.record_verdict(seq, reports[seq], audited_at=T0 + i)
        pairs = list(store.audited())
        assert [stored.seq for stored, _ in pairs] == sorted(reports)
        for stored, verdict in pairs:
            assert verdict.to_report() == reports[stored.seq]


class TestDurability:
    def test_file_that_is_not_a_database_is_an_encoding_error(self,
                                                              tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not an sqlite file, just notes\n" * 8)
        with pytest.raises(EncodingError, match="not a flight store") as info:
            FlightStore(path)
        assert isinstance(info.value.__cause__, sqlite3.DatabaseError)

    def test_everything_survives_reopen(self, tmp_path, signing_key,
                                        other_key):
        path = tmp_path / "flights.db"
        with FlightStore(path) as store:
            store.register_drone(other_key.public_key,
                                 signing_key.public_key, operator_name="op")
            audited_seq, _ = store.put_submission(
                make_submission(flight="done"), region="east")
            store.record_verdict(audited_seq, make_report(), audited_at=T0)
            pending_seq, _ = store.put_submission(
                make_submission(flight="interrupted", seed=1))

        with FlightStore(path) as store:
            assert store.get_drone("drone-000001").operator_name == "op"
            assert store.submission_count() == 2
            assert [p.seq for p in store.pending()] == [pending_seq]
            assert store.get_verdict(
                audited_seq).to_report() == make_report()
            # Id issuance continues where it left off.
            key = generate_rsa_keypair(512, rng=random.Random(505))
            assert store.register_drone(other_key.public_key,
                                        key.public_key) == "drone-000002"
            # The dedup constraint survives too.
            seq, inserted = store.put_submission(
                make_submission(flight="done"), region="east")
            assert (seq, inserted) == (audited_seq, False)
