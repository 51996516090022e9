"""Tests for repro.server.service: the persistent sharded auditor.

The headline tests are the crash-recovery suite — a service killed
mid-batch and reopened on the same store must replay exactly the
unaudited rows, once, with verdicts bit-identical to an uninterrupted
run — and the conformance replay, which re-derives every stored verdict
with the independent reference verifier.
"""

import contextlib
import dataclasses
import random
import sqlite3

import pytest

from repro.conformance.reference import reference_verify
from repro.core.nfz import NoFlyZone
from repro.core.poa import EncryptedPoaRecord, decrypt_poa
from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
from repro.core.verification import RejectionReason
from repro.crypto.pkcs1 import encrypt_pkcs1_v15
from repro.crypto.rsa import generate_rsa_keypair
from repro.errors import ConfigurationError
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.obs.hub import TelemetryHub, flatten_rollup
from repro.server.admission import POLICY_FIFO, AdmissionScheduler
from repro.server.service import (
    OUTCOME_ACCEPTED,
    OUTCOME_DEDUPLICATED,
    OUTCOME_SHED_QUEUE,
    OUTCOME_SHED_RATE,
    AuditorService,
    TokenBucket,
)
from repro.server.store import FlightStore
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import (
    build_flight_submission,
    build_violation_submission,
    poisson_arrivals,
    provision_fleet,
)

T0 = DEFAULT_EPOCH


@pytest.fixture(scope="module")
def encryption_key():
    return generate_rsa_keypair(512, rng=random.Random(606))


def make_service(frame, encryption_key, store=":memory:", **kwargs):
    service = AuditorService(frame, store, encryption_key=encryption_key,
                            **kwargs)
    center = frame.to_geo(0.0, 0.0)
    service.register_zone(NoFlyZone(center.lat, center.lon, 50.0))
    return service


def register_fleet(service, drones=3, seed=5):
    def register(operator_public, tee_public, name):
        return service.register_drone(DroneRegistrationRequest(
            operator_public_key=operator_public, tee_public_key=tee_public,
            operator_name=name), now=T0)

    return provision_fleet(register, drones=drones, seed=seed)


def fleet_arrivals(fleet, service, frame, duration_s=20.0, rate_hz=0.5,
                   seed=5):
    return poisson_arrivals(fleet, service.public_encryption_key,
                            frame=frame, seed=seed, rate_hz=rate_hz,
                            duration_s=duration_s, samples=3)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(1.0)   # one second refills one token
        assert not bucket.try_take(1.0)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1.0)
        assert bucket.try_take(10.0)
        assert not bucket.try_take(5.0)   # stale timestamp refills nothing
        assert bucket.try_take(11.0)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_s=0.0, burst=2.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_s=1.0, burst=0.5)


class TestIntakeAndDrain:
    def test_submit_drain_verdicts(self, frame, encryption_key):
        service = make_service(frame, encryption_key, shards=2)
        fleet = register_fleet(service)
        arrivals = fleet_arrivals(fleet, service, frame)
        assert arrivals
        for arrival in arrivals:
            decision = service.submit(arrival.submission, now=arrival.at,
                                      region=arrival.region)
            assert decision.outcome == OUTCOME_ACCEPTED
        assert service.queue_depth == len(arrivals)
        records = service.drain(now=T0 + 30.0)
        assert len(records) == len(arrivals)
        assert service.queue_depth == 0
        assert service.store.pending_count() == 0
        assert sum(service.stats.per_shard_audited) == len(arrivals)
        for stored, verdict in service.audited_submissions():
            assert verdict.status == "accepted"

    def test_scheme_accounting_live_and_durable(self, frame,
                                                encryption_key):
        service = make_service(frame, encryption_key)
        fleet = register_fleet(service, drones=2)
        rsa = build_flight_submission(fleet[0],
                                      service.public_encryption_key,
                                      frame=frame, flight_index=0, samples=3,
                                      start=T0, rng=random.Random(1))
        merkle = build_flight_submission(fleet[1],
                                         service.public_encryption_key,
                                         frame=frame, flight_index=0,
                                         samples=3, start=T0,
                                         rng=random.Random(2),
                                         scheme="merkle-disclosure")
        service.submit(rsa, now=T0 + 10.0)
        service.submit(merkle, now=T0 + 11.0)
        service.drain(now=T0 + 12.0)
        assert service.stats.submissions_by_scheme == {
            "rsa-v15": 1, "merkle-disclosure": 1}
        # The store's indexed partition is the durable equivalent of the
        # live counters, and a dedup must not inflate either.
        assert service.store.submission_counts_by_scheme() == {
            "merkle-disclosure": 1, "rsa-v15": 1}
        service.submit(rsa, now=T0 + 13.0)
        assert service.stats.submissions_by_scheme["rsa-v15"] == 1
        doc = service.stats.to_dict()
        assert doc["submissions_by_scheme"] == {
            "merkle-disclosure": 1, "rsa-v15": 1}
        for stored, verdict in service.audited_submissions():
            assert verdict.status == "accepted"

    def test_resubmission_dedups_onto_original(self, frame, encryption_key):
        service = make_service(frame, encryption_key)
        fleet = register_fleet(service, drones=1)
        sub = build_flight_submission(fleet[0],
                                      service.public_encryption_key,
                                      frame=frame, flight_index=0, samples=3,
                                      start=T0, rng=random.Random(1))
        first = service.submit(sub, now=T0 + 10.0)
        service.drain(now=T0 + 11.0)
        again = service.submit(sub, now=T0 + 12.0)
        assert again.outcome == OUTCOME_DEDUPLICATED
        assert again.seq == first.seq
        assert service.queue_depth == 0          # no second audit queued
        assert service.stats.audited == 1

    def test_rate_limit_sheds_deterministically(self, frame, encryption_key):
        outcomes = []
        for _ in range(2):
            service = make_service(frame, encryption_key,
                                   admission=AdmissionScheduler(
                                       POLICY_FIFO, rate_per_s=0.5,
                                       burst=2.0))
            fleet = register_fleet(service, drones=2)
            arrivals = fleet_arrivals(fleet, service, frame, rate_hz=2.0)
            run = [service.submit(a.submission, now=a.at).outcome
                   for a in arrivals]
            outcomes.append(run)
            service.close()
        assert outcomes[0] == outcomes[1]
        assert OUTCOME_SHED_RATE in outcomes[0]
        assert OUTCOME_ACCEPTED in outcomes[0]

    def test_full_queue_sheds(self, frame, encryption_key):
        service = make_service(frame, encryption_key, queue_capacity=2)
        fleet = register_fleet(service, drones=1)
        subs = [build_flight_submission(fleet[0],
                                        service.public_encryption_key,
                                        frame=frame, flight_index=i,
                                        samples=2, start=T0 + 10.0 * i,
                                        rng=random.Random(i))
                for i in range(3)]
        decisions = [service.submit(s, now=T0 + 40.0) for s in subs]
        assert [d.outcome for d in decisions] == [
            OUTCOME_ACCEPTED, OUTCOME_ACCEPTED, OUTCOME_SHED_QUEUE]
        # Shed submissions never reached the store.
        assert service.store.submission_count() == 2
        service.drain(now=T0 + 41.0)
        assert service.submit(subs[2], now=T0 + 42.0).outcome == \
            OUTCOME_ACCEPTED

    def test_unknown_drone_becomes_intake_error(self, frame, encryption_key):
        service = make_service(frame, encryption_key)
        fleet = register_fleet(service, drones=1)
        sub = build_flight_submission(fleet[0],
                                      service.public_encryption_key,
                                      frame=frame, flight_index=0, samples=2,
                                      start=T0, rng=random.Random(1))
        orphan = PoaSubmission(drone_id="drone-404404", flight_id="f",
                               records=sub.records, claimed_start=T0,
                               claimed_end=T0 + 1.0)
        service.submit(orphan, now=T0 + 5.0)
        service.drain(now=T0 + 6.0)
        assert service.stats.intake_errors == 1
        (verdict,) = [v for _, v in service.audited_submissions()]
        assert verdict.status == "intake_error"
        # Terminally unprocessable: never replayed.
        assert service.store.pending_count() == 0

    def test_shard_routing_is_deterministic_and_region_keyed(
            self, frame, encryption_key):
        service = make_service(frame, encryption_key, shards=4)
        assert service.shard_of("drone-1", "east") == \
            service.shard_of("drone-2", "east")
        assert service.shard_of("drone-1") == service.shard_of("drone-1")
        assert all(0 <= service.shard_of(f"drone-{i}") < 4
                   for i in range(50))

    def test_rejects_bad_configuration(self, frame, encryption_key):
        with pytest.raises(ConfigurationError):
            make_service(frame, encryption_key, shards=0)
        with pytest.raises(ConfigurationError):
            make_service(frame, encryption_key, queue_capacity=0)


class TestCrashRecovery:
    def run_uninterrupted(self, frame, encryption_key, path):
        """The reference run: same workload, never interrupted."""
        service = make_service(frame, encryption_key, store=str(path))
        fleet = register_fleet(service)
        arrivals = fleet_arrivals(fleet, service, frame)
        for arrival in arrivals:
            service.submit(arrival.submission, now=arrival.at,
                           region=arrival.region)
        service.drain(now=T0 + 30.0)
        verdicts = [(stored.submission.flight_id, verdict.to_report())
                    for stored, verdict in service.audited_submissions()]
        service.close()
        return arrivals, verdicts

    def test_replay_is_exactly_once_and_bit_identical(self, frame,
                                                      encryption_key,
                                                      tmp_path):
        arrivals, want = self.run_uninterrupted(frame, encryption_key,
                                                tmp_path / "reference.db")
        assert len(arrivals) >= 4

        # The crashing run: same workload, killed after auditing only 3.
        path = tmp_path / "crashed.db"
        service = make_service(frame, encryption_key, store=str(path))
        register_fleet(service)
        for arrival in arrivals:
            service.submit(arrival.submission, now=arrival.at,
                           region=arrival.region)
        service.drain(now=T0 + 30.0, max_submissions=3)
        # "Crash": the in-memory queue dies with the process; only the
        # store survives.
        service.close()

        reopened = make_service(frame, encryption_key, store=str(path))
        assert reopened.store.pending_count() == len(arrivals) - 3
        replayed = reopened.recover(now=T0 + 60.0)
        assert replayed == len(arrivals) - 3
        assert reopened.store.pending_count() == 0
        got = [(stored.submission.flight_id, verdict.to_report())
               for stored, verdict in reopened.audited_submissions()]
        assert got == want
        # Recovery is idempotent: nothing left to replay.
        assert reopened.recover(now=T0 + 90.0) == 0
        reopened.close()

    def test_interrupted_recovery_still_exactly_once(self, frame,
                                                     encryption_key,
                                                     tmp_path):
        """Recovery killed mid-replay and rerun audits each row once."""
        path = tmp_path / "crashed-twice.db"
        service = make_service(frame, encryption_key, store=str(path))
        fleet = register_fleet(service)
        arrivals = fleet_arrivals(fleet, service, frame)
        for arrival in arrivals:
            service.submit(arrival.submission, now=arrival.at,
                           region=arrival.region)
        service.close()

        # First recovery attempt dies after one batch.
        first = make_service(frame, encryption_key, store=str(path))
        pending = first.store.pending(limit=2)
        for stored in pending:
            first.submit(stored.submission, now=T0 + 50.0)  # dedup, no-op
        first.recover(now=T0 + 50.0, batch_size=2)
        audited_so_far = first.store.verdict_count()
        assert audited_so_far == len(arrivals)
        first.close()

        second = make_service(frame, encryption_key, store=str(path))
        assert second.recover(now=T0 + 70.0) == 0
        assert second.store.verdict_count() == len(arrivals)
        second.close()

    def test_pre_envelope_rows_fail_closed_on_recover(self, frame,
                                                      encryption_key,
                                                      tmp_path):
        """Rows stored in the paper's per-record RSAES layout do not open
        as a sealed envelope: recover() verdicts them decrypt_failed."""
        path = tmp_path / "per-record.db"
        service = make_service(frame, encryption_key, store=str(path))
        (drone,) = register_fleet(service, drones=1)
        sealed = build_flight_submission(
            drone, encryption_key.public_key, frame=frame, flight_index=0,
            samples=3, start=T0, rng=random.Random(3))
        poa = decrypt_poa(sealed.records, encryption_key)
        per_record = dataclasses.replace(sealed, records=tuple(
            EncryptedPoaRecord(encrypt_pkcs1_v15(
                encryption_key.public_key, entry.payload, random.Random(i)),
                entry.signature) for i, entry in enumerate(poa)))
        service.submit(per_record, now=T0 + 5.0)
        service.close()

        reopened = make_service(frame, encryption_key, store=str(path))
        assert reopened.recover(now=T0 + 10.0) == 1
        ((_stored, verdict),) = reopened.audited_submissions()
        assert verdict.to_report().reason is RejectionReason.DECRYPT_FAILED
        reopened.close()

    def test_recover_requires_idle_queue(self, frame, encryption_key):
        service = make_service(frame, encryption_key)
        fleet = register_fleet(service, drones=1)
        sub = build_flight_submission(fleet[0],
                                      service.public_encryption_key,
                                      frame=frame, flight_index=0, samples=2,
                                      start=T0, rng=random.Random(1))
        service.submit(sub, now=T0 + 5.0)
        with pytest.raises(ConfigurationError):
            service.recover(now=T0 + 6.0)

    def test_restart_resumes_registered_fleet(self, frame, encryption_key,
                                              tmp_path):
        path = tmp_path / "fleet.db"
        service = make_service(frame, encryption_key, store=str(path))
        fleet = register_fleet(service)
        service.close()
        reopened = make_service(frame, encryption_key, store=str(path))
        sub = build_flight_submission(fleet[0],
                                      reopened.public_encryption_key,
                                      frame=frame, flight_index=0, samples=2,
                                      start=T0, rng=random.Random(2))
        reopened.submit(sub, now=T0 + 5.0)
        reopened.drain(now=T0 + 6.0)
        (verdict,) = [v for _, v in reopened.audited_submissions()]
        assert verdict.status == "accepted"
        reopened.close()


class TestRestartState:
    """The key, frame origin and zones come back with the store."""

    def test_unaudited_violation_is_judged_against_stored_zones(
            self, frame, encryption_key, tmp_path):
        path = str(tmp_path / "violation.db")
        service = make_service(frame, encryption_key, store=path)
        (drone,) = register_fleet(service, drones=1)
        violation = build_violation_submission(
            drone, encryption_key.public_key, frame=frame, flight_index=0,
            samples=8, start=T0, rng=random.Random(4))
        service.submit(violation, now=T0 + 10.0)
        service.close()

        # Reopened without registering the zone again.
        reopened = AuditorService(frame, path, encryption_key=encryption_key)
        assert reopened.recover(now=T0 + 20.0) == 1
        ((_stored, verdict),) = reopened.audited_submissions()
        assert verdict.status != "accepted"
        assert len(reopened.zones) == 1
        reopened.close()

    def test_reopen_without_key_uses_the_stored_key(self, frame,
                                                    encryption_key, tmp_path):
        path = str(tmp_path / "key.db")
        service = make_service(frame, encryption_key, store=path)
        (drone,) = register_fleet(service, drones=1)
        honest = build_flight_submission(
            drone, encryption_key.public_key, frame=frame, flight_index=0,
            samples=3, start=T0, rng=random.Random(5))
        service.submit(honest, now=T0 + 10.0)
        service.close()

        reopened = AuditorService(frame, path, encryption_key_bits=512,
                                  rng=random.Random(77))
        assert reopened.public_encryption_key == encryption_key.public_key
        assert reopened.recover(now=T0 + 20.0) == 1
        ((_stored, verdict),) = reopened.audited_submissions()
        assert verdict.status == "accepted"
        reopened.close()

    def test_other_key_or_frame_is_refused_without_writes(
            self, frame, encryption_key, tmp_path):
        path = str(tmp_path / "identity.db")
        service = make_service(frame, encryption_key, store=path)
        register_fleet(service, drones=1)
        service.close()

        def row_counts():
            with contextlib.closing(sqlite3.connect(path)) as conn:
                return {table: conn.execute(
                            f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                        for table in ("auditor", "drones", "zones")}

        before = row_counts()
        other_key = generate_rsa_keypair(512, rng=random.Random(607))
        with pytest.raises(ConfigurationError, match="encryption key"):
            AuditorService(frame, path, encryption_key=other_key)
        with pytest.raises(ConfigurationError, match="frame"):
            AuditorService(LocalFrame(GeoPoint(30.0, -97.0)), path,
                           encryption_key=encryption_key)
        with pytest.raises(ConfigurationError, match="frame"):
            AuditorService(LocalFrame(GeoPoint(30.0, -97.0)), path)
        assert row_counts() == before == {"auditor": 1, "drones": 1,
                                          "zones": 1}


class TestConformanceReplay:
    def test_stored_verdicts_match_reference_verifier(self, frame,
                                                      encryption_key):
        """Every service verdict re-derives identically from the store —
        including rejections (one flight straight through the zone)."""
        service = make_service(frame, encryption_key, shards=2)
        fleet = register_fleet(service)
        arrivals = fleet_arrivals(fleet, service, frame, duration_s=12.0)
        for arrival in arrivals:
            service.submit(arrival.submission, now=arrival.at,
                           region=arrival.region)
        # One violating flight: samples inside the origin zone.
        violator = build_flight_submission(
            fleet[0], service.public_encryption_key, frame=frame,
            flight_index=99, samples=3, start=T0, rng=random.Random(9))
        intrusive = PoaSubmission(
            drone_id=violator.drone_id, flight_id="flight-violation",
            records=violator.records[:1], claimed_start=T0,
            claimed_end=T0)
        service.submit(intrusive, now=T0 + 15.0)
        service.drain(now=T0 + 30.0)

        zones = [record.zone for record in service.zones.all_zones()]
        statuses = set()
        for stored, verdict in service.audited_submissions():
            poa = decrypt_poa(stored.submission.records, encryption_key,
                              scheme=stored.submission.scheme,
                              finalizer=stored.submission.finalizer)
            tee_key = service.store.get_drone(
                stored.submission.drone_id).tee_public_key
            want = reference_verify(poa, tee_key, zones, frame)
            assert verdict.to_report() == want
            statuses.add(verdict.status)
        assert "accepted" in statuses
        assert len(statuses) > 1   # the truncated flight must not pass


class TestServiceTelemetry:
    def test_gauges_and_section_in_rollup(self, frame, encryption_key):
        hub = TelemetryHub(window_s=120.0)
        service = make_service(frame, encryption_key, shards=2,
                               telemetry=hub)
        fleet = register_fleet(service, drones=2)
        arrivals = fleet_arrivals(fleet, service, frame)
        for arrival in arrivals:
            service.submit(arrival.submission, now=arrival.at,
                           region=arrival.region)
        service.drain(now=T0 + 30.0)
        flat = flatten_rollup(hub.rollup(T0 + 30.0))
        assert flat["service.queue_depth"] == 0.0
        assert flat["service.queue_fill_ratio"] == 0.0
        assert flat["service.store.pending"] == 0.0
        assert flat["service.intake.accepted.total"] == len(arrivals)
        assert "service.payload_cache_hit_ratio" in flat
        assert "service.store.seconds.p99" in flat
        assert "audit.intake.seconds.p99" in flat
        rollup = hub.rollup(T0 + 30.0)
        assert rollup["service"]["audited"] == len(arrivals)

    def test_shed_counters_feed_monitor_metric(self, frame, encryption_key):
        hub = TelemetryHub(window_s=120.0)
        service = make_service(frame, encryption_key, queue_capacity=1,
                               telemetry=hub)
        fleet = register_fleet(service, drones=1)
        subs = [build_flight_submission(fleet[0],
                                        service.public_encryption_key,
                                        frame=frame, flight_index=i,
                                        samples=2, start=T0 + 10.0 * i,
                                        rng=random.Random(i))
                for i in range(3)]
        for sub in subs:
            service.submit(sub, now=T0 + 40.0)
        flat = flatten_rollup(hub.rollup(T0 + 40.0))
        assert flat["service.shed.total"] == 2.0
        assert flat["service.intake.shed_queue_full.total"] == 2.0


class TestSharedStore:
    def test_accepts_open_store_instance(self, frame, encryption_key):
        store = FlightStore(":memory:")
        service = AuditorService(frame, store,
                                 encryption_key=encryption_key)
        assert service.store is store
