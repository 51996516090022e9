"""Tests for repro.server.engine: the batch audit engine.

The heart of this module is the equivalence suite: a literal replica of
the seed's monolithic ``PoaVerifier.verify`` is kept here as the
reference, and every intake path — the staged pipeline, the engine's
batch over sealed submissions, and the server's decrypt-and-verify
intake — must produce reports equal to it field for field, across every
outcome class.
"""

import random

import pytest

from repro.conformance import reference_open
from repro.core.nfz import NoFlyZone
from repro.core.poa import (
    EncryptedPoaRecord,
    ProofOfAlibi,
    SignedSample,
    encrypt_poa,
)
from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
from repro.core.samples import GpsSample
from repro.core.sufficiency import insufficient_pair_indices
from repro.core.verification import (
    PoaVerifier,
    RejectionReason,
    VerificationReport,
    VerificationStatus,
)
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.crypto import envelope
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.errors import ConfigurationError, EncodingError, RegistrationError
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.server import engine as engine_module
from repro.server.auditor import AliDroneServer
from repro.server.engine import AuditEngine, _BoundedCache
from repro.server.service import AuditorService
from repro.sim.clock import DEFAULT_EPOCH
from repro.sim.events import EventLog

T0 = DEFAULT_EPOCH


def signed(key, sample):
    payload = sample.to_signed_payload()
    return SignedSample(payload=payload,
                        signature=sign_pkcs1_v15(key, payload, "sha1"))


def sample_at(frame, x, y, t):
    point = frame.to_geo(x, y)
    return GpsSample(lat=point.lat, lon=point.lon, t=T0 + t)


def seal(poa, encryption_key, *, drone_id="drone-1", flight="f", seed=3):
    """A submission carrying ``poa`` sealed under ``encryption_key``."""
    return PoaSubmission(
        drone_id=drone_id, flight_id=flight,
        records=encrypt_poa(poa, encryption_key.public_key,
                            rng=random.Random(seed)),
        claimed_start=T0, claimed_end=T0 + 60.0,
        scheme=poa.scheme, finalizer=poa.finalizer)


def seed_reference_verify(verifier, poa, tee_public_key, zones):
    """The seed's monolithic verify, kept verbatim as the oracle.

    The only post-seed addition is the stable ``reason`` on every
    non-accepted report: the pipeline's rejection taxonomy is part of the
    report contract this suite pins down, so the oracle names the exact
    reason each path must produce.
    """
    if len(poa) == 0:
        return VerificationReport(status=VerificationStatus.REJECTED_EMPTY,
                                  message="PoA contains no samples",
                                  reason=RejectionReason.EMPTY_POA)

    bad = verifier.check_signatures(poa, tee_public_key)
    if bad:
        return VerificationReport(
            status=VerificationStatus.REJECTED_BAD_SIGNATURE,
            bad_signature_indices=bad, sample_count=len(poa),
            message=f"{len(bad)} of {len(poa)} signatures failed",
            reason=RejectionReason.BAD_SIGNATURE)

    try:
        samples = verifier.decode_samples(poa)
    except EncodingError as exc:
        return VerificationReport(
            status=VerificationStatus.REJECTED_MALFORMED,
            sample_count=len(poa), message=str(exc),
            reason=RejectionReason.MALFORMED_PAYLOAD)

    if not verifier.check_ordering(samples):
        return VerificationReport(
            status=VerificationStatus.REJECTED_MALFORMED,
            sample_count=len(poa),
            message="sample timestamps are not non-decreasing",
            reason=RejectionReason.OUT_OF_ORDER)

    infeasible = verifier.infeasible_pairs(samples)
    if infeasible:
        return VerificationReport(
            status=VerificationStatus.REJECTED_INFEASIBLE,
            infeasible_pair_indices=infeasible, sample_count=len(poa),
            message=f"{len(infeasible)} pairs exceed v_max",
            reason=RejectionReason.SPEED_INFEASIBLE)

    insufficient = insufficient_pair_indices(
        samples, list(zones), verifier.frame, verifier.vmax_mps,
        verifier.method)
    if len(samples) < 2 and zones:
        insufficient = [0]
    if insufficient:
        return VerificationReport(
            status=VerificationStatus.INSUFFICIENT,
            insufficient_pair_indices=insufficient, sample_count=len(poa),
            message=f"{len(insufficient)} pairs cannot rule out NFZ entrance",
            reason=RejectionReason.INSUFFICIENT_COVERAGE)

    return VerificationReport(status=VerificationStatus.ACCEPTED,
                              sample_count=len(poa))


@pytest.fixture()
def zone(frame):
    center = frame.to_geo(0.0, 0.0)
    return NoFlyZone(center.lat, center.lon, 50.0)


def build_poa(name, frame, signing_key, other_key):
    """One PoA per outcome class of the verification pipeline."""
    if name == "accepted":
        return ProofOfAlibi(
            signed(signing_key,
                   sample_at(frame, 200.0 + 20.0 * i, 0.0, float(i)))
            for i in range(8))
    if name == "insufficient":
        return ProofOfAlibi([
            signed(signing_key, sample_at(frame, 200, 0, 0.0)),
            signed(signing_key, sample_at(frame, 260, 0, 60.0))])
    if name == "infeasible":
        return ProofOfAlibi([
            signed(signing_key, sample_at(frame, 300, 0, 0.0)),
            signed(signing_key, sample_at(frame, 10_300, 0, 1.0))])
    if name == "bad_signature":
        entries = [signed(signing_key,
                          sample_at(frame, 200.0 + 20.0 * i, 0.0, float(i)))
                   for i in range(4)]
        entries[2] = SignedSample(payload=entries[2].payload,
                                  signature=b"\x01" * 64)
        return ProofOfAlibi(entries)
    if name == "forged":
        return ProofOfAlibi(
            signed(other_key,
                   sample_at(frame, 200.0 + 20.0 * i, 0.0, float(i)))
            for i in range(4))
    if name == "malformed_payload":
        payload = b"not a GPS sample payload"
        return ProofOfAlibi([SignedSample(
            payload=payload,
            signature=sign_pkcs1_v15(signing_key, payload, "sha1"))])
    if name == "out_of_order":
        return ProofOfAlibi([
            signed(signing_key, sample_at(frame, 300, 0, 5.0)),
            signed(signing_key, sample_at(frame, 310, 0, 2.0))])
    if name == "empty":
        return ProofOfAlibi()
    raise AssertionError(name)


SCENARIOS = ["accepted", "insufficient", "infeasible", "bad_signature",
             "forged", "malformed_payload", "out_of_order", "empty"]

EXPECTED_STATUS = {
    "accepted": VerificationStatus.ACCEPTED,
    "insufficient": VerificationStatus.INSUFFICIENT,
    "infeasible": VerificationStatus.REJECTED_INFEASIBLE,
    "bad_signature": VerificationStatus.REJECTED_BAD_SIGNATURE,
    "forged": VerificationStatus.REJECTED_BAD_SIGNATURE,
    "malformed_payload": VerificationStatus.REJECTED_MALFORMED,
    "out_of_order": VerificationStatus.REJECTED_MALFORMED,
    "empty": VerificationStatus.REJECTED_EMPTY,
}

EXPECTED_REASON = {
    "accepted": None,
    "insufficient": RejectionReason.INSUFFICIENT_COVERAGE,
    "infeasible": RejectionReason.SPEED_INFEASIBLE,
    "bad_signature": RejectionReason.BAD_SIGNATURE,
    "forged": RejectionReason.BAD_SIGNATURE,
    "malformed_payload": RejectionReason.MALFORMED_PAYLOAD,
    "out_of_order": RejectionReason.OUT_OF_ORDER,
    "empty": RejectionReason.EMPTY_POA,
}


class TestReportEquivalence:
    """Every path must equal the seed's monolithic verify, field for field."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_pipeline_matches_seed(self, scenario, frame, signing_key,
                                   other_key, zone):
        verifier = PoaVerifier(frame)
        poa = build_poa(scenario, frame, signing_key, other_key)
        expected = seed_reference_verify(verifier, poa,
                                         signing_key.public_key, [zone])
        got = verifier.verify(poa, signing_key.public_key, [zone])
        assert expected.status is EXPECTED_STATUS[scenario]
        assert expected.reason is EXPECTED_REASON[scenario]
        assert got == expected

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("screen", [True, False])
    def test_engine_verify_only_matches_seed(self, scenario, screen, frame,
                                             signing_key, other_key, zone):
        verifier = PoaVerifier(frame)
        poa = build_poa(scenario, frame, signing_key, other_key)
        expected = seed_reference_verify(verifier, poa,
                                         signing_key.public_key, [zone])
        engine = AuditEngine(verifier,
                             tee_key_lookup=lambda d: signing_key.public_key,
                             encryption_key=other_key,
                             zones_provider=lambda: [zone],
                             screen_signatures=screen)
        reports = engine.audit_batch([seal(poa, other_key)]).reports
        assert reports == [expected]
        assert reports[0].reason is EXPECTED_REASON[scenario]

    def test_engine_mixed_batch_matches_seed(self, frame, signing_key,
                                             other_key, zone):
        """All outcome classes audited as one batch, order preserved."""
        verifier = PoaVerifier(frame)
        poas = [build_poa(s, frame, signing_key, other_key)
                for s in SCENARIOS]
        expected = [seed_reference_verify(verifier, poa,
                                          signing_key.public_key, [zone])
                    for poa in poas]
        engine = AuditEngine(verifier,
                             tee_key_lookup=lambda d: signing_key.public_key,
                             encryption_key=other_key,
                             zones_provider=lambda: [zone])
        result = engine.audit_batch(
            [seal(poa, other_key, flight=f"f-{i}", seed=i)
             for i, poa in enumerate(poas)])
        assert result.reports == expected


class TestFullIntakeEquivalence:
    """The decrypt-and-verify batch path against the seed's intake."""

    @pytest.fixture()
    def server(self, frame):
        server = AliDroneServer(frame, rng=random.Random(7),
                                encryption_key_bits=512)
        return server

    @pytest.fixture()
    def registered(self, server, signing_key, other_key):
        return server.register_drone(DroneRegistrationRequest(
            operator_public_key=other_key.public_key,
            tee_public_key=signing_key.public_key, operator_name="op"))

    def submit(self, server, poa, drone_id, flight="f"):
        records = encrypt_poa(poa, server.public_encryption_key,
                              rng=random.Random(3))
        return PoaSubmission(drone_id=drone_id, flight_id=flight,
                             records=records, claimed_start=T0,
                             claimed_end=T0 + 60.0)

    @pytest.mark.parametrize("scenario",
                             [s for s in SCENARIOS if s != "empty"])
    def test_batch_intake_matches_seed(self, scenario, server, frame,
                                       registered, signing_key, other_key,
                                       zone):
        server.zones.register(zone, proof_of_ownership="deed")
        verifier = PoaVerifier(frame)
        poa = build_poa(scenario, frame, signing_key, other_key)
        expected = seed_reference_verify(verifier, poa,
                                         signing_key.public_key, [zone])
        result = server.receive_poa_batch(
            [self.submit(server, poa, registered)], now=T0)
        assert result.reports == [expected]
        assert result.reports[0].reason is EXPECTED_REASON[scenario]

    def test_single_submission_api_is_batch_of_one(self, server, frame,
                                                   registered, signing_key,
                                                   other_key, zone):
        server.zones.register(zone, proof_of_ownership="deed")
        poa = build_poa("accepted", frame, signing_key, other_key)
        single = server.receive_poa(
            self.submit(server, poa, registered, flight="a"), now=T0)
        batch = server.receive_poa_batch(
            [self.submit(server, poa, registered, flight="b")], now=T0)
        assert batch.reports == [single]

    def test_undecryptable_records_reported_malformed(self, server,
                                                      registered):
        submission = PoaSubmission(
            drone_id=registered, flight_id="f",
            records=[EncryptedPoaRecord(ciphertext=b"\x00" * 64,
                                        signature=b"\x00" * 64)],
            claimed_start=T0, claimed_end=T0 + 1)
        result = server.receive_poa_batch([submission], now=T0)
        (report,) = result.reports
        assert report.status is VerificationStatus.REJECTED_MALFORMED
        assert report.reason is RejectionReason.DECRYPT_FAILED
        assert report.message.startswith("PoA decryption failed:")
        assert report.sample_count == 1

    def test_unknown_drone_does_not_poison_batch(self, server, frame,
                                                 registered, signing_key,
                                                 other_key, zone):
        server.zones.register(zone, proof_of_ownership="deed")
        poa = build_poa("accepted", frame, signing_key, other_key)
        good = self.submit(server, poa, registered, flight="good")
        bad = self.submit(server, poa, "drone-404404", flight="bad")
        result = server.receive_poa_batch([bad, good], now=T0)
        assert result.outcomes[0].report is None
        assert isinstance(result.outcomes[0].error, RegistrationError)
        assert result.outcomes[1].report.status is VerificationStatus.ACCEPTED
        assert len(server.retained_for(registered)) == 1


class TestEngineMechanics:
    @pytest.fixture()
    def engine_parts(self, frame, signing_key, zone):
        verifier = PoaVerifier(frame)
        lookups = []

        def lookup(drone_id):
            lookups.append(drone_id)
            if drone_id.startswith("drone-"):
                return signing_key.public_key
            raise RegistrationError(f"unknown drone: {drone_id}")

        return verifier, lookup, lookups

    def make_submission(self, frame, signing_key, encryption_key, *,
                        drone_id="drone-1", n=4, flight="f"):
        poa = ProofOfAlibi(
            signed(signing_key,
                   sample_at(frame, 200.0 + 20.0 * i, 0.0, float(i)))
            for i in range(n))
        records = encrypt_poa(poa, encryption_key.public_key,
                              rng=random.Random(3))
        return PoaSubmission(drone_id=drone_id, flight_id=flight,
                             records=records, claimed_start=T0,
                             claimed_end=T0 + n - 1.0)

    def test_rejects_bad_configuration(self, frame, other_key):
        """Shards, not in-engine workers, are the unit of scale-out."""
        for workers in (0, 2):
            with pytest.raises(ConfigurationError):
                AuditorService(frame, encryption_key=other_key,
                               workers=workers)

    def test_worker_counts_agree(self, frame, signing_key, other_key, zone):
        """Reports do not depend on batch composition: six submissions as
        one batch, as six batches of one on the now-warm engine, and as
        six batches of one on a fresh engine."""
        encryption_key = other_key
        submissions = [
            make_distinct_submission(frame, signing_key, encryption_key,
                                     flight=f"f-{i}", offset=100.0 * i,
                                     seed=60 + i) for i in range(6)]

        def fresh_engine():
            return AuditEngine(
                PoaVerifier(frame),
                tee_key_lookup=lambda d: signing_key.public_key,
                encryption_key=encryption_key,
                zones_provider=lambda: [zone])

        engine = fresh_engine()
        batch = engine.audit_batch(submissions)
        assert batch.batch_size == len(submissions)
        warm = [engine.audit_batch([s]).reports[0] for s in submissions]
        cold_engine = fresh_engine()
        cold = [cold_engine.audit_batch([s]).reports[0] for s in submissions]
        assert batch.reports == warm == cold

    def test_in_batch_replay_opens_once(self, frame, signing_key, other_key,
                                        zone, monkeypatch):
        """The same sealed records under two flight ids in one batch: the
        second submission hits the payloads the first one opened, so one
        unwrap serves both, and the reports are identical."""
        unwraps = []
        raw_decrypt = RsaPrivateKey.raw_decrypt

        def counted(key, value):
            unwraps.append(value)
            return raw_decrypt(key, value)

        monkeypatch.setattr(RsaPrivateKey, "raw_decrypt", counted)
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=other_key, zones_provider=lambda: [zone])
        first = self.make_submission(frame, signing_key, other_key,
                                     flight="f-a")
        replay = PoaSubmission(
            drone_id=first.drone_id, flight_id="f-b", records=first.records,
            claimed_start=first.claimed_start, claimed_end=first.claimed_end)
        reports = engine.audit_batch([first, replay]).reports
        assert reports[0].status is VerificationStatus.ACCEPTED
        assert reports[0] == reports[1]
        assert len(unwraps) == 1
        assert engine.payload_cache_hits == len(first.records)

    def test_crypto_nests_under_its_submission_span(self, frame, signing_key,
                                                    other_key, zone,
                                                    monkeypatch):
        """Each unwrap runs inside the ``audit.submission`` span of the
        flight it opens, in order, and no synthetic ``crypto`` span is
        recorded.  The wrapper stands in for a tracing probe, so the
        engine must name ``decrypt_pkcs1_v15`` at call time."""
        decrypt = engine_module.decrypt_pkcs1_v15

        def spanned(key, ciphertext):
            with get_tracer().span("unwrap"):
                return decrypt(key, ciphertext)

        monkeypatch.setattr(engine_module, "decrypt_pkcs1_v15", spanned)
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=other_key, zones_provider=lambda: [zone])
        submissions = [
            make_distinct_submission(frame, signing_key, other_key,
                                     flight=f"f-{i}", offset=100.0 * i,
                                     seed=50 + i) for i in range(2)]
        with use_tracer(Tracer()) as tracer:
            engine.audit_batch(submissions)
        by_id = {span.span_id: span for span in tracer.spans}
        unwraps = sorted((s for s in tracer.spans if s.name == "unwrap"),
                         key=lambda s: s.start_s)
        parents = [by_id[span.parent_id] for span in unwraps]
        assert [p.name for p in parents] == ["audit.submission"] * 2
        assert [p.attributes["flight_id"] for p in parents] == ["f-0", "f-1"]
        assert "crypto" not in {span.name for span in tracer.spans}

    def test_payload_cache_fills_and_hits(self, frame, signing_key,
                                          other_key, zone):
        encryption_key = other_key
        submission = self.make_submission(frame, signing_key, encryption_key,
                                          n=5)
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=encryption_key, zones_provider=lambda: [zone])
        first = engine.audit_batch([submission])
        assert engine.payload_cache_size == 5
        second = engine.audit_batch([submission])
        assert engine.payload_cache_size == 5
        assert first.reports == second.reports

    def test_tee_key_lookup_cached_per_drone(self, frame, signing_key,
                                             other_key, engine_parts):
        verifier, lookup, lookups = engine_parts
        engine = AuditEngine(verifier, tee_key_lookup=lookup,
                             encryption_key=other_key)
        for _ in range(3):
            engine.tee_key_for("drone-1")
        assert lookups == ["drone-1"]

    def test_zone_index_cached_across_batches(self, frame, signing_key,
                                              other_key, zone):
        encryption_key = other_key
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=encryption_key, zones_provider=lambda: [zone])
        submission = self.make_submission(frame, signing_key, encryption_key)
        first = engine.audit_batch([submission])
        assert (engine.zone_index_builds, engine.zone_index_hits) == (1, 0)
        second = engine.audit_batch([submission])
        assert (engine.zone_index_builds, engine.zone_index_hits) == (1, 1)
        assert first.reports == second.reports

    def test_zone_index_rebuilt_when_zones_change(self, frame, signing_key,
                                                  other_key, zone):
        encryption_key = other_key
        zones = [zone]
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=encryption_key, zones_provider=lambda: list(zones))
        submission = self.make_submission(frame, signing_key, encryption_key)
        engine.audit_batch([submission])
        zones.append(NoFlyZone(frame.origin.lat, frame.origin.lon, 5.0))
        engine.audit_batch([submission])
        assert engine.zone_index_builds == 2
        assert engine.zone_index_hits == 0

    def test_same_zone_tuple_reuses_index_without_rehashing(self, frame,
                                                            signing_key,
                                                            other_key):
        """The identity fast path: a drain against the same zone tuple
        object does no O(zones) work; a list is still keyed by content."""
        hashed = []

        class CountingZone(NoFlyZone):
            def __hash__(self):
                hashed.append(self)
                return super().__hash__()

        center = frame.to_geo(0.0, 0.0)
        zones = tuple(CountingZone(center.lat, center.lon, 5.0 + i)
                      for i in range(3))
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=other_key)
        index = engine.zone_index_for(zones)
        assert hashed
        hashed.clear()
        assert engine.zone_index_for(zones) is index
        assert hashed == []
        assert engine.zone_index_for(list(zones)) is index
        assert hashed
        assert (engine.zone_index_builds, engine.zone_index_hits) == (1, 2)

    def test_zone_index_stats_shared_across_batches(self, frame, signing_key,
                                                    other_key, zone):
        encryption_key = other_key
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=encryption_key, zones_provider=lambda: [zone])
        submission = self.make_submission(frame, signing_key, encryption_key)
        engine.audit_batch([submission])
        after_first = engine.zone_index_stats.queries
        assert after_first > 0
        engine.audit_batch([submission])
        assert engine.zone_index_stats.queries > after_first

    def test_batch_audited_event_recorded(self, frame, signing_key,
                                          other_key, zone):
        encryption_key = other_key
        events = EventLog()
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=encryption_key, zones_provider=lambda: [zone],
            events=events)
        submissions = [
            self.make_submission(frame, signing_key, encryption_key,
                                 flight=f"f-{i}") for i in range(3)]
        engine.audit_batch(submissions, now=T0 + 5.0)
        (event,) = events.of_kind("batch_audited")
        assert event.time == T0 + 5.0
        assert event.detail["batch_size"] == 3
        assert "workers" not in event.detail
        assert event.detail["wall_time_s"] > 0.0

    def test_metrics_accumulate_per_stage(self, frame, signing_key,
                                          other_key, zone):
        encryption_key = other_key
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=encryption_key, zones_provider=lambda: [zone])
        engine.audit_batch([self.make_submission(frame, signing_key,
                                                 encryption_key, n=4)])
        stages = set(engine.metrics.stages())
        assert {"crypto", "signature", "decode", "ordering", "feasibility",
                "sufficiency"} <= stages
        assert engine.metrics.total_samples("crypto") == 4


def make_distinct_submission(frame, signing_key, encryption_key, *,
                             drone_id="drone-1", n=4, flight="f",
                             offset=0.0, seed=3):
    """Like ``TestEngineMechanics.make_submission`` but with disjoint
    positions and encryption randomness per call, so two submissions
    never share ciphertexts (cache-identity tests need distinct keys)."""
    poa = ProofOfAlibi(
        signed(signing_key,
               sample_at(frame, 200.0 + offset + 20.0 * i, 0.0, float(i)))
        for i in range(n))
    records = encrypt_poa(poa, encryption_key.public_key,
                          rng=random.Random(seed))
    return PoaSubmission(drone_id=drone_id, flight_id=flight,
                         records=records, claimed_start=T0,
                         claimed_end=T0 + n - 1.0)


class TestBoundedCacheLru:
    """The engine caches are LRU, not insertion-order FIFO: a read
    refreshes recency, so hot entries survive cold churn."""

    def test_eviction_order_is_least_recently_used(self):
        cache = _BoundedCache(3)
        cache["a"], cache["b"], cache["c"] = 1, 2, 3
        assert cache.get("a") == 1        # touch: "a" is now most recent
        cache["d"] = 4                    # evicts "b", NOT "a"
        assert list(cache) == ["c", "a", "d"]
        cache["e"] = 5                    # next-oldest untouched: "c"
        assert list(cache) == ["a", "d", "e"]

    def test_overwrite_refreshes_without_evicting(self):
        cache = _BoundedCache(2)
        cache["a"], cache["b"] = 1, 2
        cache["a"] = 10                   # overwrite: refresh, no eviction
        assert dict(cache) == {"b": 2, "a": 10}
        cache["c"] = 3                    # now "b" is the LRU entry
        assert list(cache) == ["a", "c"]
        assert cache.get("a") == 10

    def test_get_miss_returns_default_untouched(self):
        cache = _BoundedCache(2)
        cache["a"] = 1
        assert cache.get("zzz") is None
        assert cache.get("zzz", 7) == 7
        assert list(cache) == ["a"]

    def test_engine_hot_records_survive_cold_churn(self, frame, signing_key,
                                                   other_key, zone):
        """The LRU property at the engine level: a re-hit submission's
        payloads outlive one-shot traffic that would have flushed them
        under insertion-order eviction."""
        encryption_key = other_key
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=encryption_key, zones_provider=lambda: [zone],
            payload_cache_max=6)
        hot = make_distinct_submission(frame, signing_key, encryption_key,
                                       n=4, flight="hot", seed=100)
        engine.audit_batch([hot])
        assert (engine.payload_cache_hits,
                engine.payload_cache_misses) == (0, 4)
        for i in range(3):
            engine.audit_batch([hot])     # touch the hot records...
            cold = make_distinct_submission(
                frame, signing_key, encryption_key, n=2,
                flight=f"cold-{i}", offset=1000.0 + 100.0 * i,
                seed=200 + i)             # ...then 2 one-shot records
            engine.audit_batch([cold])
        # Every hot re-audit hit; insertion-order eviction would have
        # flushed the hot set after the first rounds of cold churn.
        assert engine.payload_cache_hits == 12
        assert engine.payload_cache_misses == 4 + 6


class TestPayloadCacheKeyedOnWrappedKey:
    def test_cached_bodies_behind_another_header_miss_and_fail(
            self, frame, signing_key, other_key, zone):
        """A record body is cached with its submission's wrapped-key
        block: behind another submission's header it misses, the engine
        unwraps that header's key, and the envelope fails to open — as
        the reference opener says it must."""
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=other_key, zones_provider=lambda: [zone])
        sub_a = make_distinct_submission(frame, signing_key, other_key,
                                         n=3, flight="fa", seed=41)
        sub_b = make_distinct_submission(frame, signing_key, other_key,
                                         n=3, flight="fb", offset=300.0,
                                         seed=42)
        engine.audit_batch([sub_a, sub_b])
        header = 1 + other_key.byte_length
        first = sub_a.records[0]
        spliced = PoaSubmission(
            drone_id="drone-1", flight_id="spliced",
            records=[EncryptedPoaRecord(
                sub_b.records[0].ciphertext[:header]
                + first.ciphertext[header:], first.signature),
                *sub_a.records[1:]],
            claimed_start=T0, claimed_end=T0 + 2.0)
        engine.payload_cache_hits = engine.payload_cache_misses = 0
        (report,) = engine.audit_batch([spliced]).reports
        assert (engine.payload_cache_hits,
                engine.payload_cache_misses) == (0, 3)
        assert report.reason is RejectionReason.DECRYPT_FAILED
        assert reference_open(spliced.records, other_key) is None


class TestMultiPowerUnwrap:
    """The 1024-bit auditor key is ``p²q``: a wrapped-key block that is a
    multiple of ``p`` is a non-unit modulo ``p²``, where a Hensel step that
    inverted its derivative per call would raise ``ValueError``."""

    @pytest.fixture(scope="class")
    def auditor_key(self):
        key = generate_rsa_keypair(1024, rng=random.Random(27))
        assert key.r == key.p
        return key

    def test_block_divisible_by_p_fails_typed(self, frame, signing_key,
                                              auditor_key, zone):
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda d: signing_key.public_key,
            encryption_key=auditor_key, zones_provider=lambda: [zone])
        honest = make_distinct_submission(frame, signing_key, auditor_key,
                                          n=2, flight="honest")
        k = auditor_key.byte_length
        first = honest.records[0]
        p, q = auditor_key.p, auditor_key.q
        for c in (p, 7 * p, 7 * p * p, p * q, auditor_key.n - p):
            block = c.to_bytes(k, "big")
            forged = PoaSubmission(
                drone_id="drone-1", flight_id=f"forged-{c % 1000}",
                records=[EncryptedPoaRecord(
                    first.ciphertext[:1] + block + first.ciphertext[1 + k:],
                    first.signature), *honest.records[1:]],
                claimed_start=T0, claimed_end=T0 + 1.0)
            (outcome,) = engine.audit_batch([forged]).outcomes
            assert outcome.error is None
            assert outcome.report.reason is RejectionReason.DECRYPT_FAILED
            assert outcome.report.message.endswith(envelope.OPEN_FAILED)
            assert reference_open(forged.records, auditor_key) is None
        (report,) = engine.audit_batch([honest]).reports
        assert report.status is VerificationStatus.ACCEPTED

