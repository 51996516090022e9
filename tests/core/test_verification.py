"""Tests for repro.core.verification: the Auditor's pipeline."""

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier, VerificationStatus
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.perf.meter import StageMetrics
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH


def signed(key, sample):
    payload = sample.to_signed_payload()
    return SignedSample(payload=payload,
                        signature=sign_pkcs1_v15(key, payload, "sha1"))


def sample_at(frame, x, y, t):
    point = frame.to_geo(x, y)
    return GpsSample(lat=point.lat, lon=point.lon, t=T0 + t)


@pytest.fixture()
def verifier(frame):
    return PoaVerifier(frame)


@pytest.fixture()
def zone(frame):
    center = frame.to_geo(0.0, 0.0)
    return NoFlyZone(center.lat, center.lon, 50.0)


@pytest.fixture()
def good_poa(signing_key, frame):
    """Dense samples walking away from the origin zone."""
    return ProofOfAlibi(
        signed(signing_key, sample_at(frame, 200.0 + 20.0 * i, 0.0, float(i)))
        for i in range(8))


class TestAcceptance:
    def test_good_poa_accepted(self, verifier, good_poa, signing_key, zone):
        report = verifier.verify(good_poa, signing_key.public_key, [zone])
        assert report.status is VerificationStatus.ACCEPTED
        assert report.compliant
        assert report.sample_count == 8

    def test_no_zones_accepted(self, verifier, good_poa, signing_key):
        report = verifier.verify(good_poa, signing_key.public_key, [])
        assert report.compliant


class TestRejections:
    def test_empty_poa(self, verifier, signing_key, zone):
        report = verifier.verify(ProofOfAlibi(), signing_key.public_key,
                                 [zone])
        assert report.status is VerificationStatus.REJECTED_EMPTY

    def test_bad_signature(self, verifier, good_poa, other_key, zone):
        report = verifier.verify(good_poa, other_key.public_key, [zone])
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE
        assert len(report.bad_signature_indices) == len(good_poa)

    def test_single_bad_signature_identified(self, verifier, good_poa,
                                             signing_key, zone):
        entries = list(good_poa.entries)
        entries[3] = SignedSample(payload=entries[3].payload,
                                  signature=b"\x01" * 64)
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [zone])
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE
        assert report.bad_signature_indices == [3]

    def test_out_of_order_timestamps(self, verifier, signing_key, frame, zone):
        entries = [signed(signing_key, sample_at(frame, 300, 0, 5.0)),
                   signed(signing_key, sample_at(frame, 310, 0, 2.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [zone])
        assert report.status is VerificationStatus.REJECTED_MALFORMED

    def test_infeasible_speed(self, verifier, signing_key, frame, zone):
        """10 km in one second is physically impossible: forged trace."""
        entries = [signed(signing_key, sample_at(frame, 300, 0, 0.0)),
                   signed(signing_key, sample_at(frame, 10_300, 0, 1.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [zone])
        assert report.status is VerificationStatus.REJECTED_INFEASIBLE
        assert report.infeasible_pair_indices == [0]

    def test_feasibility_slack_tolerates_gps_noise(self, verifier,
                                                   signing_key, frame, zone):
        """Motion at exactly v_max plus metre-level noise must pass."""
        vmax = verifier.vmax_mps
        entries = [signed(signing_key, sample_at(frame, 300, 0, 0.0)),
                   signed(signing_key,
                          sample_at(frame, 300 + vmax + 0.5, 0, 1.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [])
        assert report.status is not VerificationStatus.REJECTED_INFEASIBLE

    def test_same_instant_different_positions_infeasible(self, verifier,
                                                         signing_key, frame):
        """dt == 0 with distinct positions is rejected outright: the check
        is explicit, not a side effect of the epsilon on the speed bound."""
        entries = [signed(signing_key, sample_at(frame, 300, 0, 1.0)),
                   signed(signing_key, sample_at(frame, 300.5, 0, 1.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [])
        assert report.status is VerificationStatus.REJECTED_INFEASIBLE
        assert report.infeasible_pair_indices == [0]

    def test_same_instant_same_position_allowed(self, verifier, signing_key,
                                                frame):
        """A duplicated sample (same time, same place) is not infeasible."""
        entries = [signed(signing_key, sample_at(frame, 300, 0, 1.0)),
                   signed(signing_key, sample_at(frame, 300, 0, 1.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [])
        assert report.status is not VerificationStatus.REJECTED_INFEASIBLE

    def test_insufficient_gap(self, verifier, signing_key, frame, zone):
        entries = [signed(signing_key, sample_at(frame, 200, 0, 0.0)),
                   signed(signing_key, sample_at(frame, 260, 0, 60.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [zone])
        assert report.status is VerificationStatus.INSUFFICIENT
        assert report.insufficient_pair_indices == [0]
        assert not report.compliant

    def test_single_sample_with_zone_insufficient(self, verifier,
                                                  signing_key, frame, zone):
        entries = [signed(signing_key, sample_at(frame, 500, 0, 0.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [zone])
        assert report.status is VerificationStatus.INSUFFICIENT


class TestStageMetricsWiring:
    def test_verifier_records_per_stage_timings(self, frame, good_poa,
                                                signing_key, zone):
        metrics = StageMetrics()
        verifier = PoaVerifier(frame, metrics=metrics)
        verifier.verify(good_poa, signing_key.public_key, [zone])
        assert metrics.stages() == ["signature", "decode", "ordering",
                                    "feasibility", "disclosure",
                                    "sufficiency"]
        assert metrics.runs("signature") == 1
        assert metrics.total_samples("signature") == len(good_poa)
        # Pair stages process n - 1 sample pairs.
        assert metrics.total_samples("feasibility") == len(good_poa) - 1

    def test_short_circuit_skips_downstream_timings(self, frame, good_poa,
                                                    other_key, zone):
        metrics = StageMetrics()
        verifier = PoaVerifier(frame, metrics=metrics)
        verifier.verify(good_poa, other_key.public_key, [zone])
        assert metrics.stages() == ["signature"]


class TestStageOrdering:
    def test_signature_check_precedes_sufficiency(self, verifier, frame,
                                                  other_key, zone,
                                                  signing_key):
        """A forged PoA must be reported as forged, not merely insufficient."""
        entries = [signed(other_key, sample_at(frame, 200, 0, 0.0)),
                   signed(other_key, sample_at(frame, 260, 0, 60.0))]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [zone])
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE

    def test_exact_method_report(self, frame, signing_key, zone):
        verifier = PoaVerifier(frame, method="exact")
        entries = [signed(signing_key, sample_at(frame, 200 + 20 * i, 0,
                                                 float(i)))
                   for i in range(5)]
        report = verifier.verify(ProofOfAlibi(entries),
                                 signing_key.public_key, [zone])
        assert report.compliant
