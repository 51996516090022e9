"""Streamed entries are audited as one flight by the staged pipeline.

A real-time Auditor collects a drone's entries as they arrive and hands
the completed stream to :class:`repro.core.verification.PoaVerifier`; each
case below is the flight such a stream makes.
"""

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.verification import (
    PoaVerifier,
    RejectionReason,
    VerificationStatus,
)
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH


def signed(key, frame, x, y, t):
    point = frame.to_geo(x, y)
    sample = GpsSample(lat=point.lat, lon=point.lon, t=T0 + t)
    payload = sample.to_signed_payload()
    return SignedSample(payload=payload,
                        signature=sign_pkcs1_v15(key, payload, "sha1"))


@pytest.fixture()
def zone(frame):
    center = frame.to_geo(0.0, 0.0)
    return NoFlyZone(center.lat, center.lon, 50.0)


@pytest.fixture()
def audit(signing_key, frame, zone):
    """The pipeline's report on a stream of entries, as one flight."""
    def run(entries):
        return PoaVerifier(frame).verify(ProofOfAlibi(entries),
                                         signing_key.public_key, [zone])
    return run


class TestEntryClassification:
    def test_dense_compliant_stream_accepted(self, audit, signing_key,
                                             frame):
        report = audit([signed(signing_key, frame, 300.0 + 20 * i, 0,
                               float(i))
                        for i in range(6)])
        assert report.status is VerificationStatus.ACCEPTED
        assert report.reason is None

    def test_time_regression_rejected(self, audit, signing_key, frame):
        report = audit([signed(signing_key, frame, 300, 0, 5.0),
                        signed(signing_key, frame, 310, 0, 2.0)])
        assert report.status is VerificationStatus.REJECTED_MALFORMED
        assert report.reason is RejectionReason.OUT_OF_ORDER

    def test_teleport_rejected(self, audit, signing_key, frame):
        report = audit([signed(signing_key, frame, 300, 0, 0.0),
                        signed(signing_key, frame, 20_300, 0, 1.0)])
        assert report.status is VerificationStatus.REJECTED_INFEASIBLE
        assert report.reason is RejectionReason.SPEED_INFEASIBLE

    def test_wide_gap_near_zone_is_insufficient(self, audit, signing_key,
                                                frame):
        report = audit([signed(signing_key, frame, 200, 0, 0.0),
                        signed(signing_key, frame, 260, 0, 60.0)])
        assert report.status is VerificationStatus.INSUFFICIENT
        assert report.reason is RejectionReason.INSUFFICIENT_COVERAGE

    def test_malformed_payload_rejected(self, audit, signing_key):
        payload = b"not a gps payload at all!!!!!!!!!!!!"
        entry = SignedSample(payload=payload,
                             signature=sign_pkcs1_v15(signing_key, payload))
        report = audit([entry])
        assert report.status is VerificationStatus.REJECTED_MALFORMED
        assert report.reason is RejectionReason.MALFORMED_PAYLOAD


class TestReportSemantics:
    def test_empty_stream(self, audit):
        report = audit([])
        assert report.status is VerificationStatus.REJECTED_EMPTY
        assert report.reason is RejectionReason.EMPTY_POA

    def test_single_sample_with_zone_insufficient(self, audit,
                                                  signing_key, frame):
        report = audit([signed(signing_key, frame, 300, 0, 0.0)])
        assert report.status is VerificationStatus.INSUFFICIENT
        assert report.reason is RejectionReason.INSUFFICIENT_COVERAGE

    def test_rejection_dominates_sufficiency(self, audit, signing_key,
                                             other_key, frame):
        entries = [signed(signing_key, frame, 300.0 + 20 * i, 0, float(i))
                   for i in range(4)]
        entries.append(signed(other_key, frame, 400, 0, 4.0))
        report = audit(entries)
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE
        assert report.reason is RejectionReason.BAD_SIGNATURE
        assert report.bad_signature_indices == [4]
