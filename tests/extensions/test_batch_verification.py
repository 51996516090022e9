"""Auditor-side verification of sign-once PoAs (§VII-A1b end to end).

``rsa-batch`` flights go through the standard verification pipeline, so
every status asserted here comes from one of the pipeline's own stages.
"""

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.sampling import FixRateSampler
from repro.core.verification import PoaVerifier, VerificationStatus
from repro.crypto.schemes import SCHEME_BATCH, authenticate_payloads
from repro.drone.adapter import Adapter
from repro.sim.clock import DEFAULT_EPOCH

T0 = DEFAULT_EPOCH


def batch_poa(payloads, blobs, finalizer):
    return ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=SCHEME_BATCH)
         for payload, blob in zip(payloads, blobs)),
        scheme=SCHEME_BATCH, finalizer=finalizer)


def make_batch(key, frame, positions_and_times):
    payloads = []
    for x, t in positions_and_times:
        point = frame.to_geo(x, 0.0)
        payloads.append(GpsSample(lat=point.lat, lon=point.lon,
                                  t=T0 + t).to_signed_payload())
    blobs, finalizer = authenticate_payloads(key, payloads, SCHEME_BATCH)
    return batch_poa(payloads, blobs, finalizer)


def verify(poa, public_key, zones, frame):
    return PoaVerifier(frame).verify(poa, public_key, zones)


@pytest.fixture()
def zone(frame):
    center = frame.to_geo(0.0, 0.0)
    return NoFlyZone(center.lat, center.lon, 50.0)


class TestVerifyBatchPoa:
    def test_good_batch_accepted(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame,
                           [(200.0 + 20 * i, float(i)) for i in range(8)])
        report = verify(batch, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.ACCEPTED
        assert report.sample_count == 8

    def test_empty_batch(self, signing_key, frame, zone):
        batch = ProofOfAlibi(scheme=SCHEME_BATCH)
        report = verify(batch, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_EMPTY

    def test_wrong_key_rejected(self, signing_key, other_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0), (220.0, 1.0)])
        report = verify(batch, other_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE

    def test_tampered_payload_rejected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0), (220.0, 1.0)])
        payloads = [entry.payload for entry in batch]
        payloads[1] = payloads[1][:-1] + bytes([payloads[1][-1] ^ 1])
        tampered = batch_poa(payloads, [b"", b""], batch.finalizer)
        report = verify(tampered, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE

    def test_dropped_sample_rejected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame,
                           [(200.0 + 20 * i, float(i)) for i in range(3)])
        dropped = batch.replace_entries(batch.entries[:-1])
        report = verify(dropped, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_BAD_SIGNATURE

    def test_out_of_order_rejected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 5.0), (220.0, 1.0)])
        report = verify(batch, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_MALFORMED

    def test_infeasible_rejected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0),
                                                (20_200.0, 1.0)])
        report = verify(batch, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.REJECTED_INFEASIBLE

    def test_insufficient_gap_detected(self, signing_key, frame, zone):
        batch = make_batch(signing_key, frame, [(200.0, 0.0), (260.0, 60.0)])
        report = verify(batch, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.INSUFFICIENT

    def test_single_sample_with_zone_insufficient(self, signing_key, frame,
                                                  zone):
        batch = make_batch(signing_key, frame, [(500.0, 0.0)])
        report = verify(batch, signing_key.public_key, [zone], frame)
        assert report.status is VerificationStatus.INSUFFICIENT

    def test_full_ta_round_trip(self, make_platform, frame):
        """A flight signed once by the GPS Sampler TA is ACCEPTED."""
        device, receiver, clock = make_platform(seed=41)
        adapter = Adapter(device, receiver, clock, scheme=SCHEME_BATCH)
        result = adapter.fly(FixRateSampler(1.0), clock.now + 5.0)
        assert len(result.poa) == 6
        assert device.core.op_counters["rsa_sign_512"] == 1
        far_center = frame.to_geo(0.0, 50_000.0)
        far_zone = NoFlyZone(far_center.lat, far_center.lon, 100.0)
        report = verify(result.poa, device.tee_public_key, [far_zone], frame)
        assert report.status is VerificationStatus.ACCEPTED
