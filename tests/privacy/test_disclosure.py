"""The operator disclosure policy and the verifier's disclosure stage.

Builds dense Merkle-committed flights around a zone and checks both
directions of the contract: honest disclosures verify exactly like the
full trace, and disclosures that hide too much are rejected with
``INSUFFICIENT_DISCLOSURE``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier
from repro.crypto.schemes import SCHEME_MERKLE, SCHEME_RSA, \
    authenticate_payloads
from repro.errors import ConfigurationError
from repro.privacy.disclosure import DisclosedAlibi, disclose
from repro.privacy.merkle import MerkleTree
from repro.sim.clock import DEFAULT_EPOCH


def _merkle_flight(signing_key, points, t0=DEFAULT_EPOCH, dt=1.0):
    """A full-trace merkle PoA over ``points`` (local metres)."""
    payloads = [GpsSample(*_geo(point), t0 + i * dt).to_signed_payload()
                for i, point in enumerate(points)]
    blobs, finalizer = authenticate_payloads(
        signing_key, payloads, SCHEME_MERKLE, rng=random.Random(5))
    return ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=SCHEME_MERKLE)
         for payload, blob in zip(payloads, blobs)),
        scheme=SCHEME_MERKLE, finalizer=finalizer)


_FRAME = None


def _geo(point):
    return _FRAME.to_geo(*point).lat, _FRAME.to_geo(*point).lon


@pytest.fixture(autouse=True)
def _bind_frame(frame):
    global _FRAME
    _FRAME = frame
    yield
    _FRAME = None


@pytest.fixture()
def zone(frame) -> NoFlyZone:
    point = frame.to_geo(0.0, 0.0)
    return NoFlyZone(point.lat, point.lon, 60.0)


def _bypass_points(n=120, offset=300.0, step=15.0):
    """A 1 Hz straight traverse passing ``offset`` metres from origin."""
    return [(-900.0 + i * step, offset) for i in range(n)]


def _subset(poa, indices):
    payloads = [entry.payload for entry in poa]
    tree = MerkleTree(payloads)
    return poa.replace_entries(
        [SignedSample(payload=payloads[i],
                      signature=tree.membership_proof(i).to_bytes(),
                      scheme=SCHEME_MERKLE)
         for i in indices])


class TestDisclosePolicy:
    def test_honest_disclosure_verifies_and_redacts(self, signing_key,
                                                    frame, zone):
        poa = _merkle_flight(signing_key, _bypass_points())
        verifier = PoaVerifier(frame)
        full = verifier.verify(poa, signing_key.public_key, [zone])
        assert full.compliant

        alibi = disclose(poa, [zone], frame)
        assert isinstance(alibi, DisclosedAlibi)
        assert alibi.total_samples == len(poa)
        assert 0 < alibi.revealed_count < alibi.total_samples
        assert 0.0 < alibi.redaction_ratio < 1.0
        disclosed = verifier.verify(alibi.poa, signing_key.public_key,
                                    [zone])
        assert disclosed.compliant

    def test_disclosure_beats_per_sample_rsa_on_wire(self, signing_key,
                                                     frame, zone):
        points = _bypass_points(n=240, offset=500.0)
        poa = _merkle_flight(signing_key, points)
        alibi = disclose(poa, [zone], frame)
        payloads = [entry.payload for entry in poa]
        blobs, _ = authenticate_payloads(signing_key, payloads, SCHEME_RSA,
                                         rng=random.Random(5))
        full_rsa = sum(len(payload) + len(blob)
                       for payload, blob in zip(payloads, blobs))
        assert alibi.wire_bytes() < full_rsa

    def test_no_zones_discloses_endpoints_and_brackets(self, signing_key,
                                                       frame):
        poa = _merkle_flight(signing_key, _bypass_points())
        alibi = disclose(poa, [], frame)
        n = alibi.total_samples
        assert 0 in alibi.revealed_indices
        assert n - 1 in alibi.revealed_indices
        assert alibi.revealed_count < n

    def test_infeasible_pair_is_never_redacted(self, signing_key, frame,
                                               zone):
        # A mid-flight teleport: both offending fixes must stay revealed
        # so the full-trace SPEED_INFEASIBLE verdict survives.
        points = _bypass_points(n=40)
        points[20] = (points[20][0] + 5_000.0, points[20][1])
        poa = _merkle_flight(signing_key, points)
        alibi = disclose(poa, [zone], frame)
        assert {19, 20, 21} <= set(alibi.revealed_indices)
        verifier = PoaVerifier(frame)
        disclosed = verifier.verify(alibi.poa, signing_key.public_key,
                                    [zone])
        assert not disclosed.compliant

    def test_rejects_non_merkle_input(self, signing_key, frame):
        payloads = [GpsSample(40.1, -88.2, DEFAULT_EPOCH)
                    .to_signed_payload()]
        blobs, finalizer = authenticate_payloads(
            signing_key, payloads, SCHEME_RSA, rng=random.Random(5))
        poa = ProofOfAlibi(
            (SignedSample(payload=payloads[0], signature=blobs[0],
                          scheme=SCHEME_RSA),),
            scheme=SCHEME_RSA, finalizer=finalizer)
        with pytest.raises(ConfigurationError):
            disclose(poa, [], frame)

    def test_rejects_already_disclosed_input(self, signing_key, frame):
        poa = _merkle_flight(signing_key, _bypass_points(n=8))
        once = disclose(poa, [], frame)
        with pytest.raises(ConfigurationError, match="full committed"):
            disclose(once.poa, [], frame)

    def test_rejects_empty_flight(self, signing_key, frame):
        poa = _merkle_flight(signing_key, [])
        with pytest.raises(ConfigurationError, match="empty flight"):
            disclose(poa, [], frame)

    def test_rejects_clock_running_backwards(self, signing_key, frame,
                                             zone):
        """A committed clock that jumps back 59 s at a standstill is an
        input error, raised before any gap geometry runs."""
        times = [DEFAULT_EPOCH + i for i in range(10)]
        times += [DEFAULT_EPOCH + i - 59.0 for i in range(10, 20)]
        payloads = [GpsSample(*_geo((0.0, 300.0)), t).to_signed_payload()
                    for t in times]
        blobs, finalizer = authenticate_payloads(
            signing_key, payloads, SCHEME_MERKLE, rng=random.Random(5))
        poa = ProofOfAlibi(
            (SignedSample(payload=payload, signature=blob,
                          scheme=SCHEME_MERKLE)
             for payload, blob in zip(payloads, blobs)),
            scheme=SCHEME_MERKLE, finalizer=finalizer)
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            disclose(poa, [zone], frame)


class TestDisclosureStage:
    def test_hiding_near_zone_fixes_is_insufficient(self, signing_key,
                                                    frame, zone):
        # Traverse straight through the zone, then "disclose" only the
        # fixes well outside it: valid proofs, damning gap.
        points = [(-900.0 + i * 15.0, 0.0) for i in range(120)]
        poa = _merkle_flight(signing_key, points)
        keep = [i for i, point in enumerate(points)
                if abs(point[0]) > 400.0]
        keep = sorted(set(keep) | {0, len(points) - 1})
        report = PoaVerifier(frame).verify(_subset(poa, keep),
                                           signing_key.public_key, [zone])
        assert not report.compliant
        assert report.reason.value == "insufficient_disclosure"

    def test_unpinned_endpoint_is_insufficient(self, signing_key, frame,
                                               zone):
        poa = _merkle_flight(signing_key, _bypass_points(n=30))
        report = PoaVerifier(frame).verify(
            _subset(poa, list(range(1, 30))),
            signing_key.public_key, [zone])
        assert not report.compliant
        assert report.reason.value == "insufficient_disclosure"

    def test_far_gap_clears_conservative_rule(self, signing_key, frame,
                                              zone):
        # Hiding samples hundreds of metres from the only zone is fine:
        # the ellipse around each gap cannot reach the disk.
        points = [(-100.0 + i * 2.0, 900.0) for i in range(60)]
        poa = _merkle_flight(signing_key, points)
        keep = sorted({0, 20, 40, 59})
        report = PoaVerifier(frame).verify(_subset(poa, keep),
                                           signing_key.public_key, [zone])
        assert report.compliant

    def test_stage_ignores_other_schemes(self, signing_key, frame, zone):
        payloads = [GpsSample(*_geo((500.0, 500.0 + i)), DEFAULT_EPOCH + i)
                    .to_signed_payload() for i in range(4)]
        blobs, finalizer = authenticate_payloads(
            signing_key, payloads, SCHEME_RSA, rng=random.Random(5))
        poa = ProofOfAlibi(
            (SignedSample(payload=payload, signature=blob, scheme=SCHEME_RSA)
             for payload, blob in zip(payloads, blobs)),
            scheme=SCHEME_RSA, finalizer=finalizer)
        report = PoaVerifier(frame).verify(poa, signing_key.public_key,
                                           [zone])
        assert report.compliant
