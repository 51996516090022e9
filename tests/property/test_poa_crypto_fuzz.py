"""Property + fuzz coverage for the signed-sample crypto envelope.

Complements ``test_crypto_properties.py``: those tests exercise the raw
PKCS#1 v1.5 primitives; these pin the *protocol* layer — the canonical
GPS payload encoding, the :class:`SignedSample` envelope, the sealed
record envelope (:mod:`repro.crypto.envelope`), and the claim the
adversary subsystem leans on everywhere: **any** single-byte mutation of
a signed sample (payload or signature, any position, any value) makes
verification fail, and any single-byte mutation or truncation of a
sealed envelope fails to open with a typed error.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.poa import (
    EncryptedPoaRecord,
    ProofOfAlibi,
    SignedSample,
    decrypt_poa,
    encrypt_poa,
)
from repro.core.protocol import PoaSubmission
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier, RejectionReason
from repro.crypto.envelope import OPEN_FAILED, VERSION
from repro.crypto.pkcs1 import (
    decrypt_pkcs1_v15,
    encrypt_pkcs1_v15,
    sign_pkcs1_v15,
)
from repro.crypto.rsa import RsaPrivateKey
from repro.errors import CryptoError, EncodingError, EncryptionError
from repro.server.engine import AuditEngine
from repro.server.store import decode_records, encode_records

lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=4e9, allow_nan=False)
alts = st.none() | st.floats(min_value=-400.0, max_value=20_000.0,
                             allow_nan=False)


def make_signed(key, lat, lon, t, alt=None) -> SignedSample:
    payload = GpsSample(lat, lon, t, alt).to_signed_payload()
    return SignedSample(payload=payload,
                        signature=sign_pkcs1_v15(key, payload, "sha1"))


class TestPayloadRoundTrip:
    @given(lat=lats, lon=lons, t=times, alt=alts)
    @settings(max_examples=100, deadline=None)
    def test_payload_encoding_round_trips(self, lat, lon, t, alt):
        sample = GpsSample(lat, lon, t, alt)
        decoded = GpsSample.from_signed_payload(sample.to_signed_payload())
        # The encoding quantizes (1.1 cm / 1 us / 1 mm) — round-tripping
        # must be exact at the second encoding even when the first one
        # rounded the raw floats.
        assert decoded.to_signed_payload() == sample.to_signed_payload()
        assert abs(decoded.lat - lat) <= 1e-7
        assert abs(decoded.lon - lon) <= 1e-7
        assert abs(decoded.t - t) <= 1e-5
        if alt is None:
            assert decoded.alt is None

    @given(lat=lats, lon=lons, t=times)
    @settings(max_examples=50, deadline=None)
    def test_sign_then_verify_then_decode(self, signing_key, lat, lon, t):
        entry = make_signed(signing_key, lat, lon, t)
        assert entry.verify(signing_key.public_key, "sha1")
        decoded = entry.sample
        assert decoded.to_signed_payload() == entry.payload

    @given(payload_size=st.integers(min_value=0, max_value=53),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_rsaes_round_trip_over_payload_sizes(self, signing_key,
                                                 payload_size, seed):
        rng = random.Random(seed)
        message = rng.randbytes(payload_size)
        ciphertext = encrypt_pkcs1_v15(signing_key.public_key, message,
                                       rng=random.Random(seed + 1))
        assert decrypt_pkcs1_v15(signing_key, ciphertext) == message


class TestSingleByteMutation:
    """No single-byte corruption of a signed sample survives verification."""

    @given(lat=lats, lon=lons, t=times,
           offset=st.integers(min_value=0),
           delta=st.integers(min_value=1, max_value=255))
    @settings(max_examples=120, deadline=None)
    def test_payload_mutation_fails_verification(self, signing_key,
                                                 lat, lon, t, offset, delta):
        entry = make_signed(signing_key, lat, lon, t)
        mutated = bytearray(entry.payload)
        index = offset % len(mutated)
        mutated[index] = (mutated[index] + delta) % 256
        forged = SignedSample(payload=bytes(mutated),
                              signature=entry.signature)
        assert not forged.verify(signing_key.public_key, "sha1")

    @given(lat=lats, lon=lons, t=times,
           offset=st.integers(min_value=0),
           delta=st.integers(min_value=1, max_value=255))
    @settings(max_examples=120, deadline=None)
    def test_signature_mutation_fails_verification(self, signing_key,
                                                   lat, lon, t, offset,
                                                   delta):
        entry = make_signed(signing_key, lat, lon, t)
        mutated = bytearray(entry.signature)
        index = offset % len(mutated)
        mutated[index] = (mutated[index] + delta) % 256
        forged = SignedSample(payload=entry.payload,
                              signature=bytes(mutated))
        assert not forged.verify(signing_key.public_key, "sha1")

    def test_exhaustive_single_byte_sweep_on_one_sample(self, signing_key):
        """Deterministic exhaustion at one point: every byte of payload
        and signature, corruption never verifies and never escapes as an
        untyped error."""
        entry = make_signed(signing_key, 40.1, -88.2, 1_234_567.0, 120.0)
        blob = entry.payload + entry.signature
        cut = len(entry.payload)
        for index in range(len(blob)):
            mutated = bytearray(blob)
            mutated[index] ^= 0xFF
            forged = SignedSample(payload=bytes(mutated[:cut]),
                                  signature=bytes(mutated[cut:]))
            try:
                ok = forged.verify(signing_key.public_key, "sha1")
            except CryptoError:
                continue  # typed failure counts as rejection
            assert not ok, f"mutation at byte {index} verified"

    @given(data=st.binary(min_size=0, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_truncated_payload_decodes_to_typed_error(self, data):
        try:
            GpsSample.from_signed_payload(data)
        except EncodingError:
            pass
        else:  # pragma: no cover - would be a conformance bug
            raise AssertionError("truncated payload decoded")


# --- the sealed record envelope ------------------------------------------------

def sealed_records(seal_key, auditor_key, n=3, seed=5):
    poa = ProofOfAlibi(make_signed(seal_key, 40.1 + 1e-4 * i, -88.2,
                                   1_234_567.0 + i) for i in range(n))
    return encrypt_poa(poa, auditor_key.public_key,
                       rng=random.Random(seed))


def with_ciphertext(records, index, ciphertext):
    return [EncryptedPoaRecord(ciphertext, r.signature) if i == index else r
            for i, r in enumerate(records)]


def assert_fails_typed(records, auditor_key):
    """Opening (and decoding) fails with a typed error, never opens."""
    try:
        decrypt_poa(records, auditor_key).trace()
    except EncryptionError as exc:
        assert str(exc) == OPEN_FAILED  # one failure shape
    except EncodingError:
        pass
    else:  # pragma: no cover - would be a conformance bug
        raise AssertionError("tampered envelope opened")


@pytest.fixture()
def private_ops(monkeypatch):
    """Counts ``RsaPrivateKey.raw_decrypt`` calls made during a test."""
    calls = []
    original = RsaPrivateKey.raw_decrypt

    def counted(key, value):
        calls.append(value)
        return original(key, value)

    monkeypatch.setattr(RsaPrivateKey, "raw_decrypt", counted)
    return calls


class TestSealedEnvelopeFuzz:
    """Every corruption of a sealed 3-record envelope is a typed failure."""

    def test_exhaustive_single_byte_sweep(self, signing_key, other_key):
        records = sealed_records(signing_key, other_key)
        assert decrypt_poa(records, other_key).entries  # opens untouched
        for index, record in enumerate(records):
            for offset in range(len(record.ciphertext)):
                mutated = bytearray(record.ciphertext)
                mutated[offset] ^= 0xFF
                assert_fails_typed(
                    with_ciphertext(records, index, bytes(mutated)),
                    other_key)

    @given(index=st.integers(min_value=0, max_value=2),
           offset=st.integers(min_value=0),
           delta=st.integers(min_value=1, max_value=255))
    @settings(max_examples=120, deadline=None)
    def test_any_single_byte_mutation_fails(self, signing_key, other_key,
                                            index, offset, delta):
        records = sealed_records(signing_key, other_key)
        mutated = bytearray(records[index].ciphertext)
        offset %= len(mutated)
        mutated[offset] = (mutated[offset] + delta) % 256
        assert_fails_typed(with_ciphertext(records, index, bytes(mutated)),
                           other_key)

    def test_every_truncation_fails(self, signing_key, other_key):
        records = sealed_records(signing_key, other_key)
        for index, record in enumerate(records):
            for cut in range(len(record.ciphertext)):
                assert_fails_typed(
                    with_ciphertext(records, index, record.ciphertext[:cut]),
                    other_key)
        # The stored/wire form truncates to a typed decode error too.
        blob = encode_records(records)
        for cut in range(len(blob)):
            with pytest.raises(EncodingError):
                decode_records(blob[:cut])


class TestEnvelopeIntakeCost:
    """Opening costs at most one private-key operation per submission."""

    @pytest.mark.parametrize("first", [
        lambda c, k: bytes([VERSION ^ 0x01]) + c[1:],    # version 0x00
        lambda c, k: bytes([VERSION + 1]) + c[1:],       # unknown version
        lambda c, k: c[:k],                              # short of header
        lambda c, k: c[:1 + k + 10],                     # body too short
        lambda c, k: b"",
    ])
    def test_malformed_header_costs_no_private_key_operation(
            self, signing_key, other_key, private_ops, first):
        records = sealed_records(signing_key, other_key)
        bad = with_ciphertext(records, 0, first(records[0].ciphertext,
                                                other_key.byte_length))
        with pytest.raises(EncryptionError, match=OPEN_FAILED):
            decrypt_poa(bad, other_key)
        assert private_ops == []

    def test_large_submission_costs_one_private_key_operation(
            self, frame, signing_key, other_key, private_ops):
        n = 5_000
        payloads = [GpsSample(40.1, -88.2, 1_000.0 + i).to_signed_payload()
                    for i in range(n)]
        poa = ProofOfAlibi(SignedSample(payload=p, signature=b"\x00" * 64)
                           for p in payloads)
        records = encrypt_poa(poa, other_key.public_key,
                              rng=random.Random(9))
        opened = decrypt_poa(records, other_key)
        assert [entry.payload for entry in opened] == payloads
        assert len(private_ops) == 1

        private_ops.clear()
        engine = AuditEngine(
            PoaVerifier(frame),
            tee_key_lookup=lambda _drone: signing_key.public_key,
            encryption_key=other_key)
        (report,) = engine.audit_batch([PoaSubmission(
            drone_id="drone-1", flight_id="huge", records=records,
            claimed_start=1_000.0, claimed_end=1_000.0 + n - 1)]).reports
        assert report.reason is RejectionReason.BAD_SIGNATURE
        assert len(private_ops) == 1
