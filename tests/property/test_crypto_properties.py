"""Property-based tests on the crypto substrate (hypothesis).

Keys are expensive, so all properties run against a handful of
session-fixture keypairs rather than generating keys per example.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac_sign import hmac_sign, hmac_verify
from repro.crypto.keys import (
    private_key_from_bytes,
    private_key_to_bytes,
    public_key_from_bytes,
    public_key_to_bytes,
)
from repro.crypto.onetime import OneTimeKey, onetime_decrypt, onetime_encrypt
from repro.crypto.pkcs1 import (
    decrypt_pkcs1_v15,
    encrypt_pkcs1_v15,
    i2osp,
    os2ip,
    sign_pkcs1_v15,
    verify_pkcs1_v15,
)
from repro.crypto.schemes import authenticate_payloads, get_scheme, scheme_ids
from repro.errors import CryptoError, SchemeError

messages = st.binary(min_size=0, max_size=53)  # fits 512-bit RSAES
long_messages = st.binary(min_size=0, max_size=4096)


class TestPkcs1Properties:
    @given(message=long_messages)
    @settings(max_examples=50, deadline=None)
    def test_sign_verify_round_trip(self, signing_key, message):
        signature = sign_pkcs1_v15(signing_key, message)
        assert verify_pkcs1_v15(signing_key.public_key, message, signature)

    @given(message=long_messages, suffix=st.binary(min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_extended_message_fails(self, signing_key, message, suffix):
        signature = sign_pkcs1_v15(signing_key, message)
        assert not verify_pkcs1_v15(signing_key.public_key,
                                    message + suffix, signature)

    @given(message=messages, seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_encrypt_decrypt_round_trip(self, signing_key, message, seed):
        ciphertext = encrypt_pkcs1_v15(signing_key.public_key, message,
                                       rng=random.Random(seed))
        assert decrypt_pkcs1_v15(signing_key, ciphertext) == message

    @given(message=long_messages)
    @settings(max_examples=30, deadline=None)
    def test_cross_key_verification_fails(self, signing_key, other_key,
                                          message):
        signature = sign_pkcs1_v15(signing_key, message)
        assert not verify_pkcs1_v15(other_key.public_key, message, signature)


class ZeroHeavyRandom(random.Random):
    """A seeded rng whose byte draws are about half zeros, so the RSAES
    padding draw has to redraw many bytes."""

    def randbytes(self, n):
        return bytes(b if self.random() < 0.5 else 0
                     for b in super().randbytes(n))


def padding_string(key, message, ciphertext):
    """PS of an RSAES-PKCS1-v1_5 ciphertext, read back with ``d``."""
    k = key.byte_length
    em = i2osp(key.raw_decrypt(os2ip(ciphertext)), k)
    assert em[:2] == b"\x00\x02"
    assert em[k - len(message) - 1] == 0
    assert em[k - len(message):] == message
    return em[2:k - len(message) - 1]


class TestRsaesPaddingDraw:
    RNGS = {"seeded": lambda: random.Random(0x5EED),
            "system": random.SystemRandom,
            "zero-heavy": lambda: ZeroHeavyRandom(7)}

    @given(length=st.integers(min_value=0, max_value=53),
           rng=st.sampled_from(sorted(RNGS)))
    @settings(max_examples=60, deadline=None)
    def test_padding_is_nonzero_and_exact_length(self, signing_key,
                                                 length, rng):
        message = bytes(range(1, length + 1))
        ciphertext = encrypt_pkcs1_v15(signing_key.public_key, message,
                                       rng=self.RNGS[rng]())
        ps = padding_string(signing_key, message, ciphertext)
        assert len(ps) == signing_key.byte_length - length - 3
        assert 0 not in ps

    def test_round_trip_at_every_message_length(self, signing_key):
        k = signing_key.byte_length
        for name, make_rng in self.RNGS.items():
            rng = make_rng()
            for length in range(k - 11 + 1):
                message = rng.randbytes(length)
                ciphertext = encrypt_pkcs1_v15(signing_key.public_key,
                                               message, rng=rng)
                assert decrypt_pkcs1_v15(signing_key, ciphertext) == message, (
                    name, length)

    def test_seeded_draw_is_reproducible(self, signing_key):
        a = encrypt_pkcs1_v15(signing_key.public_key, b"m",
                              rng=random.Random(3))
        b = encrypt_pkcs1_v15(signing_key.public_key, b"m",
                              rng=random.Random(3))
        assert a == b


class TestKeyEncodingProperties:
    def test_round_trips(self, signing_key):
        assert public_key_from_bytes(
            public_key_to_bytes(signing_key.public_key)) == signing_key.public_key
        assert private_key_from_bytes(
            private_key_to_bytes(signing_key)) == signing_key


class TestSymmetricProperties:
    @given(message=long_messages, key_seed=st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_onetime_round_trip(self, message, key_seed):
        key = OneTimeKey.generate(random.Random(key_seed))
        assert onetime_decrypt(key, onetime_encrypt(key, message)) == message

    @given(message=long_messages, key_seed=st.integers(0, 2**32),
           flip=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_onetime_any_bitflip_detected(self, message, key_seed, flip):
        from repro.errors import EncryptionError
        import pytest
        key = OneTimeKey.generate(random.Random(key_seed))
        blob = bytearray(onetime_encrypt(key, message))
        blob[flip % len(blob)] ^= 0x01
        with pytest.raises(EncryptionError):
            onetime_decrypt(key, bytes(blob))

    @given(message=long_messages, key_seed=st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_hmac_round_trip(self, message, key_seed):
        key = random.Random(key_seed).randbytes(32)
        assert hmac_verify(key, message, hmac_sign(key, message))

    @given(message=long_messages, key_seed=st.integers(0, 2**32),
           flip=st.integers(min_value=0, max_value=31))
    @settings(max_examples=60, deadline=None)
    def test_hmac_tag_bitflip_detected(self, message, key_seed, flip):
        key = random.Random(key_seed).randbytes(32)
        tag = bytearray(hmac_sign(key, message))
        tag[flip] ^= 0x01
        assert not hmac_verify(key, message, bytes(tag))

    @given(message=long_messages, key_seed=st.integers(0, 2**32),
           tamper=st.binary(min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_hmac_message_tamper_detected(self, message, key_seed, tamper):
        key = random.Random(key_seed).randbytes(32)
        tag = hmac_sign(key, message)
        altered = message + tamper
        assert not hmac_verify(key, altered, tag)
        assert hmac_verify(key, message, tag)


class TestOctetStringProperties:
    @given(length=st.integers(min_value=0, max_value=64),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_i2osp_os2ip_round_trip(self, length, data):
        x = data.draw(st.integers(min_value=0,
                                  max_value=256 ** length - 1))
        octets = i2osp(x, length)
        assert len(octets) == length
        assert os2ip(octets) == x

    @given(length=st.integers(min_value=0, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_i2osp_boundaries(self, length):
        # The largest representable integer fits exactly; one past it is a
        # *typed* error, never a silent wrap or a bare exception.
        top = 256 ** length - 1
        assert os2ip(i2osp(top, length)) == top
        import pytest
        with pytest.raises(CryptoError):
            i2osp(top + 1, length)

    @given(octets=st.binary(min_size=0, max_size=64),
           pad=st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_os2ip_ignores_leading_zeros(self, octets, pad):
        assert os2ip(b"\x00" * pad + octets) == os2ip(octets)


class TestSchemeProperties:
    """The AuthScheme contract: verify() never raises, errors are typed."""

    @given(scheme_id=st.sampled_from(sorted(scheme_ids())),
           count=st.integers(min_value=1, max_value=6),
           seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_honest_flight_verifies(self, signing_key, scheme_id, count,
                                    seed):
        rng = random.Random(seed)
        payloads = [rng.randbytes(36) for _ in range(count)]
        blobs, finalizer = authenticate_payloads(
            signing_key, payloads, scheme_id=scheme_id, rng=rng)
        scheme = get_scheme(scheme_id)
        assert scheme.verify(signing_key.public_key,
                             list(zip(payloads, blobs)), finalizer) == []

    @given(signed_under=st.sampled_from(sorted(scheme_ids())),
           verified_as=st.sampled_from(sorted(scheme_ids())),
           seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_wrong_scheme_rejects_without_raising(self, signing_key,
                                                  signed_under, verified_as,
                                                  seed):
        rng = random.Random(seed)
        payloads = [rng.randbytes(36) for _ in range(4)]
        blobs, finalizer = authenticate_payloads(
            signing_key, payloads, scheme_id=signed_under, rng=rng)
        bad = get_scheme(verified_as).verify(
            signing_key.public_key, list(zip(payloads, blobs)), finalizer)
        assert bad == sorted(bad)
        assert all(0 <= i < len(payloads) for i in bad)
        if signed_under != verified_as:
            # A flight authenticated under one scheme must not pass
            # wholesale under another; at least one entry is condemned.
            assert bad

    @given(scheme_id=st.sampled_from(sorted(scheme_ids())),
           blobs=st.lists(st.binary(min_size=0, max_size=80), min_size=1,
                          max_size=5),
           finalizer=st.binary(min_size=0, max_size=120),
           seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_garbage_blobs_reject_without_raising(self, signing_key,
                                                  scheme_id, blobs,
                                                  finalizer, seed):
        rng = random.Random(seed)
        entries = [(rng.randbytes(36), blob) for blob in blobs]
        bad = get_scheme(scheme_id).verify(signing_key.public_key, entries,
                                           finalizer)
        assert bad == sorted(bad)
        assert set(bad) <= set(range(len(entries)))
        assert bad  # random authenticators never verify

    @given(name=st.text(min_size=0, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_unknown_scheme_is_typed_error(self, name):
        import pytest
        if name in scheme_ids():
            return
        with pytest.raises(SchemeError):
            get_scheme(name)
