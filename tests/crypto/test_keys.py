"""Tests for repro.crypto.keys (serialization and fingerprints)."""

import math
import random
import struct

import pytest

from repro.crypto.keys import (
    key_fingerprint,
    private_key_from_bytes,
    private_key_to_bytes,
    public_key_from_bytes,
    public_key_to_bytes,
)
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.errors import EncodingError
from tests.crypto.test_rsa import make_three_prime_key

#: A 256-bit two-prime key as encoded by the five-integer ``ADSK`` format,
#: before three-prime keys existed: TEE sealed storage and server snapshots
#: written then hold this form.  ``LEGACY_KEY`` is its five integers.
LEGACY_BLOB = bytes.fromhex(
    "4144534b00000020a4baf4f10b6a0eac2908a77ec019e73998f23c10bddd4595"
    "093456f980d761370000000301000100000020455d23fecbdba0ca058d4b5a27"
    "f1c056e748e958c38c7ba4d601b7a727fba64100000010d8deed50954ba2bee4"
    "c6fc224f731e6900000010c273b48e63d1222345a6b4e40907ce9f")
LEGACY_KEY = RsaPrivateKey(
    n=0xa4baf4f10b6a0eac2908a77ec019e73998f23c10bddd4595093456f980d76137,
    e=0x10001,
    d=0x455d23fecbdba0ca058d4b5a27f1c056e748e958c38c7ba4d601b7a727fba641,
    p=0xd8deed50954ba2bee4c6fc224f731e69,
    q=0xc273b48e63d1222345a6b4e40907ce9f)


def adsk(*values: int) -> bytes:
    """An ``ADSK`` blob of arbitrary integers (valid or not)."""
    return b"ADSK" + b"".join(
        struct.pack(">I", (v.bit_length() + 7) // 8 or 1)
        + v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in values)


@pytest.fixture(scope="module")
def three_prime_key():
    """A three-prime key, the shape older stores hold at 1024 bits."""
    return make_three_prime_key(1024, random.Random(5151))


@pytest.fixture(scope="module")
def multi_power_key():
    return generate_rsa_keypair(1024, rng=random.Random(5151))


class TestPublicKeyEncoding:
    def test_round_trip(self, signing_key):
        data = public_key_to_bytes(signing_key.public_key)
        assert public_key_from_bytes(data) == signing_key.public_key

    def test_magic_enforced(self, signing_key):
        data = public_key_to_bytes(signing_key.public_key)
        with pytest.raises(EncodingError):
            public_key_from_bytes(b"XXXX" + data[4:])

    def test_truncation_detected(self, signing_key):
        data = public_key_to_bytes(signing_key.public_key)
        with pytest.raises(EncodingError):
            public_key_from_bytes(data[:-3])

    def test_trailing_bytes_detected(self, signing_key):
        data = public_key_to_bytes(signing_key.public_key)
        with pytest.raises(EncodingError):
            public_key_from_bytes(data + b"\x00")


class TestPrivateKeyEncoding:
    def test_round_trip(self, signing_key):
        data = private_key_to_bytes(signing_key)
        assert private_key_from_bytes(data) == signing_key

    def test_magic_differs_from_public(self, signing_key):
        private = private_key_to_bytes(signing_key)
        with pytest.raises(EncodingError):
            public_key_from_bytes(private)

    def test_truncation_detected(self, signing_key):
        data = private_key_to_bytes(signing_key)
        with pytest.raises(EncodingError):
            private_key_from_bytes(data[:20])

    def test_legacy_five_integer_blob_decodes(self):
        key = private_key_from_bytes(LEGACY_BLOB)
        assert key == LEGACY_KEY
        assert key.r is None
        assert private_key_to_bytes(key) == LEGACY_BLOB

    def test_three_prime_round_trip(self, three_prime_key):
        data = private_key_to_bytes(three_prime_key)
        assert private_key_from_bytes(data) == three_prime_key
        assert len(private_key_from_bytes(data).primes) == 3
        key = private_key_from_bytes(data)
        assert len(set(key.primes)) == 3
        for c in (0xC0FFEE, 7 * key.r):
            assert key.raw_decrypt(c) == pow(c, key.d, key.n)

    def test_multi_power_blob_writes_p_twice(self, multi_power_key):
        k = multi_power_key
        data = private_key_to_bytes(k)
        assert data == adsk(k.n, k.e, k.d, k.p, k.q, k.p)
        key = private_key_from_bytes(data)
        assert key == k and key.r == key.p
        for c in (0xC0FFEE, 7 * key.p, 7 * key.p ** 2):
            assert key.raw_decrypt(c) == pow(c, key.d, key.n)

    def test_invalid_keys_are_encoding_errors(self, multi_power_key):
        k = multi_power_key
        naive_d = pow(k.e, -1, math.lcm(k.p - 1, k.q - 1))
        cube = k.p ** 3
        blobs = [
            # p == q with the two-prime d: decoded before, then the
            # first decrypt raised a bare ValueError.
            adsk(k.n, k.e, naive_d, k.p, k.p, k.q),
            adsk(k.n, k.e, k.d + 2, k.p, k.q, k.p),
            adsk(cube, k.e, pow(k.e, -1, k.p * k.p * (k.p - 1)),
                 k.p, k.p, k.p),
            adsk(k.n * k.q, k.e, 3, k.p, k.q, k.p * k.q),
        ]
        for blob in blobs:
            with pytest.raises(EncodingError):
                private_key_from_bytes(blob)

    @pytest.mark.parametrize("count", [4, 7])
    def test_wrong_integer_count_rejected(self, three_prime_key, count):
        k = three_prime_key
        values = [k.n, k.e, k.d, k.p, k.q, k.r, 1][:count]
        with pytest.raises(EncodingError):
            private_key_from_bytes(adsk(*values))

    def test_bad_product_is_an_encoding_error(self):
        with pytest.raises(EncodingError):
            private_key_from_bytes(adsk(15, 3, 3, 3, 7))
        with pytest.raises(EncodingError):
            private_key_from_bytes(adsk(105, 3, 3, 3, 7, 4))


class TestFingerprint:
    def test_stable(self, signing_key):
        assert (key_fingerprint(signing_key.public_key)
                == key_fingerprint(signing_key.public_key))

    def test_distinct_keys_distinct_fingerprints(self, signing_key, other_key):
        assert (key_fingerprint(signing_key.public_key)
                != key_fingerprint(other_key.public_key))

    def test_format_is_hex_sha256(self, signing_key):
        fp = key_fingerprint(signing_key.public_key)
        assert len(fp) == 64
        int(fp, 16)  # parses as hex
