"""Tests for hmac_sign and onetime."""

import random

import pytest

from repro.crypto.hmac_sign import (
    HMAC_TAG_LENGTH,
    generate_hmac_key,
    hmac_sign,
    hmac_verify,
)
from repro.crypto.onetime import OneTimeKey, onetime_decrypt, onetime_encrypt
from repro.errors import ConfigurationError, EncryptionError


class TestHmac:
    def test_sign_verify(self, rng):
        key = generate_hmac_key(rng)
        tag = hmac_sign(key, b"payload")
        assert len(tag) == HMAC_TAG_LENGTH
        assert hmac_verify(key, b"payload", tag)

    def test_wrong_message_fails(self, rng):
        key = generate_hmac_key(rng)
        tag = hmac_sign(key, b"payload")
        assert not hmac_verify(key, b"other", tag)

    def test_wrong_key_fails(self, rng):
        tag = hmac_sign(generate_hmac_key(rng), b"payload")
        assert not hmac_verify(generate_hmac_key(rng), b"payload", tag)

    def test_short_key_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_hmac_key(length=8)

    def test_deterministic_key_generation(self):
        assert (generate_hmac_key(random.Random(1))
                == generate_hmac_key(random.Random(1)))


class TestOneTime:
    def test_round_trip(self, rng):
        key = OneTimeKey.generate(rng)
        blob = onetime_encrypt(key, b"a gps payload")
        assert onetime_decrypt(key, blob) == b"a gps payload"

    def test_empty_plaintext(self, rng):
        key = OneTimeKey.generate(rng)
        assert onetime_decrypt(key, onetime_encrypt(key, b"")) == b""

    def test_tamper_detected(self, rng):
        key = OneTimeKey.generate(rng)
        blob = bytearray(onetime_encrypt(key, b"payload"))
        blob[0] ^= 0x01
        with pytest.raises(EncryptionError):
            onetime_decrypt(key, bytes(blob))

    def test_tag_tamper_detected(self, rng):
        key = OneTimeKey.generate(rng)
        blob = bytearray(onetime_encrypt(key, b"payload"))
        blob[-1] ^= 0x01
        with pytest.raises(EncryptionError):
            onetime_decrypt(key, bytes(blob))

    def test_wrong_key_detected(self, rng):
        blob = onetime_encrypt(OneTimeKey.generate(rng), b"payload")
        with pytest.raises(EncryptionError):
            onetime_decrypt(OneTimeKey.generate(rng), blob)

    def test_too_short_blob_rejected(self, rng):
        with pytest.raises(EncryptionError):
            onetime_decrypt(OneTimeKey.generate(rng), b"short")

    def test_invalid_key_length_rejected(self):
        with pytest.raises(EncryptionError):
            OneTimeKey(b"short")

    def test_ciphertext_differs_from_plaintext(self, rng):
        key = OneTimeKey.generate(rng)
        blob = onetime_encrypt(key, b"payload-payload-payload")
        assert b"payload" not in blob

    def test_long_plaintext_multi_block(self, rng):
        key = OneTimeKey.generate(rng)
        plaintext = bytes(range(256)) * 5
        assert onetime_decrypt(key, onetime_encrypt(key, plaintext)) == plaintext

