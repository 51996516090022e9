"""Per-sample one-time encryption for privacy-preserving audits (§VII-B3).

Each GPS sample in the PoA is encrypted under its own random key before
upload, so an honest-but-curious Auditor learns nothing about the
trajectory.  When a Zone Owner reports an incident, the operator reveals
only the keys for the two samples bracketing the incident time; the Auditor
decrypts exactly that pair and checks sufficiency against the accusing
zone.

The cipher is a SHA-256 counter-mode keystream with an encrypt-then-MAC
HMAC tag — authenticated, and committing: a revealed key opens one ciphertext
to exactly one plaintext.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from repro.errors import EncryptionError

_KEY_LENGTH = 32
_TAG_LENGTH = 32


@dataclass(frozen=True, slots=True)
class OneTimeKey:
    """A single-use symmetric key; never reuse across samples."""

    material: bytes

    def __post_init__(self) -> None:
        if len(self.material) != _KEY_LENGTH:
            raise EncryptionError(f"one-time keys must be {_KEY_LENGTH} bytes")

    @classmethod
    def generate(cls, rng: random.Random | None = None) -> "OneTimeKey":
        """A fresh random key."""
        rng = rng or random.SystemRandom()
        return cls(rng.randbytes(_KEY_LENGTH))


def _xor_keystream(key: bytes, data: bytes) -> bytes:
    """``data`` XOR the SHA-256 counter-mode keystream of ``key``."""
    stream = b"".join(
        hashlib.sha256(key + b"|stream|" + counter.to_bytes(8, "big")).digest()
        for counter in range(-(-len(data) // 32)))[:len(data)]
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")


def _mac_key(key: bytes) -> bytes:
    return hashlib.sha256(key + b"|mac|").digest()


def onetime_encrypt(key: OneTimeKey, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC under a one-time key.

    Output layout: ``ciphertext || tag`` with a 32-byte HMAC-SHA256 tag.
    """
    ciphertext = _xor_keystream(key.material, plaintext)
    tag = hmac.new(_mac_key(key.material), ciphertext, hashlib.sha256).digest()
    return ciphertext + tag


def onetime_decrypt(key: OneTimeKey, blob: bytes) -> bytes:
    """Verify the tag and decrypt; raises :class:`EncryptionError` on tamper."""
    if len(blob) < _TAG_LENGTH:
        raise EncryptionError("one-time ciphertext too short to contain a tag")
    ciphertext, tag = blob[:-_TAG_LENGTH], blob[-_TAG_LENGTH:]
    expected = hmac.new(_mac_key(key.material), ciphertext, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise EncryptionError("one-time ciphertext failed authentication")
    return _xor_keystream(key.material, ciphertext)
