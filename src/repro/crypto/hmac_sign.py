"""Symmetric (HMAC) sample authentication — paper §VII-A1(a).

The discussion section proposes replacing per-sample RSA signatures with a
flight-scoped symmetric key negotiated between the drone TEE and the
Auditor, because asymmetric signing dominates the CPU cost on the Pi.  The
HMAC mode here backs the signing-scheme ablation benchmark and the
``symmetric`` PoA extension.
"""

from __future__ import annotations

import hmac
import hashlib
import random

from repro.errors import ConfigurationError

#: HMAC-SHA256 output length in bytes.
HMAC_TAG_LENGTH = 32


def generate_hmac_key(rng: random.Random | None = None, length: int = 32) -> bytes:
    """A fresh random HMAC key of ``length`` bytes (default 256-bit)."""
    if length < 16:
        raise ConfigurationError("HMAC keys shorter than 128 bits are not allowed")
    rng = rng or random.SystemRandom()
    return rng.randbytes(length)


def hmac_sign(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 tag over ``message``."""
    return hmac.new(key, message, hashlib.sha256).digest()


def hmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time verification of an HMAC-SHA256 tag."""
    return hmac.compare_digest(hmac_sign(key, message), tag)
