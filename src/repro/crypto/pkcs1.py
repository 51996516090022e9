"""PKCS#1 v1.5 signature and encryption schemes (RFC 8017).

Implements the two algorithms the paper's prototype calls through the
GlobalPlatform TEE API:

* ``RSASSA-PKCS1-v1_5`` with SHA-1 (the prototype's
  ``TEE_ALG_RSASSA_PKCS1_V1_5_SHA1``) or SHA-256 — used by the GPS Sampler
  TA to sign samples.
* ``RSAES-PKCS1-v1_5`` — used by the Adapter to wrap each submission's
  record key under the Auditor's public key (:mod:`repro.crypto.envelope`).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random
from typing import Sequence

from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import CryptoError, EncryptionError, SignatureError

# DER-encoded DigestInfo prefixes (RFC 8017 §9.2 note 1).
_DIGEST_INFO_PREFIX: dict[str, bytes] = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
    "sha384": bytes.fromhex("3041300d060960864801650304020205000430"),
    "sha512": bytes.fromhex("3051300d060960864801650304020305000440"),
}


def i2osp(x: int, length: int) -> bytes:
    """Integer-to-octet-string primitive (big endian, fixed length)."""
    if x < 0 or x >= 256 ** length:
        raise CryptoError("integer too large for I2OSP output length")
    return x.to_bytes(length, "big")


def os2ip(octets: bytes) -> int:
    """Octet-string-to-integer primitive."""
    return int.from_bytes(octets, "big")


def _digest_info(message: bytes, hash_name: str) -> bytes:
    prefix = _DIGEST_INFO_PREFIX.get(hash_name)
    if prefix is None:
        raise CryptoError(f"unsupported hash for PKCS#1 v1.5: {hash_name!r}")
    digest = hashlib.new(hash_name, message).digest()
    return prefix + digest


def _emsa_pkcs1_v15_encode(message: bytes, em_len: int, hash_name: str) -> bytes:
    """EMSA-PKCS1-v1_5 encoding: ``00 01 FF..FF 00 || DigestInfo``."""
    t = _digest_info(message, hash_name)
    if em_len < len(t) + 11:
        raise SignatureError("intended encoded message length too short")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def sign_pkcs1_v15(key: RsaPrivateKey, message: bytes,
                   hash_name: str = "sha1") -> bytes:
    """RSASSA-PKCS1-v1_5 signature generation.

    Defaults to SHA-1 to match the prototype's OP-TEE algorithm id; SHA-256
    is also supported (and is what a modern deployment should use).
    """
    k = key.byte_length
    em = _emsa_pkcs1_v15_encode(message, k, hash_name)
    return i2osp(key.raw_sign(os2ip(em)), k)


def verify_pkcs1_v15(key: RsaPublicKey, message: bytes, signature: bytes,
                     hash_name: str = "sha1") -> bool:
    """RSASSA-PKCS1-v1_5 signature verification.

    Returns False on any mismatch instead of raising, so callers can treat
    a bad signature as a protocol outcome rather than an exception.
    """
    k = key.byte_length
    if len(signature) != k:
        return False
    try:
        em = i2osp(key.raw_verify(os2ip(signature)), k)
        expected = _emsa_pkcs1_v15_encode(message, k, hash_name)
    except CryptoError:
        return False
    return _hmac.compare_digest(em, expected)


def screen_pkcs1_v15(key: RsaPublicKey,
                     items: "Sequence[tuple[bytes, bytes]]",
                     hash_name: str = "sha1") -> bool | None:
    """Batch *screening* of same-key RSASSA-PKCS1-v1_5 signatures.

    Bellare–Garay–Rabin screening: for signatures ``s_i`` over messages
    ``m_i`` under one key ``(n, e)``, check

        ``(prod s_i)^e  ==  prod EMSA(m_i)   (mod n)``

    which costs a single public-key exponentiation plus two modular
    multiplications per signature, instead of one exponentiation per
    signature.  Returns:

    * ``True``  — the batch screens valid.  For *distinct* messages this
      implies (under the RSA assumption) that every message was signed by
      the key holder at some point; it does **not** pin each individual
      ``s_i`` to ``m_i`` (an adversary holding valid signatures can permute
      multiplicative factors between them).  Callers that need per-index
      attribution of failures must fall back to :func:`verify_pkcs1_v15`.
    * ``False`` — at least one signature is invalid (fall back to find out
      which).
    * ``None``  — the batch is not screenable (duplicate messages, bad
      signature length, out-of-range value, unsupported hash): the caller
      must verify individually.
    """
    if not items:
        return True
    k = key.byte_length
    seen: set[bytes] = set()
    sig_product = 1
    em_product = 1
    for message, signature in items:
        if len(signature) != k:
            return None
        if message in seen:
            return None  # screening soundness needs distinct messages
        seen.add(message)
        s = os2ip(signature)
        if not 0 <= s < key.n:
            return None
        try:
            em = _emsa_pkcs1_v15_encode(message, k, hash_name)
        except CryptoError:
            return None
        sig_product = (sig_product * s) % key.n
        em_product = (em_product * os2ip(em)) % key.n
    return pow(sig_product, key.e, key.n) == em_product


def encrypt_pkcs1_v15(key: RsaPublicKey, message: bytes,
                      rng: random.Random | None = None) -> bytes:
    """RSAES-PKCS1-v1_5 encryption: ``00 02 PS 00 M`` with random nonzero PS."""
    k = key.byte_length
    if len(message) > k - 11:
        raise EncryptionError(f"message too long for RSAES-PKCS1-v1_5: {len(message)} > {k - 11}")
    ps = _nonzero_bytes(rng or random.SystemRandom(), k - len(message) - 3)
    em = b"\x00\x02" + ps + b"\x00" + message
    return i2osp(key.raw_encrypt(os2ip(em)), k)


def _nonzero_bytes(rng: random.Random, length: int) -> bytes:
    """``length`` uniform nonzero bytes: one bulk draw, zeros redrawn."""
    ps = rng.randbytes(length).replace(b"\x00", b"")
    while len(ps) < length:
        ps += rng.randbytes(length - len(ps)).replace(b"\x00", b"")
    return ps


def decrypt_pkcs1_v15(key: RsaPrivateKey, ciphertext: bytes) -> bytes:
    """RSAES-PKCS1-v1_5 decryption.

    Raises:
        EncryptionError: on malformed padding.  The messages tell the
            failures apart, which would be a Bleichenbacher oracle if a
            submitter could read them.  The Auditor reaches this only
            through :mod:`repro.crypto.envelope`, which unwraps one key per
            submission and reports a padding failure, a wrong key length
            and a bad record tag with one message, so a stored
            ``decrypt_failed`` verdict does not say which check failed.
            (Timing still could; the Auditor opens submissions offline,
            not in a request/response loop.)
    """
    k = key.byte_length
    if len(ciphertext) != k or k < 11:
        raise EncryptionError("ciphertext length does not match key size")
    try:
        em = i2osp(key.raw_decrypt(os2ip(ciphertext)), k)
    except CryptoError as exc:
        # A right-length ciphertext can still exceed the modulus (e.g. a
        # flipped high bit); RFC 8017 folds RSADP's out-of-range case
        # into the uniform "decryption error".
        raise EncryptionError(str(exc)) from None
    if em[0] != 0x00 or em[1] != 0x02:
        raise EncryptionError("invalid RSAES-PKCS1-v1_5 padding header")
    try:
        separator = em.index(b"\x00", 2)
    except ValueError:
        raise EncryptionError("missing RSAES-PKCS1-v1_5 padding separator") from None
    if separator < 10:
        raise EncryptionError("RSAES-PKCS1-v1_5 padding string too short")
    return em[separator + 1:]
