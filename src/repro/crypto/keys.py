"""Key serialization and fingerprints.

Keys cross trust boundaries in the protocol (drone registration ships the
TEE verification key and the operator verification key to the Auditor), so
they need a canonical wire form.  We use a minimal length-prefixed binary
encoding rather than full ASN.1: the protocol only ever exchanges keys
produced by this package.
"""

from __future__ import annotations

import hashlib
import struct

from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import CryptoError, EncodingError

_PUBLIC_MAGIC = b"ADPK"   # AliDrone Public Key
_PRIVATE_MAGIC = b"ADSK"  # AliDrone Secret Key


def _encode_int(value: int) -> bytes:
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return struct.pack(">I", len(raw)) + raw


def _decode_int(data: bytes, offset: int) -> tuple[int, int]:
    if offset + 4 > len(data):
        raise EncodingError("truncated key encoding (length prefix)")
    (length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    if offset + length > len(data):
        raise EncodingError("truncated key encoding (integer body)")
    return int.from_bytes(data[offset:offset + length], "big"), offset + length


def public_key_to_bytes(key: RsaPublicKey) -> bytes:
    """Canonical wire encoding of a public key."""
    return _PUBLIC_MAGIC + _encode_int(key.n) + _encode_int(key.e)


def public_key_from_bytes(data: bytes) -> RsaPublicKey:
    """Parse a public key; raises :class:`EncodingError` on malformed input."""
    if data[:4] != _PUBLIC_MAGIC:
        raise EncodingError("not an AliDrone public key encoding")
    n, offset = _decode_int(data, 4)
    e, offset = _decode_int(data, offset)
    if offset != len(data):
        raise EncodingError("trailing bytes after public key encoding")
    return RsaPublicKey(n=n, e=e)


def private_key_to_bytes(key: RsaPrivateKey) -> bytes:
    """Canonical wire encoding of a private key (sealed-storage form).

    ``ADSK ‖ n ‖ e ‖ d ‖ p ‖ q``, plus ``‖ r`` for a key with three
    factors: ``r = p`` for a multi-power key ``n = p²q``, a third prime
    for a three-prime key.
    """
    return _PRIVATE_MAGIC + b"".join(
        _encode_int(value)
        for value in (key.n, key.e, key.d, *key.primes))


def private_key_from_bytes(data: bytes) -> RsaPrivateKey:
    """Parse a private key; raises :class:`EncodingError` on malformed input.

    Five integers are a two-prime key, six a multi-power (``r = p``) or
    three-prime key.  A key that :class:`RsaPrivateKey` rejects (factors
    that do not multiply to ``n``, a prime repeated more than twice,
    factors that share a divisor, a ``d`` that does not invert ``e``
    modulo λ(n)) is malformed input too.
    """
    if data[:4] != _PRIVATE_MAGIC:
        raise EncodingError("not an AliDrone private key encoding")
    offset = 4
    values = []
    while offset < len(data):
        value, offset = _decode_int(data, offset)
        values.append(value)
    if len(values) not in (5, 6):
        raise EncodingError(
            f"private key encoding holds {len(values)} integers, "
            "expected 5 or 6")
    try:
        return RsaPrivateKey(*values)
    except CryptoError as exc:
        raise EncodingError(str(exc)) from None


def key_fingerprint(key: RsaPublicKey) -> str:
    """SHA-256 fingerprint of the canonical public key encoding (hex)."""
    return hashlib.sha256(public_key_to_bytes(key)).hexdigest()
