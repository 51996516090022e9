"""The sealed PoA envelope: one RSA-wrapped key per submission.

The paper's Adapter encrypts every sample payload separately with
RSAES-PKCS1-v1_5 under the Auditor's key (§V-C), which costs the Auditor
one private-key operation per record.  The sealed envelope splits the
work the way hybrid encryption does, into one key wrap and a symmetric
data plane:

* the drone draws one fresh 32-byte key ``K`` per submission and wraps
  it once under the Auditor's key, ``RSAES-PKCS1-v1_5(A+, K)``;
* record ``i`` carries ``c_i = u32be(i) ‖ onetime_encrypt(K_i, payload_i)``
  with the subkey ``K_i = SHA-256("ADPE|rec|" ‖ K ‖ u32be(i))``, under the
  encrypt-then-MAC cipher of :mod:`repro.crypto.onetime`;
* record 0's ciphertext is ``0x01 ‖ RSAES-PKCS1-v1_5(A+, K) ‖ c_0``.

Authenticators stay in the clear beside each record.  Every record names
its own index, so each one opens on its own: dropped, duplicated or
swapped records reach the ordering and sufficiency checks as they are.
Record 0 must lead, because it carries the key.

Every way opening can fail (version byte, a length, the PKCS#1 padding,
the unwrapped key's length, a record's tag) raises one
:class:`~repro.errors.EncryptionError` with the one message
:data:`OPEN_FAILED`.  Everything that can be checked without the private
key is checked before the unwrap (:func:`parse`), so malformed input
costs no private-key operation.  docs/PROTOCOL.md §2.5 has the layout.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.crypto.onetime import OneTimeKey, onetime_decrypt, onetime_encrypt
from repro.crypto.pkcs1 import decrypt_pkcs1_v15, encrypt_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import EncryptionError

#: Version byte opening record 0.
VERSION = 0x01
#: Length of the per-submission key ``K``.
KEY_LENGTH = 32
#: The message of every opening failure, whichever check failed.
OPEN_FAILED = "sealed PoA envelope did not open"

_INDEX = struct.Struct(">I")
_SUBKEY_LABEL = b"ADPE|rec|"
#: Shortest record body: its index plus the tag of an empty payload.
_MIN_RECORD = _INDEX.size + 32


@dataclass(frozen=True, slots=True)
class SealedEnvelope:
    """An envelope split for opening, before any private-key work.

    Attributes:
        wrapped_key: the RSAES block carrying ``K`` (empty when there are
            no records).
        records: every record body ``c_i``, record 0's without its header.
    """

    wrapped_key: bytes
    records: tuple[bytes, ...]


def _subkey(key: bytes, index: bytes) -> OneTimeKey:
    return OneTimeKey(hashlib.sha256(_SUBKEY_LABEL + key + index).digest())


def seal(public_key: RsaPublicKey, payloads: Sequence[bytes],
         rng: random.Random | None = None) -> list[bytes]:
    """One ciphertext per payload, all under one fresh wrapped key.

    ``K`` and then the RSAES padding are drawn from ``rng``
    (``SystemRandom`` when None), so a seeded caller gets byte-identical
    output.  A flight without payloads has no record to carry the key and
    seals to ``[]``.
    """
    if not payloads:
        return []
    rng = rng or random.SystemRandom()
    key = rng.randbytes(KEY_LENGTH)
    records = []
    for i, payload in enumerate(payloads):
        index = _INDEX.pack(i)
        records.append(index + onetime_encrypt(_subkey(key, index), payload))
    records[0] = (bytes([VERSION]) + encrypt_pkcs1_v15(public_key, key, rng)
                  + records[0])
    return records


def parse(ciphertexts: Sequence[bytes], key_bytes: int) -> SealedEnvelope:
    """Split an envelope by structure alone; ``key_bytes`` is the
    Auditor's modulus length.  Raises :data:`OPEN_FAILED` on malformed
    input."""
    if not ciphertexts:
        return SealedEnvelope(b"", ())
    first = ciphertexts[0]
    header = 1 + key_bytes
    if len(first) < header or first[0] != VERSION:
        raise EncryptionError(OPEN_FAILED)
    records = (first[header:], *ciphertexts[1:])
    if any(len(record) < _MIN_RECORD for record in records):
        raise EncryptionError(OPEN_FAILED)
    return SealedEnvelope(first[1:header], records)


def unwrap(private_key: RsaPrivateKey, wrapped_key: bytes,
           decrypt: Callable[[RsaPrivateKey, bytes], bytes]
           = decrypt_pkcs1_v15) -> bytes:
    """``K`` from its wrapped block: the envelope's one private-key
    operation.  ``decrypt`` lets a caller route the RSAES call through a
    name of its own."""
    try:
        key = decrypt(private_key, wrapped_key)
    except EncryptionError:
        raise EncryptionError(OPEN_FAILED) from None
    if len(key) != KEY_LENGTH:
        raise EncryptionError(OPEN_FAILED)
    return key


def open_record(key: bytes, record: bytes) -> bytes:
    """One record body's payload under ``K``; no other record is needed."""
    index = record[:_INDEX.size]
    try:
        return onetime_decrypt(_subkey(key, index), record[_INDEX.size:])
    except EncryptionError:
        raise EncryptionError(OPEN_FAILED) from None


def open_sealed(private_key: RsaPrivateKey,
                ciphertexts: Sequence[bytes]) -> list[bytes]:
    """Every payload of an envelope, in record order."""
    sealed = parse(ciphertexts, private_key.byte_length)
    if not sealed.records:
        return []
    key = unwrap(private_key, sealed.wrapped_key)
    return [open_record(key, record) for record in sealed.records]
