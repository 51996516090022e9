"""Proof-of-Alibi structures (paper §IV-C2).

``PoA = {(S_0, Auth(S_0, T-)), (S_1, Auth(S_1, T-)), ...}`` — GPS samples
paired with TEE-produced authenticators.  Which authenticator depends on
the flight's :mod:`authentication scheme <repro.crypto.schemes>`: the
default is one RSA signature per sample, but a flight may instead carry
empty per-sample blobs plus one batch signature, or chained HMAC links
plus a hash-chain finalizer.  The PoA records the scheme id and the
flight-level finalizer alongside the entries so every verifier can
dispatch without out-of-band context.

The Adapter additionally encrypts the sample payloads for the Auditor
before persisting them (§V-C).  The paper wraps each payload with
``RSAES_PKCS1_v1_5``; :func:`encrypt_poa`/:func:`decrypt_poa` instead
seal a submission under one RSA-wrapped key
(:mod:`repro.crypto.envelope`), so the Auditor pays one private-key
operation per submission rather than one per record.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.samples import GpsSample, Trace
from repro.crypto import envelope
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.schemes import SCHEME_RSA, get_scheme
from repro.errors import EncodingError

#: Magic tag opening the versioned PoA encoding.  The legacy (pre-scheme)
#: encoding starts with a 4-byte big-endian entry count, which would have
#: to be 0x41445041 (~1.1 billion entries) to collide with this.
_POA_MAGIC = b"ADPA"
_POA_VERSION = 1


@dataclass(frozen=True, slots=True)
class SignedSample:
    """One ``(S_i, Auth(S_i, T-))`` entry of a PoA.

    Attributes:
        payload: the canonical sample encoding that was authenticated in
            the TEE.
        signature: the per-sample auth blob — an RSASSA-PKCS1-v1_5
            signature for the default scheme, a chained HMAC link for
            ``hash-chain``, empty for ``rsa-batch``.
        scheme: the authentication scheme id that produced the blob.
    """

    payload: bytes
    signature: bytes
    scheme: str = SCHEME_RSA

    @classmethod
    def from_ta_output(cls, output: Mapping[str, object]) -> "SignedSample":
        """Wrap the dict the GPS Sampler TA's ``GetGPSAuth`` returns."""
        return cls(payload=bytes(output["payload"]),
                   signature=bytes(output["signature"]),
                   scheme=str(output.get("scheme", SCHEME_RSA)))

    @property
    def sample(self) -> GpsSample:
        """The decoded GPS sample."""
        return GpsSample.from_signed_payload(self.payload)

    def verify(self, tee_public_key: RsaPublicKey,
               hash_name: str = "sha1") -> bool:
        """Whether this sample authenticates standing alone under ``T+``.

        Only per-sample schemes can say yes; flight-level schemes (batch,
        hash-chain) return False here and are checked via
        :meth:`ProofOfAlibi.verify_all` with the finalizer present.
        """
        return get_scheme(self.scheme).verify_sample(
            tee_public_key, self.payload, self.signature, hash_name)


class ProofOfAlibi:
    """An ordered collection of authenticated samples for one flight."""

    def __init__(self, entries: Iterable[SignedSample] = (),
                 scheme: str | None = None, finalizer: bytes = b""):
        self._entries: list[SignedSample] = list(entries)
        self._scheme = scheme
        self._finalizer = finalizer

    def append(self, entry: SignedSample) -> None:
        """Append one signed sample."""
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SignedSample]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> SignedSample:
        return self._entries[index]

    @property
    def entries(self) -> tuple[SignedSample, ...]:
        """Read-only view of the signed samples."""
        return tuple(self._entries)

    @property
    def scheme(self) -> str:
        """The flight's authentication scheme id.

        Falls back to the first entry's tag (samplers build PoAs by
        appending TA outputs, which carry the scheme) and finally to the
        per-sample RSA default.
        """
        if self._scheme is not None:
            return self._scheme
        if self._entries:
            return self._entries[0].scheme
        return SCHEME_RSA

    @property
    def finalizer(self) -> bytes:
        """The flight-level finalizer blob (empty for per-sample schemes)."""
        return self._finalizer

    def seal(self, finalizer: bytes) -> None:
        """Attach the flight-level finalizer produced at flight end."""
        self._finalizer = finalizer

    def replace_entries(self, entries: Iterable[SignedSample],
                        ) -> "ProofOfAlibi":
        """A new PoA with different entries but this flight's scheme and
        finalizer — used by attack helpers that rebuild entry lists."""
        return ProofOfAlibi(entries, scheme=self.scheme,
                            finalizer=self._finalizer)

    def trace(self) -> Trace:
        """The decoded alibi ``{S_0, ..., S_n}`` (authenticators stripped)."""
        return Trace(entry.sample for entry in self._entries)

    def verify_all(self, tee_public_key: RsaPublicKey,
                   hash_name: str = "sha1") -> bool:
        """Whether the whole flight authenticates under ``T+``."""
        return not get_scheme(self.scheme).verify(
            tee_public_key,
            [(entry.payload, entry.signature) for entry in self._entries],
            self._finalizer, hash_name)

    # --- persistence -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Length-prefixed binary encoding (the drone's local persistence).

        Default-scheme flights without a finalizer keep the legacy layout
        (a bare entry count) so previously persisted PoAs and their readers
        stay interoperable; anything scheme-tagged gets the versioned
        ``ADPA`` envelope carrying the scheme id and finalizer.
        """
        entry_parts = []
        for entry in self._entries:
            entry_parts.append(struct.pack(">HH", len(entry.payload),
                                           len(entry.signature)))
            entry_parts.append(entry.payload)
            entry_parts.append(entry.signature)
        if self.scheme == SCHEME_RSA and not self._finalizer:
            return b"".join([struct.pack(">I", len(self._entries)),
                             *entry_parts])
        scheme_id = self.scheme.encode("ascii")
        return b"".join([
            _POA_MAGIC,
            struct.pack(">B", _POA_VERSION),
            struct.pack(">B", len(scheme_id)), scheme_id,
            struct.pack(">I", len(self._finalizer)), self._finalizer,
            struct.pack(">I", len(self._entries)),
            *entry_parts,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProofOfAlibi":
        """Decode :meth:`to_bytes` output; raises on malformed input."""
        scheme: str | None = None
        finalizer = b""
        if data[:4] == _POA_MAGIC:
            if len(data) < 6:
                raise EncodingError("truncated PoA header")
            version = data[4]
            if version != _POA_VERSION:
                raise EncodingError(f"unsupported PoA version {version}")
            scheme_len = data[5]
            offset = 6
            if offset + scheme_len + 4 > len(data):
                raise EncodingError("truncated PoA scheme header")
            try:
                scheme = data[offset:offset + scheme_len].decode("ascii")
            except UnicodeDecodeError as exc:
                raise EncodingError("malformed PoA scheme id") from exc
            offset += scheme_len
            (finalizer_len,) = struct.unpack_from(">I", data, offset)
            offset += 4
            if offset + finalizer_len + 4 > len(data):
                raise EncodingError("truncated PoA finalizer")
            finalizer = data[offset:offset + finalizer_len]
            offset += finalizer_len
        else:
            if len(data) < 4:
                raise EncodingError("truncated PoA encoding")
            offset = 0
        (count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        entries = []
        for _ in range(count):
            if offset + 4 > len(data):
                raise EncodingError("truncated PoA entry header")
            payload_len, signature_len = struct.unpack_from(">HH", data, offset)
            offset += 4
            end = offset + payload_len + signature_len
            if end > len(data):
                raise EncodingError("truncated PoA entry body")
            payload = data[offset:offset + payload_len]
            signature = data[offset + payload_len:end]
            entries.append(SignedSample(payload=payload, signature=signature,
                                        scheme=scheme or SCHEME_RSA))
            offset = end
        if offset != len(data):
            raise EncodingError("trailing bytes after PoA encoding")
        return cls(entries, scheme=scheme, finalizer=finalizer)


@dataclass(frozen=True, slots=True)
class EncryptedPoaRecord:
    """One persisted record: encrypted payload + cleartext authenticator."""

    ciphertext: bytes
    signature: bytes


def encrypt_poa(poa: ProofOfAlibi, auditor_public_key: RsaPublicKey,
                rng: random.Random | None = None) -> list[EncryptedPoaRecord]:
    """Seal the sample payloads for the Auditor (§V-C), one record each.

    One fresh key is wrapped under the Auditor's public key and carried
    by record 0 (:func:`repro.crypto.envelope.seal`).  The authenticator
    stays in the clear — it covers the plaintext payload and is checked
    after the Auditor decrypts.  The scheme id and finalizer travel in
    the submission envelope, not per record.
    """
    ciphertexts = envelope.seal(auditor_public_key,
                                [entry.payload for entry in poa], rng)
    return [EncryptedPoaRecord(ciphertext=ciphertext,
                               signature=entry.signature)
            for ciphertext, entry in zip(ciphertexts, poa)]


def decrypt_poa(records: Iterable[EncryptedPoaRecord],
                auditor_private_key: RsaPrivateKey,
                scheme: str = SCHEME_RSA,
                finalizer: bytes = b"") -> ProofOfAlibi:
    """Open Adapter-sealed records back into a PoA.

    Raises:
        repro.errors.EncryptionError: the envelope does not open
            (tampered or misplaced record, wrong key); one message for
            every cause.
    """
    records = list(records)
    payloads = envelope.open_sealed(
        auditor_private_key, [record.ciphertext for record in records])
    return ProofOfAlibi(
        (SignedSample(payload=payload, signature=record.signature,
                      scheme=scheme)
         for payload, record in zip(payloads, records)),
        scheme=scheme, finalizer=finalizer)
