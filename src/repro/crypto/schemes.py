"""Pluggable sample-authentication schemes for Proof-of-Alibi flights.

The paper's prototype authenticates every GPS sample with one RSA
signature (``TEE_ALG_RSASSA_PKCS1_V1_5_SHA1``).  Its discussion section —
and the TBRD line of work on TESLA-authenticated Remote ID broadcasts —
sketch cheaper shapes: sign the whole trace once, or anchor a symmetric
hash chain with a single asymmetric commitment.  This module makes the
choice explicit: an :class:`AuthScheme` turns payloads into per-sample
auth blobs plus an optional flight-level *finalizer*, and verifies a whole
flight's entries in one call.  Everything downstream (the PoA container,
the verification pipeline, the batch audit engine, the conformance
reference) dispatches on a scheme id string instead of hardwiring RSA.

Four schemes ship:

* ``rsa-v15`` — the paper's default: one RSASSA-PKCS1-v1_5 signature per
  sample, no finalizer.  Supports Bellare–Garay–Rabin batch screening.
* ``rsa-batch`` — §VII-A1(b): samples carry empty blobs; the finalizer is
  one RSA signature over the length-framed SHA-256 of all payloads.
* ``hash-chain`` — TBRD-style amortized authentication: at flight start
  the TA commits to a hash-chain anchor with one RSA signature; each
  sample's blob is a chained HMAC keyed off the previous link; the
  finalizer discloses the chain key and closes the chain with a second
  RSA signature over ``(anchor, final link, count)``.  The verifier
  replays the chain, so truncation, splice, and reorder are rejected
  structurally with exactly two RSA operations per flight.
* ``merkle-disclosure`` — the selective-disclosure commitment
  (:mod:`repro.privacy`): one RSA signature per flight over the Merkle
  root, epoch, and leaf count of the whole trace.  A submission either
  carries the full trace (empty blobs, recomputed root) or a *subset*
  of samples whose blobs are index-addressed membership proofs; either
  way the signature pins every revealed sample to its position in the
  committed flight.  Whether the revealed subset is *enough* is a
  verification-pipeline question (the disclosure stage), not an
  authenticity one.

Verification never raises on malformed adversarial input: structural
failures (bad finalizer, count mismatch, broken commitment) condemn every
index, which the pipeline reports as ``REJECTED_BAD_SIGNATURE``.
"""

from __future__ import annotations

import abc
import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.digest import framed_hmac_sha256, framed_sha256
from repro.crypto.pkcs1 import screen_pkcs1_v15, sign_pkcs1_v15, verify_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import SchemeError

#: Scheme ids are a wire/report format (they ride in submissions and
#: serialized PoAs): never rename them.
SCHEME_RSA = "rsa-v15"
SCHEME_BATCH = "rsa-batch"
SCHEME_CHAIN = "hash-chain"
SCHEME_MERKLE = "merkle-disclosure"

#: Hash-chain geometry: SHA-256 links and a 256-bit chain key.
CHAIN_LINK_LENGTH = 32
CHAIN_KEY_LENGTH = 32

_CHAIN_MAGIC = b"ADC1"
_CHAIN_KEY_TAG = b"ADCH-KEY\x00"
_CHAIN_COMMIT_TAG = b"ADCH-COMMIT\x00"
_CHAIN_CLOSE_TAG = b"ADCH-CLOSE\x00"


# --- hash-chain construction (shared by the TA signer and the verifier) ----

def chain_anchor(chain_key: bytes) -> bytes:
    """The chain anchor ``A = SHA-256(tag || K)`` committed at flight start."""
    return hashlib.sha256(_CHAIN_KEY_TAG + chain_key).digest()


def chain_link(chain_key: bytes, previous_link: bytes, payload: bytes) -> bytes:
    """One chain link: HMAC over the framed previous link and payload."""
    return framed_hmac_sha256(chain_key, (previous_link, payload))


def chain_commit_payload(anchor: bytes) -> bytes:
    """What the flight-start RSA commitment signs."""
    return _CHAIN_COMMIT_TAG + anchor


def chain_close_payload(anchor: bytes, final_link: bytes, count: int) -> bytes:
    """What the flight-end RSA closure signs: anchor, last link, count."""
    return _CHAIN_CLOSE_TAG + anchor + final_link + struct.pack(">I", count)


@dataclass(frozen=True, slots=True)
class ChainFinalizer:
    """The decoded hash-chain finalizer blob.

    Disclosing ``chain_key`` at flight end is what lets the Auditor replay
    the HMAC links; unforgeability then rests on the two RSA signatures,
    which an attacker holding the disclosed key still cannot produce.
    """

    count: int
    anchor: bytes
    chain_key: bytes
    commitment_signature: bytes
    close_signature: bytes

    def to_bytes(self) -> bytes:
        return b"".join([
            _CHAIN_MAGIC,
            struct.pack(">I", self.count),
            self.anchor,
            self.chain_key,
            struct.pack(">H", len(self.commitment_signature)),
            self.commitment_signature,
            struct.pack(">H", len(self.close_signature)),
            self.close_signature,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "ChainFinalizer":
        """Decode a finalizer blob; raises :class:`SchemeError` when malformed."""
        fixed = len(_CHAIN_MAGIC) + 4 + CHAIN_LINK_LENGTH + CHAIN_KEY_LENGTH
        if len(data) < fixed or data[:4] != _CHAIN_MAGIC:
            raise SchemeError("malformed hash-chain finalizer header")
        (count,) = struct.unpack_from(">I", data, 4)
        offset = 8
        anchor = data[offset:offset + CHAIN_LINK_LENGTH]
        offset += CHAIN_LINK_LENGTH
        chain_key = data[offset:offset + CHAIN_KEY_LENGTH]
        offset += CHAIN_KEY_LENGTH
        sigs = []
        for _ in range(2):
            if offset + 2 > len(data):
                raise SchemeError("truncated hash-chain finalizer signature")
            (length,) = struct.unpack_from(">H", data, offset)
            offset += 2
            if offset + length > len(data):
                raise SchemeError("truncated hash-chain finalizer signature")
            sigs.append(data[offset:offset + length])
            offset += length
        if offset != len(data):
            raise SchemeError("trailing bytes after hash-chain finalizer")
        return cls(count=count, anchor=anchor, chain_key=chain_key,
                   commitment_signature=sigs[0], close_signature=sigs[1])


# --- the scheme interface ---------------------------------------------------

class SampleSigner(abc.ABC):
    """Flight-scoped signing state: one per flight, inside the TEE."""

    @abc.abstractmethod
    def sign_sample(self, payload: bytes) -> bytes:
        """The auth blob for the next sample of the flight."""

    @abc.abstractmethod
    def finalize_flight(self) -> bytes:
        """The flight-level finalizer blob (empty for per-sample schemes)."""


class AuthScheme(abc.ABC):
    """One way of authenticating a flight's worth of GPS samples.

    ``verify`` is the authoritative flight-level check: given the
    ``(payload, auth_blob)`` entries in submission order plus the
    finalizer, it returns the sorted indices that fail authentication —
    empty means the flight authenticates.  It never raises on malformed
    input; a flight-level structural failure condemns every index.
    """

    id: str = "scheme"

    @abc.abstractmethod
    def new_signer(self, key: RsaPrivateKey, hash_name: str = "sha1",
                   rng: random.Random | None = None) -> SampleSigner:
        """Fresh flight-scoped signing state under ``T-``."""

    @abc.abstractmethod
    def verify(self, key: RsaPublicKey,
               entries: Sequence[tuple[bytes, bytes]],
               finalizer: bytes = b"", hash_name: str = "sha1") -> list[int]:
        """Sorted indices of entries that fail authentication."""

    def verify_sample(self, key: RsaPublicKey, payload: bytes, auth: bytes,
                      hash_name: str = "sha1") -> bool:
        """Whether one sample stands alone; flight-level schemes say no."""
        del key, payload, auth, hash_name
        return False

    def screen(self, key: RsaPublicKey,
               entries: Sequence[tuple[bytes, bytes]],
               finalizer: bytes = b"", hash_name: str = "sha1") -> bool | None:
        """Optional batch-screening fast path.

        ``True`` means the whole flight screens authentic (skip
        :meth:`verify`); ``None`` means no fast path exists and the caller
        must verify; ``False`` means screening found a failure and the
        caller must verify to learn the indices.
        """
        del key, entries, finalizer, hash_name
        return None

    def wire_bytes(self, entries: Sequence[tuple[bytes, bytes]],
                   finalizer: bytes = b"") -> int:
        """Authenticator bytes this flight puts on the wire."""
        return sum(len(auth) for _payload, auth in entries) + len(finalizer)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.id!r}>"


# --- rsa-v15: the paper's default ------------------------------------------

class _RsaPerSampleSigner(SampleSigner):
    def __init__(self, key: RsaPrivateKey, hash_name: str):
        self._key = key
        self._hash_name = hash_name

    def sign_sample(self, payload: bytes) -> bytes:
        return sign_pkcs1_v15(self._key, payload, self._hash_name)

    def finalize_flight(self) -> bytes:
        return b""


class RsaPerSampleScheme(AuthScheme):
    """One RSASSA-PKCS1-v1_5 signature per sample (paper §IV-C2)."""

    id = SCHEME_RSA

    def new_signer(self, key: RsaPrivateKey, hash_name: str = "sha1",
                   rng: random.Random | None = None) -> SampleSigner:
        del rng  # deterministic scheme
        return _RsaPerSampleSigner(key, hash_name)

    def verify(self, key: RsaPublicKey,
               entries: Sequence[tuple[bytes, bytes]],
               finalizer: bytes = b"", hash_name: str = "sha1") -> list[int]:
        if finalizer:
            # A per-sample scheme has no finalizer; one smuggled in is a
            # malformed submission, not evidence.
            return list(range(len(entries)))
        return [i for i, (payload, auth) in enumerate(entries)
                if not verify_pkcs1_v15(key, payload, auth, hash_name)]

    def verify_sample(self, key: RsaPublicKey, payload: bytes, auth: bytes,
                      hash_name: str = "sha1") -> bool:
        return verify_pkcs1_v15(key, payload, auth, hash_name)

    def screen(self, key: RsaPublicKey,
               entries: Sequence[tuple[bytes, bytes]],
               finalizer: bytes = b"", hash_name: str = "sha1") -> bool | None:
        if finalizer:
            return None
        return screen_pkcs1_v15(key, entries, hash_name)


# --- rsa-batch: one signature over the framed trace digest ------------------

class _BatchSigner(SampleSigner):
    def __init__(self, key: RsaPrivateKey, hash_name: str):
        self._key = key
        self._hash_name = hash_name
        self._payloads: list[bytes] = []

    def sign_sample(self, payload: bytes) -> bytes:
        self._payloads.append(payload)
        return b""

    def finalize_flight(self) -> bytes:
        return sign_pkcs1_v15(self._key, framed_sha256(self._payloads),
                              self._hash_name)


class BatchDigestScheme(AuthScheme):
    """Sign the whole trace once at flight end (paper §VII-A1(b))."""

    id = SCHEME_BATCH

    def new_signer(self, key: RsaPrivateKey, hash_name: str = "sha1",
                   rng: random.Random | None = None) -> SampleSigner:
        del rng
        return _BatchSigner(key, hash_name)

    def verify(self, key: RsaPublicKey,
               entries: Sequence[tuple[bytes, bytes]],
               finalizer: bytes = b"", hash_name: str = "sha1") -> list[int]:
        digest = framed_sha256(payload for payload, _auth in entries)
        if not verify_pkcs1_v15(key, digest, finalizer, hash_name):
            return list(range(len(entries)))
        # The digest covers payloads only; a non-empty per-sample blob is
        # foreign material this scheme never produced.
        return [i for i, (_payload, auth) in enumerate(entries) if auth]


# --- hash-chain: TBRD-style amortized authentication ------------------------

class ChainSigner(SampleSigner):
    def __init__(self, key: RsaPrivateKey, hash_name: str,
                 rng: random.Random | None):
        rng = rng or random.SystemRandom()
        self._key = key
        self._hash_name = hash_name
        self._chain_key = rng.randbytes(CHAIN_KEY_LENGTH)
        self._anchor = chain_anchor(self._chain_key)
        self._commitment = sign_pkcs1_v15(
            key, chain_commit_payload(self._anchor), hash_name)
        self._previous = self._anchor
        self._count = 0

    @property
    def anchor(self) -> bytes:
        return self._anchor

    @property
    def commitment_signature(self) -> bytes:
        return self._commitment

    def sign_sample(self, payload: bytes) -> bytes:
        link = chain_link(self._chain_key, self._previous, payload)
        self._previous = link
        self._count += 1
        return link

    def finalize_flight(self) -> bytes:
        close = sign_pkcs1_v15(
            self._key,
            chain_close_payload(self._anchor, self._previous, self._count),
            self._hash_name)
        return ChainFinalizer(
            count=self._count, anchor=self._anchor,
            chain_key=self._chain_key,
            commitment_signature=self._commitment,
            close_signature=close).to_bytes()


class ChainedHmacScheme(AuthScheme):
    """Hash-chain links anchored by one RSA commitment per flight.

    Two RSA operations per flight regardless of sample count; everything
    else is SHA-256/HMAC.  The replayed chain pins each payload to its
    position, so truncation (count mismatch), splice (link mismatch at the
    seam), and reorder (links out of sequence) all fail structurally even
    though the chain key is public after flight-end disclosure.
    """

    id = SCHEME_CHAIN

    def new_signer(self, key: RsaPrivateKey, hash_name: str = "sha1",
                   rng: random.Random | None = None) -> SampleSigner:
        return ChainSigner(key, hash_name, rng)

    def verify(self, key: RsaPublicKey,
               entries: Sequence[tuple[bytes, bytes]],
               finalizer: bytes = b"", hash_name: str = "sha1") -> list[int]:
        all_bad = list(range(len(entries)))
        try:
            fin = ChainFinalizer.from_bytes(finalizer)
        except SchemeError:
            return all_bad
        if chain_anchor(fin.chain_key) != fin.anchor:
            return all_bad
        if not verify_pkcs1_v15(key, chain_commit_payload(fin.anchor),
                                fin.commitment_signature, hash_name):
            return all_bad
        if fin.count != len(entries):
            # Truncated or padded flight: the closure signed a different
            # sample count, so no entry can be attributed.
            return all_bad
        bad = []
        previous = fin.anchor
        for i, (payload, auth) in enumerate(entries):
            if auth != chain_link(fin.chain_key, previous, payload):
                bad.append(i)
            # Replay continues from the *stored* link so one broken link
            # condemns exactly the tampered positions, not the whole tail.
            previous = auth
        if not verify_pkcs1_v15(
                key, chain_close_payload(fin.anchor, previous, fin.count),
                fin.close_signature, hash_name):
            return all_bad
        return bad


# --- merkle-disclosure: one root signature, reveal-what-you-must ------------

#: Merkle finalizer geometry: a SHA-256 root.
MERKLE_ROOT_LENGTH = 32

_MERKLE_MAGIC = b"ADM1"
_MERKLE_ROOT_TAG = b"ADMK-ROOT\x00"


def merkle_root_payload(root: bytes, epoch: float, count: int) -> bytes:
    """What the FinalizeFlight RSA signature signs: root ‖ epoch ‖ count."""
    return (_MERKLE_ROOT_TAG + root + struct.pack(">d", epoch)
            + struct.pack(">I", count))


@dataclass(frozen=True, slots=True)
class MerkleFinalizer:
    """The decoded Merkle-disclosure finalizer blob.

    ``epoch`` is the flight's first sample timestamp; signing it (and the
    leaf count) alongside the root pins the committed trace to a concrete
    flight, so prefix truncation and cross-flight splices cannot be
    papered over by re-using a root signature.
    """

    count: int
    epoch: float
    root: bytes
    root_signature: bytes

    def to_bytes(self) -> bytes:
        return b"".join([
            _MERKLE_MAGIC,
            struct.pack(">I", self.count),
            struct.pack(">d", self.epoch),
            self.root,
            struct.pack(">H", len(self.root_signature)),
            self.root_signature,
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleFinalizer":
        """Decode a finalizer blob; raises :class:`SchemeError` when malformed."""
        fixed = len(_MERKLE_MAGIC) + 4 + 8 + MERKLE_ROOT_LENGTH + 2
        if len(data) < fixed or data[:4] != _MERKLE_MAGIC:
            raise SchemeError("malformed merkle finalizer header")
        (count,) = struct.unpack_from(">I", data, 4)
        (epoch,) = struct.unpack_from(">d", data, 8)
        offset = 16
        root = data[offset:offset + MERKLE_ROOT_LENGTH]
        offset += MERKLE_ROOT_LENGTH
        (length,) = struct.unpack_from(">H", data, offset)
        offset += 2
        if offset + length != len(data):
            raise SchemeError("malformed merkle finalizer signature")
        return cls(count=count, epoch=epoch, root=root,
                   root_signature=data[offset:])


class MerkleSigner(SampleSigner):
    """Accumulates the flight's payloads; one RSA operation at flight end."""

    def __init__(self, key: RsaPrivateKey, hash_name: str):
        self._key = key
        self._hash_name = hash_name
        self._payloads: list[bytes] = []

    def sign_sample(self, payload: bytes) -> bytes:
        self._payloads.append(payload)
        return b""

    def _epoch(self) -> float:
        """First sample timestamp, signed into the root commitment."""
        if not self._payloads:
            return 0.0
        from repro.core.samples import GpsSample
        from repro.errors import EncodingError
        try:
            return GpsSample.from_signed_payload(self._payloads[0]).t
        except EncodingError:
            return 0.0

    def finalize_flight(self) -> bytes:
        from repro.privacy.merkle import MerkleTree

        tree = MerkleTree(self._payloads)
        epoch = self._epoch()
        signature = sign_pkcs1_v15(
            self._key, merkle_root_payload(tree.root, epoch, tree.count),
            self._hash_name)
        return MerkleFinalizer(count=tree.count, epoch=epoch, root=tree.root,
                               root_signature=signature).to_bytes()


class MerkleDisclosureScheme(AuthScheme):
    """Merkle-committed trace with selective disclosure (one RSA op/flight).

    Two submission shapes verify against the same finalizer:

    * **full trace** — every blob empty and the entry count equals the
      signed leaf count; the root is recomputed from the payloads.  This
      is what the drone uploads when it has nothing to redact, and what
      flight harnesses produce directly.
    * **disclosed subset** — every blob is a membership proof; proven
      leaf indices must be strictly increasing (submission order *is*
      committed order) and in range of the signed count.

    Authenticity here means "these payloads sit at these positions of
    the signed flight"; gap sufficiency is the verification pipeline's
    disclosure stage, kept out of the crypto layer deliberately.
    """

    id = SCHEME_MERKLE

    def new_signer(self, key: RsaPrivateKey, hash_name: str = "sha1",
                   rng: random.Random | None = None) -> SampleSigner:
        del rng  # deterministic scheme
        return MerkleSigner(key, hash_name)

    def verify(self, key: RsaPublicKey,
               entries: Sequence[tuple[bytes, bytes]],
               finalizer: bytes = b"", hash_name: str = "sha1") -> list[int]:
        from repro.privacy.merkle import (
            MembershipProof, merkle_root, verify_membership)

        all_bad = list(range(len(entries)))
        try:
            fin = MerkleFinalizer.from_bytes(finalizer)
        except SchemeError:
            return all_bad
        if len(fin.root) != MERKLE_ROOT_LENGTH:
            return all_bad
        if not verify_pkcs1_v15(
                key, merkle_root_payload(fin.root, fin.epoch, fin.count),
                fin.root_signature, hash_name):
            return all_bad
        if all(not auth for _payload, auth in entries):
            # Full-trace mode: the payloads must *be* the committed flight.
            if len(entries) != fin.count:
                return all_bad
            if merkle_root([payload for payload, _auth in entries]) != fin.root:
                return all_bad
            return []
        proofs = []
        for _payload, auth in entries:
            try:
                proofs.append(MembershipProof.from_bytes(auth))
            except SchemeError:
                return all_bad
        indices = [proof.leaf_index for proof in proofs]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            # Reordered or duplicated disclosure: positions are committed,
            # so the subset must arrive in committed order.
            return all_bad
        if any(index >= fin.count for index in indices):
            return all_bad
        return [i for i, ((payload, _auth), proof) in
                enumerate(zip(entries, proofs))
                if not verify_membership(fin.root, fin.count,
                                         proof.leaf_index, payload,
                                         proof.siblings)]


# --- registry ---------------------------------------------------------------

_SCHEMES: dict[str, AuthScheme] = {
    scheme.id: scheme
    for scheme in (RsaPerSampleScheme(), BatchDigestScheme(),
                   ChainedHmacScheme(), MerkleDisclosureScheme())
}


def get_scheme(scheme_id: str) -> AuthScheme:
    """The registered scheme for an id; raises :class:`SchemeError`."""
    scheme = _SCHEMES.get(scheme_id)
    if scheme is None:
        raise SchemeError(f"unknown authentication scheme {scheme_id!r}")
    return scheme


def scheme_ids() -> tuple[str, ...]:
    """All registered scheme ids, default first."""
    return tuple(_SCHEMES)


def authenticate_payloads(key: RsaPrivateKey, payloads: Sequence[bytes],
                          scheme_id: str = SCHEME_RSA,
                          hash_name: str = "sha1",
                          rng: random.Random | None = None,
                          ) -> tuple[list[bytes], bytes]:
    """Authenticate a whole flight at once: ``(auth_blobs, finalizer)``.

    Convenience for harnesses and benchmarks; the real flight path streams
    payloads through a :class:`SampleSigner` inside the TEE.
    """
    signer = get_scheme(scheme_id).new_signer(key, hash_name=hash_name,
                                              rng=rng)
    blobs = [signer.sign_sample(payload) for payload in payloads]
    return blobs, signer.finalize_flight()
