"""Privacy-preserving verification (paper §VII-B3).

Against an honest-but-curious Auditor, the operator encrypts every PoA
sample under its own one-time key before upload.  When a Zone Owner files
an incident report, the operator reveals only the keys for the two samples
bracketing the incident time; the Auditor decrypts exactly that pair,
checks the TEE signatures, and decides sufficiency against the single
accusing zone.  The Auditor thus learns at most two points of the
trajectory per accusation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.sufficiency import bracketing_pair_clears
from repro.crypto.onetime import OneTimeKey, onetime_decrypt, onetime_encrypt
from repro.crypto.rsa import RsaPublicKey
from repro.errors import EncryptionError, VerificationError
from repro.geo.geodesy import LocalFrame
from repro.units import FAA_MAX_SPEED_MPS


@dataclass(frozen=True, slots=True)
class PrivatePoaEntry:
    """One uploaded record: one-time-encrypted payload + TEE signature."""

    blob: bytes
    signature: bytes


@dataclass(frozen=True)
class PrivatePoa:
    """The Auditor's view of a privacy-preserving submission."""

    entries: tuple[PrivatePoaEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def build_private_poa(poa: ProofOfAlibi,
                      rng: random.Random | None = None,
                      ) -> tuple[PrivatePoa, list[OneTimeKey]]:
    """Encrypt each signed sample under a fresh one-time key.

    Returns the uploadable PoA and the key list, which stays with the
    operator.  Signatures remain cleartext: they are deterministic values
    over the hidden payloads and reveal nothing useful without them.
    """
    rng = rng or random.SystemRandom()
    keys = [OneTimeKey.generate(rng) for _ in range(len(poa))]
    entries = tuple(
        PrivatePoaEntry(blob=onetime_encrypt(key, entry.payload),
                        signature=entry.signature)
        for key, entry in zip(keys, poa))
    return PrivatePoa(entries=entries), keys


def keys_for_incident(poa: ProofOfAlibi, keys: list[OneTimeKey],
                      incident_time: float) -> dict[int, OneTimeKey]:
    """Operator side: the two keys bracketing the incident time.

    Raises:
        VerificationError: the PoA does not cover the incident time (in
            which case the operator has nothing exculpatory to reveal).
    """
    samples = [entry.sample for entry in poa]
    for i in range(len(samples) - 1):
        if samples[i].t <= incident_time <= samples[i + 1].t:
            return {i: keys[i], i + 1: keys[i + 1]}
    raise VerificationError("PoA does not cover the incident time")


def verify_private_disclosure(private_poa: PrivatePoa,
                              disclosed: dict[int, OneTimeKey],
                              tee_public_key: RsaPublicKey,
                              zone: NoFlyZone, incident_time: float,
                              frame: LocalFrame,
                              vmax_mps: float = FAA_MAX_SPEED_MPS,
                              hash_name: str = "sha1") -> bool:
    """Auditor side: adjudicate an incident from a two-key disclosure.

    Returns True when the disclosed pair proves the drone could not have
    entered ``zone`` at ``incident_time``.  Raises
    :class:`VerificationError` when the disclosure is unusable (wrong
    indices, bad decryption, bad signatures, pair not bracketing).
    """
    if len(disclosed) != 2:
        raise VerificationError("disclosure must reveal exactly two samples")
    indices = sorted(disclosed)
    if indices[1] != indices[0] + 1:
        raise VerificationError("disclosed samples must be consecutive")
    samples = []
    for index in indices:
        if not 0 <= index < len(private_poa.entries):
            raise VerificationError(f"disclosed index {index} out of range")
        entry = private_poa.entries[index]
        try:
            payload = onetime_decrypt(disclosed[index], entry.blob)
        except EncryptionError as exc:
            raise VerificationError(f"sample {index} failed decryption") from exc
        signed = SignedSample(payload=payload, signature=entry.signature)
        if not signed.verify(tee_public_key, hash_name):
            raise VerificationError(f"sample {index} failed TEE signature check")
        samples.append(signed.sample)
    first, second = samples
    if not first.t <= incident_time <= second.t:
        raise VerificationError("disclosed pair does not bracket the incident")
    return bracketing_pair_clears(samples, zone, incident_time, frame,
                                  vmax_mps)
