"""AliDrone protocol messages (paper §IV-B, Table I).

Five interactions: drone registration (0), zone registration (1), zone
query/response (2-3), and PoA submission (4).  Messages are plain frozen
dataclasses; the signed parts (the zone query nonce) carry explicit
sign/verify helpers so the Auditor-side checks are one call.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import Sequence

from repro.core.nfz import NoFlyZone
from repro.core.poa import EncryptedPoaRecord
from repro.crypto.pkcs1 import sign_pkcs1_v15, verify_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.schemes import SCHEME_RSA
from repro.errors import ProtocolError
from repro.geo.geodesy import GeoPoint

#: Zone-query nonce length in bytes.
NONCE_LENGTH = 16


def generate_nonce(rng: random.Random | None = None) -> bytes:
    """A fresh random nonce for a zone query."""
    rng = rng or random.SystemRandom()
    return rng.randbytes(NONCE_LENGTH)


@dataclass(frozen=True, slots=True)
class DroneRegistrationRequest:
    """Step 0: the operator registers a drone with the Auditor.

    Carries the operator's verification key ``D+``, the TEE verification
    key ``T+`` exported at manufacture, and optionally the manufacturer's
    attestation quote binding ``T+`` to a genuine device (an Auditor
    running with ``require_attestation`` rejects requests without one).
    """

    operator_public_key: RsaPublicKey
    tee_public_key: RsaPublicKey
    operator_name: str = ""
    quote: object | None = None  # repro.tee.attestation.DeviceQuote


@dataclass(frozen=True, slots=True)
class ZoneRegistrationRequest:
    """Step 1: a Zone Owner registers an NFZ over their property."""

    zone: NoFlyZone
    proof_of_ownership: str
    owner_name: str = ""


@dataclass(frozen=True, slots=True)
class ZoneQuery:
    """Steps 2-3: the pre-flight NFZ lookup.

    ``(id_drone, (x1, y1), (x2, y2), nonce, Sig(nonce, D-))`` — the two
    corners bound the intended navigation rectangle.  Following the paper,
    the operator's signature covers the *nonce* only; it authenticates the
    querying drone rather than protecting the rectangle's integrity.
    """

    drone_id: str
    corner_a: GeoPoint
    corner_b: GeoPoint
    nonce: bytes
    signature: bytes

    @classmethod
    def create(cls, drone_id: str, corner_a: GeoPoint, corner_b: GeoPoint,
               operator_key: RsaPrivateKey,
               rng: random.Random | None = None) -> "ZoneQuery":
        """Build and sign a query with a fresh nonce."""
        nonce = generate_nonce(rng)
        return cls(drone_id=drone_id, corner_a=corner_a, corner_b=corner_b,
                   nonce=nonce,
                   signature=sign_pkcs1_v15(operator_key, nonce, "sha256"))

    def verify(self, operator_public_key: RsaPublicKey) -> bool:
        """Auditor-side check that the nonce was signed by ``D-``."""
        if len(self.nonce) != NONCE_LENGTH:
            return False
        return verify_pkcs1_v15(operator_public_key, self.nonce,
                                self.signature, "sha256")


@dataclass(frozen=True, slots=True)
class ZoneResponse:
    """The Auditor's answer: all registered NFZs within the rectangle."""

    zones: tuple[tuple[str, NoFlyZone], ...]

    @property
    def zone_list(self) -> list[NoFlyZone]:
        """Just the zones, without their identifiers."""
        return [zone for _, zone in self.zones]


@dataclass(frozen=True)
class PoaSubmission:
    """Step 4: the post-flight Proof-of-Alibi upload.

    Records are per-sample Adapter-encrypted blobs with cleartext TEE
    authenticators; ``flight_id`` ties the submission to one flight for
    evidence retention and replay checks.  ``scheme`` names the
    authentication scheme the flight used and ``finalizer`` carries its
    flight-level blob (batch signature or hash-chain closure) — both ride
    in the clear, like the per-sample authenticators.
    """

    drone_id: str
    flight_id: str
    records: tuple[EncryptedPoaRecord, ...]
    claimed_start: float
    claimed_end: float
    scheme: str
    finalizer: bytes

    def __init__(self, drone_id: str, flight_id: str,
                 records: Sequence[EncryptedPoaRecord],
                 claimed_start: float, claimed_end: float,
                 scheme: str = SCHEME_RSA, finalizer: bytes = b""):
        claimed_start, claimed_end = float(claimed_start), float(claimed_end)
        if not (math.isfinite(claimed_start) and math.isfinite(claimed_end)):
            raise ProtocolError("flight window times must be finite")
        if claimed_end < claimed_start:
            raise ProtocolError("flight window end precedes its start")
        object.__setattr__(self, "drone_id", drone_id)
        object.__setattr__(self, "flight_id", flight_id)
        object.__setattr__(self, "records", tuple(records))
        object.__setattr__(self, "claimed_start", claimed_start)
        object.__setattr__(self, "claimed_end", claimed_end)
        object.__setattr__(self, "scheme", str(scheme))
        object.__setattr__(self, "finalizer", bytes(finalizer))


@dataclass(frozen=True, slots=True)
class IncidentReport:
    """A Zone Owner's accusation: drone spotted near their NFZ."""

    zone_id: str
    drone_id: str
    incident_time: float
    description: str = ""


def rect_bounds(a: GeoPoint, b: GeoPoint) -> tuple[float, float, float, float]:
    """Normalized ``(lat_min, lon_min, lat_max, lon_max)`` of a query rect."""
    return (min(a.lat, b.lat), min(a.lon, b.lon),
            max(a.lat, b.lat), max(a.lon, b.lon))


def pack_flight_window(start: float, end: float) -> bytes:
    """Binary form of a flight window (used in evidence digests)."""
    return struct.pack(">dd", start, end)
