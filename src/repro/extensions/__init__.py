"""Extensions from the paper's discussion section (§VII).

* 3-D physical model (ellipsoid vs cylinder NFZs) — §VII-B1
* Arbitrary polygon NFZs via smallest enclosing circle — §VII-B2
* Privacy-preserving verification with one-time keys — §VII-B3

The signing-cost answers of §VII-A1 are authentication schemes of
:mod:`repro.crypto.schemes` served by the one GPS Sampler TA: sign-once
batching is ``rsa-batch`` and per-sample HMAC is ``hash-chain``.
"""

from repro.extensions.threed import (
    pair_is_sufficient_3d,
    alibi_is_sufficient_3d,
    travel_ellipsoid,
)
from repro.extensions.arbitrary_zones import (
    register_polygon_zone,
    overapproximation_ratio,
)
from repro.extensions.privacy import (
    PrivatePoa,
    build_private_poa,
    keys_for_incident,
    verify_private_disclosure,
)

__all__ = [
    "pair_is_sufficient_3d",
    "alibi_is_sufficient_3d",
    "travel_ellipsoid",
    "register_polygon_zone",
    "overapproximation_ratio",
    "PrivatePoa",
    "build_private_poa",
    "keys_for_incident",
    "verify_private_disclosure",
]
