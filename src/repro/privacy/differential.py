"""Decision-equivalence sweep for the selective-disclosure layer.

:func:`run_disclosure_differential` generates randomized Merkle-committed
flights — honest walks plus deliberately non-compliant ones — and checks
the two standing invariants of the disclosure design:

* **Honest decision identity** — an honest flight verifies ACCEPTED
  under the honest disclosure policy exactly when its full trace does.
  (The policy's gap-repair loop applies the verifier's own conservative
  gap rule, so this is expected to hold with equality, not just
  approximately.)
* **Zero false accepts** — no disclosure, honest or adversarial, ever
  converts a full-trace REJECT into an ACCEPT.  Four adversarial
  disclosure policies are exercised per trial: hiding every
  boundary-near sample behind valid membership proofs (hidden
  incursion), revealing only the endpoints (over-redaction), splicing
  proofs from a different flight under this flight's root signature,
  and forging sibling hashes outright.  The structural attacks (splice,
  forged siblings) must reject *unconditionally* — their content is
  tampered regardless of what the underlying flight did.

The non-compliant flights cover the three rejection families disclosure
could plausibly launder: a walk straight through a zone (insufficient
pairs), an authenticated teleport (speed infeasibility), and a
boundary-hugging walk sampled too sparsely (insufficient coverage).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.conformance.harness import random_zones
from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.crypto.schemes import SCHEME_MERKLE, authenticate_payloads
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.privacy.disclosure import disclose
from repro.privacy.merkle import MembershipProof, MerkleTree
from repro.sim.clock import DEFAULT_EPOCH
from repro.units import FAA_MAX_SPEED_MPS

_ORIGIN = GeoPoint(40.2000, -88.3000)

#: Non-compliant flight kinds, cycled across the sweep's bad trials.
BAD_KINDS = ("violation_walk", "teleport", "sparse_near_zone")

#: Adversarial disclosure policies exercised on every trial.
ADVERSARIAL_POLICIES = ("hide_near_zone", "endpoints_only",
                       "cross_flight_splice", "forged_sibling")

#: Structural policies whose content is tampered: any ACCEPT is a failure.
_STRUCTURAL = frozenset({"cross_flight_splice", "forged_sibling"})


def _merkle_poa(payloads: list[bytes], key: RsaPrivateKey,
                rng: random.Random) -> ProofOfAlibi:
    blobs, finalizer = authenticate_payloads(key, payloads, SCHEME_MERKLE,
                                             rng=rng)
    return ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=SCHEME_MERKLE)
         for payload, blob in zip(payloads, blobs)),
        scheme=SCHEME_MERKLE, finalizer=finalizer)


def _honest_walk(rng: random.Random, frame: LocalFrame,
                 key: RsaPrivateKey, area_m: float = 2_000.0,
                 vmax_mps: float = FAA_MAX_SPEED_MPS) -> ProofOfAlibi:
    """A feasible random walk with enough samples to make redaction real."""
    n = rng.randint(2, 40)
    x = rng.uniform(0.0, area_m)
    y = rng.uniform(0.0, area_m)
    t = DEFAULT_EPOCH + rng.uniform(0.0, 3_600.0)
    payloads = []
    for _ in range(n):
        point = frame.to_geo(x, y)
        payloads.append(GpsSample(point.lat, point.lon, t)
                        .to_signed_payload())
        dt = rng.uniform(0.5, 4.0)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        step = rng.uniform(0.0, 0.8 * vmax_mps) * dt
        x += math.cos(heading) * step
        y += math.sin(heading) * step
        t += dt
    return _merkle_poa(payloads, key, rng)


def _bad_flight(kind: str, rng: random.Random, frame: LocalFrame,
                zones: list[NoFlyZone], key: RsaPrivateKey,
                vmax_mps: float = FAA_MAX_SPEED_MPS) -> ProofOfAlibi:
    """A flight whose *full* trace must not verify ACCEPTED."""
    zone = zones[0]
    cx, cy = frame.to_local(zone.center)
    if kind == "violation_walk":
        # Straight through the zone at an honest cruise speed.
        speed = 0.5 * vmax_mps
        start = (cx - zone.radius_m - 400.0, cy)
        end = (cx + zone.radius_m + 400.0, cy)
        length = math.dist(start, end)
        steps = max(8, int(length / (2.0 * speed)))
        t = DEFAULT_EPOCH + rng.uniform(0.0, 3_600.0)
        payloads = []
        for i in range(steps + 1):
            s = i / steps
            point = frame.to_geo(start[0] + s * (end[0] - start[0]),
                                 start[1] + s * (end[1] - start[1]))
            payloads.append(GpsSample(point.lat, point.lon, t)
                            .to_signed_payload())
            t += length / steps / speed
        return _merkle_poa(payloads, key, rng)
    if kind == "teleport":
        honest = _honest_walk(rng, frame, key, vmax_mps=vmax_mps)
        last = honest.entries[-1].sample
        moved = GpsSample(last.lat + 0.5, last.lon, last.t + 1.0)
        payloads = [entry.payload for entry in honest] \
            + [moved.to_signed_payload()]
        return _merkle_poa(payloads, key, rng)
    if kind == "sparse_near_zone":
        # Hug the boundary with gaps too long to rule out an entrance.
        t = DEFAULT_EPOCH + rng.uniform(0.0, 3_600.0)
        offset = zone.radius_m + 40.0
        payloads = []
        for i in range(4):
            point = frame.to_geo(cx - offset + i * 10.0, cy + offset)
            payloads.append(GpsSample(point.lat, point.lon, t)
                            .to_signed_payload())
            t += 120.0
        return _merkle_poa(payloads, key, rng)
    raise ValueError(f"unknown bad flight kind: {kind}")  # pragma: no cover


def _subset_poa(poa: ProofOfAlibi, indices: list[int]) -> ProofOfAlibi:
    """A disclosure of ``indices`` with *valid* membership proofs."""
    payloads = [entry.payload for entry in poa]
    tree = MerkleTree(payloads)
    entries = [SignedSample(payload=payloads[i],
                            signature=tree.membership_proof(i).to_bytes(),
                            scheme=SCHEME_MERKLE)
               for i in indices]
    return poa.replace_entries(entries)


def _adversarial_disclosure(policy: str, poa: ProofOfAlibi,
                            previous: ProofOfAlibi | None,
                            zones: list[NoFlyZone], frame: LocalFrame,
                            rng: random.Random) -> ProofOfAlibi | None:
    """One adversarially redacted/tampered submission, or None if n/a."""
    n = len(poa)
    if policy == "hide_near_zone":
        # Hidden incursion: suppress everything near a boundary, keep
        # the proofs valid so only the gap rule can object.
        circles = [zone.to_circle(frame) for zone in zones]
        keep = {0, n - 1}
        for i, entry in enumerate(poa):
            position = entry.sample.local_position(frame)
            if all(circle.distance_to_boundary(position) > 50.0
                   for circle in circles):
                keep.add(i)
        return _subset_poa(poa, sorted(keep))
    if policy == "endpoints_only":
        return _subset_poa(poa, sorted({0, n - 1}))
    if policy == "cross_flight_splice":
        if previous is None or len(previous) < 2 or n < 2:
            return None
        # First half of this flight, tail from another flight's tree,
        # all under *this* flight's root signature.
        own = _subset_poa(poa, [0])
        other_payloads = [entry.payload for entry in previous]
        other_tree = MerkleTree(other_payloads)
        foreign_index = len(previous) - 1
        if foreign_index == 0:
            return None
        foreign = SignedSample(
            payload=other_payloads[foreign_index],
            signature=other_tree.membership_proof(
                foreign_index).to_bytes(),
            scheme=SCHEME_MERKLE)
        return poa.replace_entries(list(own.entries) + [foreign])
    if policy == "forged_sibling":
        honest = disclose(poa, zones, frame)
        entries = list(honest.poa.entries)
        target = rng.randrange(len(entries))
        proof = MembershipProof.from_bytes(entries[target].signature)
        doctored = bytearray(entries[target].payload)
        doctored[rng.randrange(len(doctored))] ^= 1 << rng.randrange(8)
        forged = MembershipProof(
            leaf_index=proof.leaf_index,
            siblings=tuple(rng.randbytes(32) for _sibling in proof.siblings))
        entries[target] = SignedSample(payload=bytes(doctored),
                                       signature=forged.to_bytes(),
                                       scheme=SCHEME_MERKLE)
        return honest.poa.replace_entries(entries)
    raise ValueError(f"unknown policy: {policy}")  # pragma: no cover


@dataclass
class DisclosureReport:
    """Aggregate verdict of one disclosure differential run."""

    trajectories: int = 0
    scheme: str = SCHEME_MERKLE
    honest_trials: int = 0
    honest_decision_matches: int = 0
    honest_accepts: int = 0
    bad_trials: int = 0
    bad_rejects_preserved: int = 0
    adversarial_trials: int = 0
    adversarial_false_accepts: int = 0
    adversarial_outcomes: dict = field(default_factory=dict)
    full_wire_bytes: int = 0
    disclosed_wire_bytes: int = 0
    revealed_samples: int = 0
    total_samples: int = 0
    disagreements: list[dict] = field(default_factory=list)

    @property
    def bandwidth_reduction(self) -> float:
        """Full rsa-v15 wire bytes over disclosed wire bytes."""
        if self.disclosed_wire_bytes == 0:
            return 0.0
        return self.full_wire_bytes / self.disclosed_wire_bytes

    @property
    def ok(self) -> bool:
        return (not self.disagreements
                and self.honest_decision_matches == self.honest_trials
                and self.bad_rejects_preserved == self.bad_trials
                and self.adversarial_false_accepts == 0)

    def to_dict(self) -> dict:
        return {
            "trajectories": self.trajectories,
            "scheme": self.scheme,
            "honest_trials": self.honest_trials,
            "honest_decision_matches": self.honest_decision_matches,
            "honest_accepts": self.honest_accepts,
            "bad_trials": self.bad_trials,
            "bad_rejects_preserved": self.bad_rejects_preserved,
            "adversarial_trials": self.adversarial_trials,
            "adversarial_false_accepts": self.adversarial_false_accepts,
            "adversarial_outcomes": self.adversarial_outcomes,
            "full_wire_bytes": self.full_wire_bytes,
            "disclosed_wire_bytes": self.disclosed_wire_bytes,
            "bandwidth_reduction": round(self.bandwidth_reduction, 3),
            "revealed_samples": self.revealed_samples,
            "total_samples": self.total_samples,
            "disagreements": self.disagreements,
            "ok": self.ok,
        }


def run_disclosure_differential(trajectories: int = 200, seed: int = 0,
                                key_bits: int = 512, max_zones: int = 12,
                                ) -> DisclosureReport:
    """Sweep honest + non-compliant flights through every disclosure policy.

    Roughly one trial in three is a non-compliant flight (cycled through
    :data:`BAD_KINDS`); every trial additionally runs all four
    adversarial disclosure policies.  Wire accounting compares the
    honest disclosure against full rsa-v15 disclosure of the same trace
    (one signature per sample), the baseline the paper's prototype
    ships.
    """
    rng = random.Random(seed)
    key = generate_rsa_keypair(key_bits, rng=rng)
    signature_bytes = (key.n.bit_length() + 7) // 8
    frame = LocalFrame(_ORIGIN)
    verifier = PoaVerifier(frame)
    report = DisclosureReport(trajectories=trajectories)
    outcomes = {policy: {"trials": 0, "accepts": 0, "false_accepts": 0}
                for policy in ADVERSARIAL_POLICIES}
    previous: ProofOfAlibi | None = None

    for trial in range(trajectories):
        bad = trial % 3 == 2
        kind = BAD_KINDS[(trial // 3) % len(BAD_KINDS)] if bad else None
        n_zones = rng.randint(1 if bad else 0, max_zones)
        zones = random_zones(rng, frame, n_zones)
        if bad:
            poa = _bad_flight(kind, rng, frame, zones, key)
        else:
            poa = _honest_walk(rng, frame, key)

        full = verifier.verify(poa, key.public_key, zones)
        alibi = disclose(poa, zones, frame)
        disclosed = verifier.verify(alibi.poa, key.public_key, zones)

        if bad:
            report.bad_trials += 1
            preserved = not (full.compliant is False and disclosed.compliant)
            report.bad_rejects_preserved += preserved
            if not preserved:
                report.disagreements.append({
                    "trial": trial, "kind": kind, "zones": n_zones,
                    "full": full.status.value,
                    "disclosed": disclosed.status.value,
                })
        else:
            report.honest_trials += 1
            match = full.compliant == disclosed.compliant
            report.honest_decision_matches += match
            report.honest_accepts += full.compliant
            if not match:
                report.disagreements.append({
                    "trial": trial, "kind": "honest", "zones": n_zones,
                    "full": full.status.value,
                    "disclosed": disclosed.status.value,
                })
            report.full_wire_bytes += sum(
                len(entry.payload) + signature_bytes for entry in poa)
            report.disclosed_wire_bytes += alibi.wire_bytes()
            report.revealed_samples += alibi.revealed_count
            report.total_samples += alibi.total_samples

        for policy in ADVERSARIAL_POLICIES:
            adversarial = _adversarial_disclosure(policy, poa, previous,
                                                  zones, frame, rng)
            if adversarial is None:
                continue
            verdict = verifier.verify(adversarial, key.public_key, zones)
            entry = outcomes[policy]
            entry["trials"] += 1
            report.adversarial_trials += 1
            entry["accepts"] += verdict.compliant
            false_accept = verdict.compliant and (
                policy in _STRUCTURAL or not full.compliant)
            if false_accept:
                entry["false_accepts"] += 1
                report.adversarial_false_accepts += 1
                report.disagreements.append({
                    "trial": trial, "kind": policy, "zones": n_zones,
                    "full": full.status.value,
                    "disclosed": verdict.status.value,
                })
        previous = poa

    report.adversarial_outcomes = outcomes
    return report
