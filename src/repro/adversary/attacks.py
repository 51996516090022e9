"""The attack classes of the matrix, one subclass per forgery strategy.

Submission attacks (:class:`SubmissionAttack`) transform the violation
flight's genuine PoA — or other signed material the operator could
plausibly hold — into a forged submission plus a claimed flight window,
then let the shared driver submit and adjudicate it.  Protocol attacks
(:class:`NonceReplay`) and platform attacks (:class:`KeyExtraction`)
override :meth:`Attack.execute` entirely.

Every attack declares ``expected_outcomes``: the set of rejection labels
the deployment is allowed to answer with.  Any other label — above all
``"false_accept"`` — fails the matrix.  Some strategies trip a *different*
stage under flight-level authentication (dropping or reordering entries
breaks a batch digest or hash chain before ordering/sufficiency ever run),
so attacks may override the expectation per scheme via
``scheme_expectations``; :meth:`Attack.expected_for` resolves it.
"""

from __future__ import annotations

import math
import pickle
import random
import uuid
from dataclasses import dataclass

from repro.core.attacks import forge_straight_route, tamper_with_samples
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.protocol import ZoneQuery
from repro.core.samples import GpsSample
from repro.core.verification import VerificationStatus
from repro.crypto.keys import private_key_from_bytes
from repro.crypto.pkcs1 import sign_pkcs1_v15, verify_pkcs1_v15
from repro.crypto.schemes import (
    SCHEME_BATCH,
    SCHEME_CHAIN,
    SCHEME_MERKLE,
    ChainFinalizer,
    chain_link,
)
from repro.errors import (
    AliDroneError,
    AuthenticationError,
    TeeError,
    TrustedAppError,
    WorldIsolationError,
)
from repro.privacy.merkle import MembershipProof, MerkleTree
from repro.tee.gps_sampler_ta import SIGN_KEY_ENTRY

#: How far outside the zone boundary suppressed traces keep their samples.
SUPPRESS_MARGIN_M = 5.0

#: Seconds of genuine trace a truncation attack gives up before entry.
TRUNCATE_GUARD_S = 5.0


@dataclass(frozen=True)
class AttackResult:
    """What one attack execution produced."""

    outcome: str
    accepted: bool
    cleared: bool
    detail: str = ""

    @property
    def false_accept(self) -> bool:
        """The attack fully succeeded: verified AND exonerated."""
        return self.accepted and self.cleared


class Attack:
    """One forgery strategy, executable against an :class:`AttackWorld`."""

    name = "attack"
    description = ""
    #: Labels the deployment may answer with; anything else is a failure.
    expected_outcomes: frozenset[str] = frozenset()
    #: Scheme-specific overrides: under flight-level authentication some
    #: strategies are caught structurally (``bad_signature``) before the
    #: stage that catches them under per-sample RSA is ever reached.
    scheme_expectations: dict[str, frozenset[str]] = {}

    def expected_for(self, scheme: str) -> frozenset[str]:
        """Allowed outcomes when the world flies under ``scheme``."""
        return self.scheme_expectations.get(scheme, self.expected_outcomes)

    def execute(self, world, rng: random.Random) -> AttackResult:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SubmissionAttack(Attack):
    """An attack whose product is a forged PoA submission.

    Subclasses implement :meth:`forge` returning ``(poa, claimed_start,
    claimed_end)``; the driver here registers a fresh drone identity (so
    retained evidence from other cells cannot bleed in), submits, then
    triggers incident adjudication against the violated zone.
    """

    def forge(self, world, rng: random.Random,
              ) -> tuple[ProofOfAlibi, float, float]:
        raise NotImplementedError

    def execute(self, world, rng: random.Random) -> AttackResult:
        drone_id = world.fresh_identity()
        poa, start, end = self.forge(world, rng)
        report = world.submit(drone_id, poa, start, end,
                              flight_id=f"atk-{self.name}")
        finding = world.adjudicate(drone_id)
        accepted = report.status is VerificationStatus.ACCEPTED
        cleared = not finding.violation
        if accepted and cleared:
            outcome = "false_accept"
            detail = "verified and exonerated"
        elif not accepted:
            outcome = report.reason.value
            detail = report.message
        else:
            outcome = finding.kind.value
            detail = finding.detail
        return AttackResult(outcome=outcome, accepted=accepted,
                            cleared=cleared, detail=detail)


class SuppressIncursion(SubmissionAttack):
    """Drop every signed sample taken inside (or near) the zone.

    All surviving signatures are genuine, but the bridging pair around the
    hole cannot rule out NFZ entrance — sufficiency (eq. 1) rejects.
    """

    name = "suppress_incursion"
    description = "omit in-zone samples, keep the true flight window"
    expected_outcomes = frozenset({"insufficient_coverage"})
    # Dropping entries from a batch-signed, chained, or Merkle-committed
    # flight breaks the flight authenticator before sufficiency is ever
    # evaluated (a Merkle full trace must carry every committed leaf;
    # hiding leaves *with* proofs is the separate merkle_omitted_leaves).
    scheme_expectations = {SCHEME_BATCH: frozenset({"bad_signature"}),
                           SCHEME_CHAIN: frozenset({"bad_signature"}),
                           SCHEME_MERKLE: frozenset({"bad_signature"})}

    def forge(self, world, rng):
        cx, cy = world.zone_center_xy
        keep = []
        for entry in world.violation_poa:
            x, y = entry.sample.local_position(world.frame)
            if math.hypot(x - cx, y - cy) > \
                    world.zone.radius_m + SUPPRESS_MARGIN_M:
                keep.append(entry)
        return (world.violation_poa.replace_entries(keep),
                world.violation_start, world.violation_end)


class TruncateAtIncursion(SubmissionAttack):
    """Cut the trace (and the claimed window) just before zone entry.

    The submitted prefix is internally flawless, so it may well verify —
    but the shortened claimed window no longer covers the incident time,
    and the burden-of-proof model treats "no covering PoA" as violation.
    """

    name = "truncate_at_incursion"
    description = "submit only the pre-incursion prefix, shrink the window"
    expected_outcomes = frozenset(
        {"no_poa", "insufficient_coverage", "insufficient"})
    # A prefix of a batch-signed, chained, or Merkle-committed flight no
    # longer matches the finalizer the operator holds, so the forgery
    # dies at authentication.
    scheme_expectations = {SCHEME_BATCH: frozenset({"bad_signature"}),
                           SCHEME_CHAIN: frozenset({"bad_signature"}),
                           SCHEME_MERKLE: frozenset({"bad_signature"})}

    def forge(self, world, rng):
        cutoff = world.incursion_start - TRUNCATE_GUARD_S
        keep = [entry for entry in world.violation_poa
                if entry.sample.t < cutoff]
        end = keep[-1].sample.t if keep else world.violation_start
        return (world.violation_poa.replace_entries(keep),
                world.violation_start, end)


class ReplayPreviousFlight(SubmissionAttack):
    """Resubmit a genuine, compliant PoA from an earlier flight as-is.

    Every check passes — the evidence is real — but the honest claimed
    window belongs to yesterday and cannot cover today's incident.
    """

    name = "replay_previous_flight"
    description = "replay an old compliant PoA with its true window"
    expected_outcomes = frozenset({"no_poa"})

    def forge(self, world, rng):
        return world.old_poa, world.old_start, world.old_end


class WindowLie(SubmissionAttack):
    """Replay an old PoA but claim a window covering the incident.

    Verification still accepts (signatures and geometry are genuine), so
    rejection must come from adjudication: no sample pair brackets the
    incident instant, and an alibi that cannot speak for the accusation
    time is insufficient.
    """

    name = "window_lie"
    description = "old PoA, claimed window stretched over the incident"
    expected_outcomes = frozenset({"insufficient"})

    def forge(self, world, rng):
        duration = world.old_end - world.old_start
        return (world.old_poa, world.incident_time - duration,
                world.incident_time + 60.0)


class RelayForeignDrone(SubmissionAttack):
    """Submit an accomplice drone's concurrent compliant PoA (§III-B).

    The accomplice's TEE signed a clean trace over exactly the right
    window — but under *its* key, which is not the ``T+`` registered for
    the accused drone.
    """

    name = "relay_foreign_drone"
    description = "accomplice's signed compliant trace, accused identity"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        a = world.frame.to_geo(0.0, world.safe_y)
        b = world.frame.to_geo(world.area_m, world.safe_y)
        poa = forge_straight_route(
            a, b, world.violation_start, world.violation_end,
            n_samples=12, attacker_key=world.accomplice_key,
            hash_name=world.hash_name)
        return poa, world.violation_start, world.violation_end


class TamperPosition(SubmissionAttack):
    """Rewrite in-zone payload positions, keeping the TEE signatures."""

    name = "tamper_position"
    description = "shift in-zone samples outside, original signatures"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        cx, cy = world.zone_center_xy
        inside = []
        for i, entry in enumerate(world.violation_poa):
            x, y = entry.sample.local_position(world.frame)
            if math.hypot(x - cx, y - cy) <= world.zone.radius_m:
                inside.append(i)
        poa = tamper_with_samples(world.violation_poa,
                                  lat_shift_deg=0.01, lon_shift_deg=0.0,
                                  indices=inside or [0])
        return poa, world.violation_start, world.violation_end


class BitflipSignature(SubmissionAttack):
    """Flip a single signature bit (transport corruption / crude forgery)."""

    name = "bitflip_signature"
    description = "one flipped bit in one authenticator"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        poa = world.violation_poa
        entries = list(poa.entries)
        i = rng.randrange(len(entries))
        if entries[i].signature:
            sig = bytearray(entries[i].signature)
            sig[rng.randrange(len(sig))] ^= 1 << rng.randrange(8)
            entries[i] = SignedSample(payload=entries[i].payload,
                                      signature=bytes(sig),
                                      scheme=entries[i].scheme)
            forged = poa.replace_entries(entries)
        else:
            # Batch scheme: per-sample blobs are empty, so the only
            # authenticator bytes to corrupt live in the finalizer.
            finalizer = bytearray(poa.finalizer)
            finalizer[rng.randrange(len(finalizer))] ^= 1 << rng.randrange(8)
            forged = poa.replace_entries(entries)
            forged.seal(bytes(finalizer))
        return forged, world.violation_start, world.violation_end


class TimestampReorder(SubmissionAttack):
    """Submit the genuine entries in reverse chronological order."""

    name = "timestamp_reorder"
    description = "genuine samples, reversed order"
    expected_outcomes = frozenset({"out_of_order"})
    # Reordering breaks the batch digest / chain replay / Merkle root
    # recomputation before the ordering stage sees the timestamps.
    scheme_expectations = {SCHEME_BATCH: frozenset({"bad_signature"}),
                           SCHEME_CHAIN: frozenset({"bad_signature"}),
                           SCHEME_MERKLE: frozenset({"bad_signature"})}

    def forge(self, world, rng):
        entries = list(world.violation_poa.entries)
        entries.reverse()
        return (world.violation_poa.replace_entries(entries),
                world.violation_start, world.violation_end)


class ClockSkewForgery(SubmissionAttack):
    """Re-stamp every payload a constant skew later, keep signatures.

    Models an operator claiming the TEE clock ran fast — but the
    timestamps live *inside* the signed payloads, so shifting them breaks
    every signature.
    """

    name = "clock_skew_forgery"
    description = "timestamps shifted inside payloads, stale signatures"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        skew = 120.0
        entries = []
        for entry in world.violation_poa:
            s = entry.sample
            moved = GpsSample(s.lat, s.lon, s.t + skew, s.alt)
            entries.append(SignedSample(payload=moved.to_signed_payload(),
                                        signature=entry.signature,
                                        scheme=entry.scheme))
        return (world.violation_poa.replace_entries(entries),
                world.violation_start + skew, world.violation_end + skew)


class TeleportSpoof(SubmissionAttack):
    """Fabricate a condition-(3)-feasible detour and self-sign it.

    The trajectory is crafted to pass every geometric check — smooth
    speeds, sufficient clearance — so the only thing standing between the
    operator and an alibi is that they cannot sign with ``T-``.
    """

    name = "teleport_spoof"
    description = "plausible detour trajectory signed with operator key"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        a = world.frame.to_geo(0.0, world.safe_y)
        b = world.frame.to_geo(world.area_m, world.safe_y)
        poa = forge_straight_route(
            a, b, world.violation_start, world.violation_end,
            n_samples=16, attacker_key=world.operator_key,
            hash_name=world.hash_name)
        return poa, world.violation_start, world.violation_end


class ChainTruncation(SubmissionAttack):
    """Drop the chained tail but keep the closed finalizer (§ hash-chain).

    Per-sample RSA cannot see truncation — every surviving signature still
    verifies, and detection falls to coverage.  The chained scheme catches
    it *structurally*: the finalizer commits to the sample count and the
    final link, so a shortened flight fails authentication outright even
    though the claimed window still spans the incursion.
    """

    name = "chain_truncation"
    description = "chained flight minus its in-zone tail, finalizer kept"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        poa, start, end = world.chained_violation()
        cutoff = world.incursion_start - TRUNCATE_GUARD_S
        keep = [entry for entry in poa if entry.sample.t < cutoff]
        if not keep:
            keep = list(poa.entries)[:1]
        return poa.replace_entries(keep), start, end


class ChainSplice(SubmissionAttack):
    """Overwrite in-zone links with copies of out-of-zone ones.

    Preserves the committed sample count, so the count check passes — but
    each spliced position breaks the HMAC chaining (its stored link was
    computed over a different predecessor and payload), so replay flags
    the splice points.
    """

    name = "chain_splice"
    description = "in-zone chain entries replaced by out-of-zone copies"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        poa, start, end = world.chained_violation()
        cx, cy = world.zone_center_xy

        def in_zone(entry):
            x, y = entry.sample.local_position(world.frame)
            return math.hypot(x - cx, y - cy) <= world.zone.radius_m

        entries = list(poa.entries)
        outside = [entry for entry in entries if not in_zone(entry)]
        donor = outside[0] if outside else entries[0]
        spliced = [donor if in_zone(entry) else entry for entry in entries]
        return poa.replace_entries(spliced), start, end


class ChainMacForgery(SubmissionAttack):
    """Recompute every link with the disclosed chain key (TESLA misuse).

    After flight close the finalizer reveals the chain key, so an operator
    *can* mint internally consistent links over doctored payloads.  What
    they cannot re-mint are the two RSA signatures: the close signature
    binds the final link, which changes the moment any payload does.
    """

    name = "chain_mac_forgery"
    description = "links re-MACed with the disclosed key, payloads shifted"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        poa, start, end = world.chained_violation()
        finalizer = ChainFinalizer.from_bytes(poa.finalizer)
        cx, cy = world.zone_center_xy
        forged = []
        previous = finalizer.anchor
        for entry in poa:
            s = entry.sample
            x, y = s.local_position(world.frame)
            if math.hypot(x - cx, y - cy) <= world.zone.radius_m:
                s = GpsSample(s.lat + 0.01, s.lon, s.t, s.alt)
            payload = s.to_signed_payload()
            link = chain_link(finalizer.chain_key, previous, payload)
            forged.append(SignedSample(payload=payload, signature=link,
                                       scheme=entry.scheme))
            previous = link
        return poa.replace_entries(forged), start, end


class MerkleOmittedLeaves(SubmissionAttack):
    """Hide every in-zone leaf behind *valid* membership proofs.

    The selective-disclosure analogue of :class:`SuppressIncursion`: the
    operator reveals only out-of-zone samples, each with a genuine proof
    against the signed root, and keeps the incursion private.  Every
    disclosed byte verifies — but the gap bridging the hole cannot rule
    out NFZ entrance, so the disclosure stage rejects.
    """

    name = "merkle_omitted_leaves"
    description = "in-zone leaves hidden behind valid membership proofs"
    expected_outcomes = frozenset({"insufficient_disclosure"})

    def forge(self, world, rng):
        poa, start, end = world.merkle_violation()
        cx, cy = world.zone_center_xy
        payloads = [entry.payload for entry in poa]
        tree = MerkleTree(payloads)
        keep = {0, len(payloads) - 1}
        for i, entry in enumerate(poa):
            x, y = entry.sample.local_position(world.frame)
            if math.hypot(x - cx, y - cy) > \
                    world.zone.radius_m + SUPPRESS_MARGIN_M:
                keep.add(i)
        entries = [
            SignedSample(payload=payloads[i],
                         signature=tree.membership_proof(i).to_bytes(),
                         scheme=SCHEME_MERKLE)
            for i in sorted(keep)]
        return poa.replace_entries(entries), start, end


class MerkleOverRedaction(SubmissionAttack):
    """Reveal only the two endpoints of the committed flight.

    A maximally private — and maximally uninformative — disclosure: both
    proofs are genuine and the endpoints pin the flight, but the single
    giant gap between them cannot rule out the incursion.
    """

    name = "merkle_over_redaction"
    description = "endpoints only, the whole flight interior redacted"
    expected_outcomes = frozenset({"insufficient_disclosure"})

    def forge(self, world, rng):
        poa, start, end = world.merkle_violation()
        payloads = [entry.payload for entry in poa]
        tree = MerkleTree(payloads)
        entries = [
            SignedSample(payload=payloads[i],
                         signature=tree.membership_proof(i).to_bytes(),
                         scheme=SCHEME_MERKLE)
            for i in sorted({0, len(payloads) - 1})]
        return poa.replace_entries(entries), start, end


class MerkleCrossFlightSplice(SubmissionAttack):
    """Foreign samples with their own tree's proofs, this flight's root.

    The operator holds a genuinely compliant trace (yesterday's flight)
    and presents its samples — proofs and all — under the violation
    flight's signed root and window.  Every proof is internally
    consistent with the *donor* tree, but none replays to the root the
    TEE actually signed.
    """

    name = "merkle_cross_flight_splice"
    description = "compliant donor leaves spliced under the signed root"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        poa, start, end = world.merkle_violation()
        donors = [entry.payload for entry in world.old_poa]
        tree = MerkleTree(donors)
        entries = [
            SignedSample(payload=donors[i],
                         signature=tree.membership_proof(i).to_bytes(),
                         scheme=SCHEME_MERKLE)
            for i in range(len(donors))]
        return poa.replace_entries(entries), start, end


class MerkleForgedSibling(SubmissionAttack):
    """Rewrite in-zone positions and invent sibling hashes to match.

    Forging a proof path for a doctored leaf requires a second preimage
    of an interior node; random siblings model the best an operator
    without one can do.
    """

    name = "merkle_forged_sibling"
    description = "doctored leaves with fabricated proof paths"
    expected_outcomes = frozenset({"bad_signature"})

    def forge(self, world, rng):
        poa, start, end = world.merkle_violation()
        cx, cy = world.zone_center_xy
        payloads = [entry.payload for entry in poa]
        tree = MerkleTree(payloads)
        entries = []
        for i, entry in enumerate(poa):
            s = entry.sample
            x, y = s.local_position(world.frame)
            payload = payloads[i]
            proof = tree.membership_proof(i)
            if math.hypot(x - cx, y - cy) <= world.zone.radius_m:
                moved = GpsSample(s.lat + 0.01, s.lon, s.t, s.alt)
                payload = moved.to_signed_payload()
                proof = MembershipProof(
                    leaf_index=i,
                    siblings=tuple(rng.randbytes(32)
                                   for _sibling in proof.siblings))
            entries.append(SignedSample(payload=payload,
                                        signature=proof.to_bytes(),
                                        scheme=SCHEME_MERKLE))
        return poa.replace_entries(entries), start, end


class NonceReplay(Attack):
    """Replay a signed zone-query nonce (pre-flight protocol, steps 2-3)."""

    name = "nonce_replay"
    description = "resubmit a previously served signed zone query"
    expected_outcomes = frozenset({"nonce_replayed"})

    def execute(self, world, rng):
        drone_id = world.fresh_identity()
        query = ZoneQuery.create(
            drone_id, world.frame.to_geo(0.0, 0.0),
            world.frame.to_geo(world.area_m, world.area_m),
            world.operator_key, rng)
        world.server.handle_zone_query(query, now=world.violation_start)
        try:
            world.server.handle_zone_query(query,
                                           now=world.violation_start + 1.0)
        except AuthenticationError as exc:
            return AttackResult(outcome="nonce_replayed", accepted=False,
                                cleared=False, detail=str(exc))
        return AttackResult(outcome="false_accept", accepted=True,
                            cleared=True,
                            detail="replayed nonce served twice")


class KeyExtraction(Attack):
    """Try to pull ``T-`` out of the TEE from the normal world.

    Runs every extraction primitive the simulator models — unsealing,
    handle reveal, pickling the handle, reading the sealed blob store,
    loading a TA under the wrong UUID, re-entering the monitor — and, if
    any yields bytes, checks whether they parse into a key that actually
    signs under the registered ``T+``.  Only a *verifying* signature
    counts as extraction; everything else is the isolation holding.
    """

    name = "key_extraction"
    description = "normal-world attempts to extract the TEE sign key"
    expected_outcomes = frozenset({"world_isolation"})

    def execute(self, world, rng):
        device = world.device
        storage = device.sealed_storage
        blocked = []
        recovered: list[bytes] = []

        try:
            recovered.append(storage.unseal(SIGN_KEY_ENTRY))
        except WorldIsolationError:
            blocked.append("unseal")

        try:
            storage._root_key.reveal()
        except WorldIsolationError:
            blocked.append("reveal")

        try:
            pickle.dumps(storage._root_key)
        except TeeError:
            blocked.append("pickle")

        # The sealed blob store *is* readable (it models untrusted flash);
        # extraction only succeeds if its ciphertext doubles as the key.
        blob = storage.raw_blobs().get(SIGN_KEY_ENTRY)
        if blob is not None:
            recovered.append(blob)
            blocked.append("raw_blob")

        try:
            device.client.open_session(uuid.UUID(int=rng.getrandbits(128)))
        except TrustedAppError:
            blocked.append("wrong_uuid")

        try:
            device.monitor.secure_boot_call(
                device.monitor.secure_boot_call, lambda: None)
        except TeeError:
            blocked.append("reentry")

        probe = b"adversary-probe"
        for material in recovered:
            try:
                key = private_key_from_bytes(material)
                signature = sign_pkcs1_v15(key, probe, world.hash_name)
            except (AliDroneError, ValueError, OverflowError):
                continue
            if verify_pkcs1_v15(device.tee_public_key, probe, signature,
                                world.hash_name):
                return AttackResult(
                    outcome="key_extracted", accepted=True, cleared=True,
                    detail="normal world recovered a signing key")
        return AttackResult(outcome="world_isolation", accepted=False,
                            cleared=False,
                            detail="blocked: " + ", ".join(blocked))


def builtin_attacks() -> list[Attack]:
    """The full matrix, in threat-model order."""
    return [
        SuppressIncursion(),
        TruncateAtIncursion(),
        ReplayPreviousFlight(),
        WindowLie(),
        RelayForeignDrone(),
        TamperPosition(),
        BitflipSignature(),
        TimestampReorder(),
        ClockSkewForgery(),
        TeleportSpoof(),
        ChainTruncation(),
        ChainSplice(),
        ChainMacForgery(),
        MerkleOmittedLeaves(),
        MerkleOverRedaction(),
        MerkleCrossFlightSplice(),
        MerkleForgedSibling(),
        NonceReplay(),
        KeyExtraction(),
    ]
