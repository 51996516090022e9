"""Operator-side selective disclosure: reveal exactly what the alibi needs.

Given a full Merkle-committed flight, :func:`disclose` chooses the subset
of samples a verifier needs to re-establish the alibi conditions and
packages it as a :class:`DisclosedAlibi` — revealed payloads, one
membership proof per payload, and the flight's signed root finalizer.

Selection runs in two phases:

1. **Mandatory set** — both flight endpoints (the disclosure stage
   requires proven leaves ``0`` and ``count - 1``); every fix within the
   zone-proximity cutoff of some zone boundary (looked up through
   :class:`~repro.geo.proximity.ZoneProximityIndex` for large zone
   sets); both members of any ``v_max``-infeasible consecutive pair
   (evidence of infeasibility is never redacted, so a full-trace
   SPEED_INFEASIBLE verdict survives disclosure); and the adjacent fix
   on each side of every disclosed run, so each revealed excursion is
   bracketed by its committed neighbours.
2. **Gap repair** — any gap between adjacent revealed fixes that the
   verifier's conservative gap rule would reject is bisected (the middle
   committed sample is added) until every gap is provably clear or the
   gap has collapsed to adjacency.  The repair loop judges each gap with
   :func:`repro.core.sufficiency.insufficient_pairs`, the call the
   verification pipeline's disclosure stage makes, so an honest flight
   that verifies ACCEPTED in full always yields a disclosure that
   verifies ACCEPTED too — the loop only ever stops hiding samples, and a
   fully-revealed trace is the full flight again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.samples import GpsSample
from repro.core.sufficiency import ZONE_INDEX_MIN_ZONES, insufficient_pairs
from repro.crypto.schemes import SCHEME_MERKLE, MerkleFinalizer
from repro.errors import ConfigurationError, SchemeError
from repro.geo.circle import Circle
from repro.geo.geodesy import LocalFrame
from repro.geo.proximity import ZoneProximityIndex
from repro.privacy.merkle import MerkleTree
from repro.units import FAA_MAX_SPEED_MPS


@dataclass(frozen=True)
class DisclosedAlibi:
    """A bandwidth-bounded alibi: revealed subset + proofs + root sig.

    ``poa`` is a well-formed ``merkle-disclosure`` PoA whose entries
    carry membership proofs in their auth blobs; it submits through the
    exact same envelope/encryption path as a full trace.
    """

    poa: ProofOfAlibi
    revealed_indices: tuple[int, ...]
    total_samples: int

    @property
    def revealed_count(self) -> int:
        return len(self.revealed_indices)

    @property
    def redaction_ratio(self) -> float:
        """Fraction of the committed trace kept private."""
        if self.total_samples == 0:
            return 0.0
        return 1.0 - self.revealed_count / self.total_samples

    def wire_bytes(self) -> int:
        """Payload + proof + finalizer bytes this alibi puts on the wire."""
        return sum(len(entry.payload) + len(entry.signature)
                   for entry in self.poa) + len(self.poa.finalizer)


def _full_trace_parts(poa: ProofOfAlibi,
                      ) -> tuple[MerkleFinalizer, list[bytes]]:
    """Validate and unpack a full-trace Merkle PoA; raise on anything else."""
    if poa.scheme != SCHEME_MERKLE:
        raise ConfigurationError(
            f"disclosure needs a {SCHEME_MERKLE!r} flight, got {poa.scheme!r}")
    try:
        fin = MerkleFinalizer.from_bytes(poa.finalizer)
    except SchemeError as exc:
        raise ConfigurationError(f"unsealed or malformed finalizer: {exc}")
    payloads = [entry.payload for entry in poa]
    if any(entry.signature for entry in poa) or len(payloads) != fin.count:
        raise ConfigurationError(
            "disclosure starts from the full committed trace")
    if not payloads:
        raise ConfigurationError("nothing to disclose: empty flight")
    return fin, payloads


def _near_zone(position: tuple[float, float], cutoff_m: float,
               circles: Sequence[Circle],
               index: ZoneProximityIndex | None) -> bool:
    """Whether a fix sits within ``cutoff_m`` of some zone boundary."""
    if index is not None:
        return bool(index.candidates_within(position, cutoff_m))
    return any(circle.distance_to_boundary(position) <= cutoff_m
               for circle in circles)


def mandatory_indices(samples: Sequence[GpsSample],
                      positions: Sequence[tuple[float, float]],
                      circles: Sequence[Circle],
                      index: ZoneProximityIndex | None,
                      vmax_mps: float, cutoff_m: float) -> set[int]:
    """Phase 1: the indices no honest disclosure may hide."""
    n = len(samples)
    chosen = {0, n - 1}
    for i, position in enumerate(positions):
        if _near_zone(position, cutoff_m, circles, index):
            chosen.add(i)
    for i in range(n - 1):
        dt = samples[i + 1].t - samples[i].t
        ax, ay = positions[i]
        bx, by = positions[i + 1]
        distance = ((bx - ax) ** 2 + (by - ay) ** 2) ** 0.5
        # Unslackened bound: flag (and therefore reveal) at least every
        # pair the verifier's feasibility stage would.
        if distance > vmax_mps * max(dt, 0.0) + 1e-9:
            chosen.update((i, i + 1))
    # Bracket every disclosed run with its committed neighbours.
    for i in sorted(chosen):
        if i - 1 >= 0:
            chosen.add(i - 1)
        if i + 1 < n:
            chosen.add(i + 1)
    return chosen


def disclose(poa: ProofOfAlibi, zones: Sequence[NoFlyZone],
             frame: LocalFrame, *, vmax_mps: float = FAA_MAX_SPEED_MPS,
             cutoff_m: float | None = None) -> DisclosedAlibi:
    """Select, prove, and package the verifier-sufficient subset.

    Args:
        poa: the full Merkle-committed flight (empty auth blobs, sealed
            finalizer), as produced by a ``merkle-disclosure`` flight.
        cutoff_m: zone-proximity cutoff for the mandatory set.  Defaults
            to ``v_max`` times the flight's longest sampling interval —
            generous enough that anything the gap rule could care about
            is already revealed, which keeps the repair loop short; the
            repair loop, not this heuristic, carries soundness.
    """
    fin, payloads = _full_trace_parts(poa)
    del fin
    samples = [entry.sample for entry in poa]
    if any(b.t < a.t for a, b in zip(samples, samples[1:])):
        raise ConfigurationError(
            "disclosure needs non-decreasing committed timestamps")
    positions = [sample.local_position(frame) for sample in samples]
    n = len(samples)

    circles = [zone.to_circle(frame) for zone in zones]
    index = (ZoneProximityIndex.from_circles(circles)
             if len(circles) >= ZONE_INDEX_MIN_ZONES else None)
    if cutoff_m is None:
        longest_dt = max((samples[i + 1].t - samples[i].t
                          for i in range(n - 1)), default=0.0)
        cutoff_m = vmax_mps * max(longest_dt, 0.0)

    chosen = mandatory_indices(samples, positions, circles, index,
                               vmax_mps, cutoff_m)

    # Phase 2: bisect every gap the verifier's conservative rule would
    # reject, until it clears or collapses to adjacency.
    stack = []
    ordered = sorted(chosen)
    stack.extend((a, b) for a, b in zip(ordered, ordered[1:]) if b - a > 1)
    while stack:
        a, b = stack.pop()
        if insufficient_pairs([positions[a], positions[b]],
                              [samples[a].t, samples[b].t], circles, index,
                              vmax_mps, "conservative"):
            middle = (a + b) // 2
            chosen.add(middle)
            if middle - a > 1:
                stack.append((a, middle))
            if b - middle > 1:
                stack.append((middle, b))

    revealed = tuple(sorted(chosen))
    tree = MerkleTree(payloads)
    entries = [SignedSample(payload=payloads[i],
                            signature=tree.membership_proof(i).to_bytes(),
                            scheme=SCHEME_MERKLE)
               for i in revealed]
    disclosed = poa.replace_entries(entries)
    return DisclosedAlibi(poa=disclosed, revealed_indices=revealed,
                          total_samples=n)
