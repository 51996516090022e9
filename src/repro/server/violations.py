"""Violation findings, the evidence ledger, and penalty policy.

The paper leaves punishment "to policy or legislation" (§III-A); the
ledger and the graduated penalty schedule here give the protocol a
complete, testable enforcement tail without inventing legal semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.server.store import FlightStore


class ViolationKind(enum.Enum):
    """Why the Auditor found against the operator."""

    NO_POA = "no_poa"                      # no submission covers the incident
    BAD_SIGNATURE = "bad_signature"        # forged / relayed / tampered PoA
    INFEASIBLE_TRACE = "infeasible_trace"  # physically impossible motion
    INSUFFICIENT_ALIBI = "insufficient"    # cannot rule out NFZ entrance
    MALFORMED_POA = "malformed"


@dataclass(frozen=True, slots=True)
class ViolationFinding:
    """The Auditor's conclusion on one incident report."""

    drone_id: str
    zone_id: str
    incident_time: float
    violation: bool
    kind: ViolationKind | None = None
    detail: str = ""


class PenaltyPolicy:
    """A graduated fine schedule keyed on offence count and violation kind.

    Forgery-class violations (bad signatures, infeasible traces) are
    treated as deliberate and fined at a multiplier over insufficiency,
    which may be accidental (under-sampling).
    """

    def __init__(self, base_fine: float = 500.0,
                 repeat_multiplier: float = 2.0,
                 forgery_multiplier: float = 5.0,
                 max_fine: float = 50_000.0):
        self.base_fine = float(base_fine)
        self.repeat_multiplier = float(repeat_multiplier)
        self.forgery_multiplier = float(forgery_multiplier)
        self.max_fine = float(max_fine)

    def fine_for(self, kind: ViolationKind, prior_offences: int) -> float:
        """The fine for an operator's ``prior_offences + 1``-th violation."""
        fine = self.base_fine * (self.repeat_multiplier ** prior_offences)
        if kind in (ViolationKind.BAD_SIGNATURE, ViolationKind.INFEASIBLE_TRACE,
                    ViolationKind.MALFORMED_POA):
            fine *= self.forgery_multiplier
        return min(fine, self.max_fine)


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One adjudicated violation with its assessed fine."""

    finding: ViolationFinding
    fine: float


class ViolationLedger:
    """Append-only record of adjudicated violations per drone.

    The entries are rows of a store's ``ledger`` table (a private
    in-memory store's when none is given), so they outlive a restart.
    """

    def __init__(self, policy: PenaltyPolicy | None = None,
                 store: FlightStore | None = None):
        self.policy = policy or PenaltyPolicy()
        self.store = store if store is not None else FlightStore()

    def adjudicate(self, finding: ViolationFinding) -> LedgerEntry | None:
        """Record a finding; returns the ledger entry when it is a violation."""
        if not finding.violation:
            return None
        if finding.kind is None:
            raise ValueError("a violation finding must carry its kind")
        fine = self.policy.fine_for(finding.kind,
                                    self.offences(finding.drone_id))
        self.store.add_ledger_entry(finding.drone_id, finding.zone_id,
                                    finding.incident_time, finding.kind.value,
                                    finding.detail, fine)
        return LedgerEntry(finding=finding, fine=fine)

    def offences(self, drone_id: str) -> int:
        """How many violations are recorded against ``drone_id``."""
        return len(self.store.ledger_entries(drone_id))

    def total_fines(self, drone_id: str) -> float:
        """Sum of fines assessed against ``drone_id``."""
        return sum(row[5] for row in self.store.ledger_entries(drone_id))

    def __iter__(self) -> Iterator[LedgerEntry]:
        for drone_id, zone_id, incident_time, kind, detail, fine in \
                self.store.ledger_entries():
            yield LedgerEntry(finding=ViolationFinding(
                drone_id=drone_id, zone_id=zone_id,
                incident_time=incident_time, violation=True,
                kind=ViolationKind(kind), detail=detail), fine=fine)

    def __len__(self) -> int:
        return len(self.store.ledger_entries())
