"""The Auditor side: zones, the durable service, its protocol front-end, violations."""

from repro.server.database import NfzDatabase, RegisteredZone
from repro.server.admission import (
    AdmissionDecision,
    AdmissionScheduler,
    AdmissionStats,
    TokenBucket,
    build_scheduler,
)
from repro.server.auditor import AliDroneServer, RetainedSubmission
from repro.server.engine import (
    AuditEngine,
    AuditOutcome,
    BatchAuditResult,
)
from repro.server.store import (
    FlightStore,
    StoredDrone,
    StoredSubmission,
    StoredVerdict,
    submission_dedup_key,
)
from repro.server.service import (
    AuditorService,
    IntakeDecision,
    ServiceAuditRecord,
    ServiceStats,
)
from repro.server.violations import ViolationFinding, ViolationLedger, PenaltyPolicy

__all__ = [
    "AdmissionDecision",
    "AdmissionScheduler",
    "AdmissionStats",
    "build_scheduler",
    "NfzDatabase",
    "RegisteredZone",
    "AliDroneServer",
    "RetainedSubmission",
    "AuditEngine",
    "AuditOutcome",
    "BatchAuditResult",
    "FlightStore",
    "StoredDrone",
    "StoredSubmission",
    "StoredVerdict",
    "submission_dedup_key",
    "AuditorService",
    "IntakeDecision",
    "ServiceAuditRecord",
    "ServiceStats",
    "TokenBucket",
    "ViolationFinding",
    "ViolationLedger",
    "PenaltyPolicy",
]
