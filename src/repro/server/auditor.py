"""The AliDrone Server: the Auditor's protocol endpoints (paper §IV-C2).

Registers drones and NFZs, answers signed zone queries, verifies
submitted PoAs, retains verified PoAs as evidence "for a couple of
days", and adjudicates Zone Owner incident reports against the retained
evidence.

The server is a front-end over one :class:`repro.server.service.AuditorService`
and its :class:`repro.server.store.FlightStore` (in memory unless a path
is given): the store holds the key, the drone and zone registries, the
evidence, the violation ledger and the served zone-query nonces, and
every PoA intake is :meth:`AuditorService.submit` followed by
:meth:`AuditorService.drain`.  What the server keeps only in memory is
the trusted manufacturers and its event log.  A restart is a close and a
reopen over the same path.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, decrypt_poa
from repro.core.protocol import (
    DroneRegistrationRequest,
    IncidentReport,
    PoaSubmission,
    ZoneQuery,
    ZoneRegistrationRequest,
    ZoneResponse,
)
from repro.core.sufficiency import Method, pair_is_sufficient
from repro.core.verification import (
    RejectionReason,
    VerificationReport,
    VerificationStatus,
)
from repro.crypto.rsa import RsaPublicKey
from repro.errors import (
    AuthenticationError,
    EncodingError,
    RegistrationError,
    ServiceUnavailableError,
)
from repro.geo.geodesy import LocalFrame
from repro.obs.adapters import (
    event_log_snapshot,
    stage_metrics_snapshot,
    zone_index_stats_snapshot,
)
from repro.obs.hub import TelemetryHub
from repro.obs.trace import get_tracer
from repro.server.engine import AuditOutcome, BatchAuditResult
from repro.server.service import AuditorService
from repro.server.store import INTAKE_ERROR_STATUS, FlightStore, StoredVerdict
from repro.sim.events import EventLog
from repro.server.violations import (
    PenaltyPolicy,
    ViolationFinding,
    ViolationKind,
    ViolationLedger,
)
from repro.units import FAA_MAX_SPEED_MPS

#: Paper: "the AliDrone Server should save the PoAs for a couple of days".
DEFAULT_RETENTION_S = 3 * 24 * 3600.0

#: How long a zone-query nonce is remembered for replay protection.  A
#: nonce older than this can no longer be replayed undetectably in any
#: realistic deployment (queries are interactive), so the set is evicted
#: on the same sweep that purges retained evidence — otherwise it grows
#: without bound under heavy traffic.
DEFAULT_NONCE_WINDOW_S = 24 * 3600.0

#: The verdicts that depend on the zone set: a zone registered or
#: withdrawn after an audit can move a flight between them, and
#: :meth:`AliDroneServer.handle_incident` treats them alike.
_ZONE_DEPENDENT = {VerificationStatus.ACCEPTED.value,
                   VerificationStatus.INSUFFICIENT.value}

_STATUS_TO_KIND = {
    VerificationStatus.REJECTED_BAD_SIGNATURE: ViolationKind.BAD_SIGNATURE,
    VerificationStatus.REJECTED_INFEASIBLE: ViolationKind.INFEASIBLE_TRACE,
    VerificationStatus.REJECTED_MALFORMED: ViolationKind.MALFORMED_POA,
    VerificationStatus.REJECTED_EMPTY: ViolationKind.MALFORMED_POA,
    VerificationStatus.INSUFFICIENT: ViolationKind.INSUFFICIENT_ALIBI,
}


@dataclass
class RetainedSubmission:
    """A verified submission kept as evidence for later accusations."""

    submission: PoaSubmission
    report: VerificationReport
    received_at: float


def _is_evidence(verdict: StoredVerdict) -> bool:
    """Whether a stored row holds a PoA that opened, hence evidence.

    Intake errors (unknown drone) and envelopes that did not open carry
    nothing a later accusation could be adjudicated against.
    """
    return (verdict.status != INTAKE_ERROR_STATUS
            and verdict.reason != RejectionReason.DECRYPT_FAILED.value)


class AliDroneServer:
    """The Auditor's service endpoint.

    ``store`` is an open :class:`FlightStore` or a path, as for
    :class:`AuditorService`; opening one that holds verdicts re-derives
    them all (see :meth:`_check_stored_verdicts`).
    """

    def __init__(self, frame: LocalFrame,
                 store: FlightStore | str = ":memory:",
                 rng: random.Random | None = None,
                 encryption_key_bits: int = 1024,
                 vmax_mps: float = FAA_MAX_SPEED_MPS,
                 hash_name: str = "sha1",
                 method: Method = "conservative",
                 retention_s: float = DEFAULT_RETENTION_S,
                 nonce_window_s: float = DEFAULT_NONCE_WINDOW_S,
                 penalty_policy: PenaltyPolicy | None = None,
                 screen_signatures: bool = True,
                 injector=None):
        self.frame = frame
        #: Optional fault injector: ``fail`` rules at
        #: ``auditor.register`` / ``auditor.zone_query`` /
        #: ``auditor.receive_poa`` make the matching endpoint raise
        #: :class:`~repro.errors.ServiceUnavailableError` before any
        #: state is touched (an outage window, not a partial write).
        self.injector = injector
        self.retention_s = float(retention_s)
        self.nonce_window_s = float(nonce_window_s)
        #: Operational audit trail: registrations, queries, submissions,
        #: drains, incidents.  Event times use protocol timestamps where
        #: the message carries one, else 0.0 (registration has no clock).
        self.events = EventLog()
        #: The durable service every registration and PoA intake goes
        #: through; its store is the server's whole durable state.
        self.service = AuditorService(
            frame, store, encryption_key_bits=encryption_key_bits,
            rng=rng or random.SystemRandom(), vmax_mps=vmax_mps,
            hash_name=hash_name, method=method,
            screen_signatures=screen_signatures,
            events=self.events)
        self.store = self.service.store
        self.zones = self.service.zones
        self.ledger = ViolationLedger(penalty_policy, self.store)
        #: The (single-shard) engine every PoA is audited by.
        self.engine = self.service.engines[0]
        try:
            self._check_stored_verdicts()
        except EncodingError:
            if self.store is not store:
                self.close()
            raise
        #: Manufacturer keys whose attestation quotes are accepted.
        self.trusted_manufacturers: list[RsaPublicKey] = []
        #: When True, drone registration requires a valid quote.
        self.require_attestation = False

    def _check_stored_verdicts(self) -> None:
        """Re-derive every stored verdict without writing; raise
        :class:`~repro.errors.EncodingError` when one does not reproduce.

        Intake errors are skipped: the unknown drone id one names may
        since have been issued to a real drone.
        """
        audited = [(stored, verdict) for stored, verdict in self.store.audited()
                   if verdict.status != INTAKE_ERROR_STATUS]
        if not audited:
            return
        result = self.engine.audit_batch(
            [stored.submission for stored, _ in audited], record_event=False)
        for (stored, verdict), outcome in zip(audited, result.outcomes):
            report = outcome.report
            got = ((INTAKE_ERROR_STATUS, None) if report is None else
                   (report.status.value,
                    report.reason.value if report.reason else None))
            if (got != (verdict.status, verdict.reason)
                    and not {got[0], verdict.status} <= _ZONE_DEPENDENT):
                raise EncodingError(
                    f"stored verdict {verdict.status!r} of row {stored.seq}"
                    f" does not reproduce ({got[0]!r}) — store tampered?")

    def trust_manufacturer(self, public_key: RsaPublicKey) -> None:
        """Accept attestation quotes signed by this manufacturer."""
        self.trusted_manufacturers.append(public_key)

    def _check_available(self, point: str, now: float | None = None) -> None:
        """Raise :class:`~repro.errors.ServiceUnavailableError` when an
        injected outage window covers this request; no-op otherwise."""
        if self.injector is not None:
            self.injector.maybe_fail(point, now=now,
                                     error=ServiceUnavailableError)

    @property
    def public_encryption_key(self) -> RsaPublicKey:
        """The key drones encrypt PoA payloads under."""
        return self.service.public_encryption_key

    def close(self) -> None:
        """Close the store; a restart constructs over the same path."""
        self.service.close()

    # --- registration (steps 0-1) -------------------------------------------

    def register_drone(self, request: DroneRegistrationRequest) -> str:
        """Step 0: issue an ``id_drone`` for ``(D+, T+)``.

        With :attr:`require_attestation` set, the request must carry a
        manufacturer quote signed by a trusted key and binding exactly the
        submitted ``T+`` — otherwise any software key could masquerade as
        a TEE key.
        """
        self._check_available("auditor.register")
        if self.require_attestation:
            self._check_attestation(request)
        return self.service.register_drone(request)

    def _check_attestation(self, request: DroneRegistrationRequest) -> None:
        quote = request.quote
        if quote is None:
            raise RegistrationError(
                "registration requires a manufacturer attestation quote")
        if quote.tee_public_key != request.tee_public_key:
            raise RegistrationError(
                "attestation quote binds a different TEE key")
        if not any(quote.verify(key) for key in self.trusted_manufacturers):
            raise RegistrationError(
                "attestation quote not signed by a trusted manufacturer")

    def register_zone(self, request: ZoneRegistrationRequest) -> str:
        """Step 1: register a circular NFZ; returns its ``id_zone``."""
        zone_id = self.service.register_zone(
            request.zone, owner_name=request.owner_name,
            proof_of_ownership=request.proof_of_ownership)
        self.events.record(0.0, "zone_registered", zone_id=zone_id,
                           owner=request.owner_name,
                           radius_m=request.zone.radius_m)
        return zone_id

    # --- zone query (steps 2-3) -------------------------------------------------

    def handle_zone_query(self, query: ZoneQuery,
                          now: float = 0.0) -> ZoneResponse:
        """Verify the signed nonce and return zones inside the rectangle.

        ``now`` timestamps the nonce for replay-window eviction (the query
        message itself carries no clock).

        Raises:
            RegistrationError: the querying drone is not registered.
            AuthenticationError: bad signature or replayed nonce.
        """
        self._check_available("auditor.zone_query", now)
        drone = self.store.get_drone(query.drone_id)
        # Verify first, so a forged query cannot use up a real nonce.
        if not query.verify(drone.operator_public_key):
            raise AuthenticationError("zone query signature invalid")
        if not self.store.record_nonce(query.nonce, now):
            raise AuthenticationError("zone query nonce replayed")
        matches = self.zones.query_rect(query.corner_a, query.corner_b)
        self.events.record(now, "zone_query", drone_id=query.drone_id,
                           zones_returned=len(matches))
        return ZoneResponse(zones=tuple((r.zone_id, r.zone) for r in matches))

    # --- PoA intake (step 4) ------------------------------------------------------

    def receive_poa(self, submission: PoaSubmission,
                    now: float | None = None) -> VerificationReport:
        """Store, verify, and retain one PoA submission.

        Intake errors (unknown drone) are raised.  A byte-identical
        re-upload is not audited again: it returns its stored row's
        verdict (or raises its intake error).
        """
        self._check_available("auditor.receive_poa", now)
        (outcome,) = self._intake([submission], now)
        if outcome.error is not None:
            raise outcome.error
        return outcome.report

    def receive_poa_batch(self, submissions: Sequence[PoaSubmission],
                          now: float | None = None) -> BatchAuditResult:
        """Store, verify, and retain many submissions as one batch.

        Unlike the single-submission API, intake failures do not raise:
        each :class:`repro.server.engine.AuditOutcome` carries either a
        report or the error, in input order.  The batch is recorded in
        the audit trail as one ``batch_audited`` event.
        """
        self._check_available("auditor.receive_poa", now)
        start = time.perf_counter()
        with get_tracer().span("server.receive_poa_batch",
                               batch_size=len(submissions)):
            outcomes = self._intake(submissions, now)
        result = BatchAuditResult(outcomes=outcomes,
                                  wall_time_s=time.perf_counter() - start)
        self.events.record(now if now is not None else 0.0, "batch_audited",
                           batch_size=result.batch_size,
                           wall_time_s=result.wall_time_s)
        return result

    def _intake(self, submissions: Sequence[PoaSubmission],
                now: float | None) -> list[AuditOutcome]:
        """Submit every submission, drain the service, map the outcomes.

        A submission is received at ``now``, or at its claimed end when
        no clock is given.  The queue is drained whenever it fills, so a
        batch larger than the service's queue still completes.  A
        re-upload (also within the batch) gets its stored row's verdict.
        """
        drain_at = now if now is not None else 0.0
        received = [now if now is not None else s.claimed_end
                    for s in submissions]
        audited: dict[int, AuditOutcome] = {}
        seqs = []
        for submission, received_at in zip(submissions, received):
            if self.service.queue_depth >= self.service.queue_capacity:
                audited.update((r.seq, r.outcome)
                               for r in self.service.drain(drain_at))
            seqs.append(self.service.submit(submission,
                                            now=received_at).seq)
        audited.update((r.seq, r.outcome)
                       for r in self.service.drain(drain_at))
        outcomes = []
        for submission, received_at, seq in zip(submissions, received, seqs):
            outcome = audited.pop(seq, None)
            if outcome is None:
                verdict = self.store.get_verdict(seq)
                outcome = (
                    AuditOutcome(submission=submission,
                                 error=RegistrationError(verdict.message))
                    if verdict.status == INTAKE_ERROR_STATUS else
                    AuditOutcome(submission=submission,
                                 report=verdict.to_report()))
            elif outcome.poa is not None:
                self.events.record(
                    received_at, "poa_received",
                    drone_id=submission.drone_id,
                    flight_id=submission.flight_id,
                    status=outcome.report.status.value,
                    samples=outcome.report.sample_count)
            outcomes.append(outcome)
        return outcomes

    # --- metrics ----------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, dict[str, Any]]:
        """This server's ``{name: {"type": ...}}`` metrics, sorted by name.

        The engine's per-stage :class:`~repro.perf.meter.StageMetrics`
        (``audit.<stage>.*``), the audit-trail
        :class:`~repro.sim.events.EventLog` (``server.events.*``), the
        zone-index pruning counters, and registry / evidence gauges.
        """
        engine = self.engine
        snapshot = {
            **stage_metrics_snapshot(engine.metrics, prefix="audit"),
            **event_log_snapshot(self.events, prefix="server.events"),
            **zone_index_stats_snapshot(engine.zone_index_stats,
                                        prefix="audit.zone_index"),
        }
        for name, value in (
                ("audit.zone_index.builds", engine.zone_index_builds),
                ("audit.zone_index.cache_hits", engine.zone_index_hits),
                ("server.retained_submissions", self._evidence_count()),
                ("server.registered_drones", self.store.drone_count())):
            snapshot[name] = {"type": "gauge", "value": float(value)}
        return dict(sorted(snapshot.items()))

    def attach_telemetry(self, hub: TelemetryHub) -> TelemetryHub:
        """Wire this server's live state into a streaming telemetry hub.

        The engine feeds per-intake windows on its own (via its
        ``telemetry`` handle); this registers the *stateful* side:
        gauges for cache sizes and registry counts, the zone-index cache
        hit ratio (absent until the cache has seen traffic), and a
        ``stages`` rollup section with the engine's per-stage timing
        means.  Safe to call once per hub; gauges are replaced.
        """
        self.engine.telemetry = hub
        hub.gauge("audit.payload_cache_size",
                  lambda: self.engine.payload_cache_size)
        hub.gauge("server.retained_submissions", self._evidence_count)
        hub.gauge("server.registered_drones", self.store.drone_count)

        def hit_ratio() -> float:
            lookups = (self.engine.zone_index_hits
                       + self.engine.zone_index_builds)
            return (self.engine.zone_index_hits / lookups) if lookups else 1.0

        hub.gauge("audit.zone_index.cache_hit_ratio", hit_ratio)

        def stage_section() -> dict[str, Any]:
            metrics = self.engine.metrics
            section = {}
            for stage in metrics.stages():
                runs = metrics.runs(stage)
                section[stage] = {
                    "runs": runs,
                    "mean_seconds": (metrics.total_seconds(stage) / runs
                                     if runs else 0.0),
                }
            return section

        hub.add_section("stages", stage_section)
        return hub

    # --- retention ----------------------------------------------------------------

    def _evidence_count(self) -> int:
        return sum(1 for _, verdict in self.store.audited()
                   if _is_evidence(verdict))

    def retained_for(self, drone_id: str) -> list[RetainedSubmission]:
        """Evidence currently retained for one drone, in arrival order."""
        return [RetainedSubmission(submission=stored.submission,
                                   report=verdict.to_report(),
                                   received_at=stored.received_at)
                for stored, verdict in self.store.audited(drone_id)
                if _is_evidence(verdict)]

    def purge_expired(self, now: float) -> int:
        """One retention sweep: drop expired evidence and stale nonces.

        Audited rows received more than ``retention_s`` before ``now``
        leave the store; unaudited rows stay for :meth:`AuditorService.recover`.
        Returns the number of evidence rows dropped.  The same sweep
        evicts zone-query nonces older than ``nonce_window_s`` so the
        replay-protection set stays bounded under sustained traffic.
        """
        dropped = self.store.purge_audited(now, self.retention_s)
        self.store.purge_nonces(now, self.nonce_window_s)
        return sum(1 for verdict in dropped if _is_evidence(verdict))

    # --- incident adjudication ------------------------------------------------------

    def handle_incident(self, report: IncidentReport) -> ViolationFinding:
        """Adjudicate a Zone Owner's accusation against retained evidence.

        The burden of proof is on the operator: no covering PoA, a PoA that
        failed verification, or a PoA whose bracketing pair cannot rule out
        entering the accusing zone all yield a violation finding.  Only
        here is a covering PoA opened again.
        """
        zone_record = self.zones.lookup(report.zone_id)
        self.store.get_drone(report.drone_id)  # unknown drone: raises

        covering = [s for s in self.retained_for(report.drone_id)
                    if s.submission.claimed_start - 1.0 <= report.incident_time
                    <= s.submission.claimed_end + 1.0]
        if not covering:
            finding = ViolationFinding(
                drone_id=report.drone_id, zone_id=report.zone_id,
                incident_time=report.incident_time, violation=True,
                kind=ViolationKind.NO_POA,
                detail="no retained PoA covers the incident time")
            self.ledger.adjudicate(finding)
            self._record_incident(report, finding)
            return finding

        # Any covering submission that proves alibi for the accused zone at
        # the incident time clears the drone.
        best_detail = "all covering PoAs failed verification"
        best_kind = ViolationKind.MALFORMED_POA
        for retained in covering:
            status = retained.report.status
            if status not in (VerificationStatus.ACCEPTED,
                              VerificationStatus.INSUFFICIENT):
                best_kind = _STATUS_TO_KIND[status]
                best_detail = f"covering PoA was rejected: {status.value}"
                continue
            submission = retained.submission
            poa = decrypt_poa(submission.records, self.engine.encryption_key,
                              submission.scheme, submission.finalizer)
            if self._alibi_at(poa, zone_record.zone, report.incident_time):
                finding = ViolationFinding(
                    drone_id=report.drone_id, zone_id=report.zone_id,
                    incident_time=report.incident_time, violation=False,
                    detail="PoA proves the drone could not enter the zone")
                self._record_incident(report, finding)
                return finding
            best_kind = ViolationKind.INSUFFICIENT_ALIBI
            best_detail = ("PoA cannot rule out zone entrance at the "
                           "incident time")

        finding = ViolationFinding(
            drone_id=report.drone_id, zone_id=report.zone_id,
            incident_time=report.incident_time, violation=True,
            kind=best_kind, detail=best_detail)
        self.ledger.adjudicate(finding)
        self._record_incident(report, finding)
        return finding

    def _record_incident(self, report: IncidentReport,
                         finding: ViolationFinding) -> None:
        self.events.record(
            report.incident_time, "incident_adjudicated",
            drone_id=report.drone_id, zone_id=report.zone_id,
            violation=finding.violation,
            violation_kind=finding.kind.value if finding.kind else None)

    def _alibi_at(self, poa: ProofOfAlibi, zone: NoFlyZone,
                  incident_time: float) -> bool:
        """Whether the PoA pair bracketing the instant clears the zone."""
        verifier = self.service.verifier
        samples = [entry.sample for entry in poa]
        for a, b in zip(samples, samples[1:]):
            if a.t <= incident_time <= b.t:
                return pair_is_sufficient(a, b, [zone], self.frame,
                                          verifier.vmax_mps, verifier.method)
        return False
