"""The persistent auditor service: sharded, durable, back-pressured intake.

:class:`AuditorService` is the fleet-scale successor of driving
:class:`repro.server.engine.AuditEngine` by hand.  It layers, bottom up:

* **Durability** — every accepted submission lands in a
  :class:`repro.server.store.FlightStore` (SQLite/WAL) *before* it is
  queued for audit, and every verdict is written back as it is produced.
  A crash between the two leaves the row unaudited;
  :meth:`AuditorService.recover` replays exactly those rows on restart,
  producing verdicts bit-identical to an uninterrupted run.  Re-submitted
  uploads dedup onto the stored row instead of re-entering the queue.

* **Back-pressure** — intake is a bounded queue behind a pluggable
  :class:`repro.server.admission.AdmissionScheduler` (per-drone /
  per-region token buckets under fifo, fair-share, or hybrid policies).
  A submission is *shed* (with an explicit :class:`IntakeDecision` the
  caller can surface to the drone as "retry later") when the scheduler
  denies it or the queue is full; nothing is silently dropped
  mid-pipeline.  The guards run on caller-supplied ``now`` values, so a
  sim-clock-driven run sheds deterministically.

* **Sharding** — audit work is partitioned across ``shards`` worker
  engines keyed by zone-region (falling back to drone id), each shard
  owning its *own* payload / projection / zone-index caches.  At fleet
  scale a single engine's bounded caches thrash: millions of drones push
  one another's records out before they are ever re-hit.  Partitioning
  keeps each shard's working set inside its cache bound, so the warm
  path (decryption skipped, screening fast path) survives key churn —
  this is where the measured multi-x throughput win of
  ``benchmarks/bench_service.py`` comes from.

Verification semantics are untouched: every submission still flows
through an :class:`AuditEngine` and therefore the staged pipeline, so
service verdicts stay decision-identical to the reference verifier (the
conformance harness replays them straight out of the store).
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.nfz import NoFlyZone
from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
from repro.core.sufficiency import Method
from repro.core.verification import PoaVerifier
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_rsa_keypair
from repro.errors import ConfigurationError
from repro.geo.geodesy import LocalFrame
from repro.obs.hub import TelemetryHub
from repro.perf.meter import StageMetrics
from repro.server.admission import (AdmissionScheduler, POLICY_FIFO,
                                    TokenBucket)
from repro.server.database import NfzDatabase
from repro.server.engine import AuditEngine, AuditOutcome
from repro.server.store import FlightStore, StoredSubmission, StoredVerdict
from repro.sim.events import EventLog
from repro.units import FAA_MAX_SPEED_MPS

#: Default intake bound: enough to absorb a burst, small enough that a
#: stalled audit loop pushes back on producers instead of eating memory.
DEFAULT_QUEUE_CAPACITY = 4096

#: Default per-shard decrypted-payload cache bound.  Deliberately much
#: smaller than the engine default: the shard layer exists precisely so
#: each worker only needs to hold its own partition's working set.
DEFAULT_SHARD_PAYLOAD_CACHE_MAX = 10_000


__all__ = ["AuditorService", "IntakeDecision", "ServiceAuditRecord",
           "ServiceStats", "TokenBucket", "build_service_zones"]

#: Intake outcomes, as they appear in stats and telemetry counter names.
OUTCOME_ACCEPTED = "accepted"
OUTCOME_DEDUPLICATED = "deduplicated"
OUTCOME_SHED_RATE = "shed_rate_limited"
OUTCOME_SHED_QUEUE = "shed_queue_full"


@dataclass(frozen=True)
class IntakeDecision:
    """What the intake front-end told one submitter."""

    outcome: str
    #: Stored row for accepted/deduplicated submissions, None when shed.
    seq: int | None = None
    #: Shard the work was routed to (None when shed or deduplicated).
    shard: int | None = None

    @property
    def accepted(self) -> bool:
        """Whether the submission is (or already was) stored."""
        return self.outcome in (OUTCOME_ACCEPTED, OUTCOME_DEDUPLICATED)

    @property
    def shed(self) -> bool:
        """Whether back-pressure turned the submission away."""
        return self.outcome in (OUTCOME_SHED_RATE, OUTCOME_SHED_QUEUE)


@dataclass
class ServiceStats:
    """Monotone intake / audit accounting for one service lifetime."""

    submitted: int = 0
    accepted: int = 0
    deduplicated: int = 0
    shed_rate_limited: int = 0
    shed_queue_full: int = 0
    audited: int = 0
    replayed: int = 0
    intake_errors: int = 0
    per_shard_audited: list[int] = field(default_factory=list)
    #: Accepted submissions per authentication scheme (live counters;
    #: the store's indexed ``submission_counts_by_scheme`` is the durable
    #: equivalent and also covers rows from before this process started).
    submissions_by_scheme: dict[str, int] = field(default_factory=dict)
    #: Scheduler denials by reason (``global`` / ``drone`` / ``region`` /
    #: ``penalty``); every denial is also counted in ``shed_rate_limited``
    #: so the intake partition invariant is unchanged.
    admission_denied: dict[str, int] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        """Total submissions turned away by back-pressure."""
        return self.shed_rate_limited + self.shed_queue_full

    def to_dict(self) -> dict:
        """JSON-ready snapshot."""
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "deduplicated": self.deduplicated,
            "shed": self.shed,
            "shed_rate_limited": self.shed_rate_limited,
            "shed_queue_full": self.shed_queue_full,
            "audited": self.audited,
            "replayed": self.replayed,
            "intake_errors": self.intake_errors,
            "per_shard_audited": list(self.per_shard_audited),
            "submissions_by_scheme": dict(
                sorted(self.submissions_by_scheme.items())),
            "admission_denied": dict(sorted(self.admission_denied.items())),
        }


@dataclass(frozen=True)
class ServiceAuditRecord:
    """One audited submission: its stored row and the engine outcome."""

    seq: int
    shard: int
    outcome: AuditOutcome


@dataclass(frozen=True)
class _QueuedItem:
    seq: int
    submission: PoaSubmission
    shard: int


class AuditorService:
    """A long-running, durable, sharded PoA auditor.

    Args:
        frame: the service's local projection frame.
        store: an open :class:`FlightStore`, or a path handed to one
            (``":memory:"`` for an ephemeral service).  Registered
            drones already in the store are loaded back into the live
            key table, so a restarted service resumes with its fleet.
        shards: number of audit partitions; each gets its own
            :class:`AuditEngine` with private caches.
        queue_capacity: bound on queued-but-unaudited submissions.
        admission: an :class:`AdmissionScheduler` guarding
            :meth:`submit`; ``None`` (with no legacy rate) disables the
            guard (queue bound still applies).
        admission_rate_per_s / admission_burst: legacy shorthand — a
            non-None rate builds a fifo (single global bucket)
            scheduler, the original TokenBucket behaviour.
        shard_payload_cache_max: per-shard decrypted-payload cache bound.
        encryption_key: the RSAES private key drones encrypt under; one
            is generated (``encryption_key_bits``) when omitted.
        workers: accepted for compatibility and must be ``1``: an engine
            audits its batch in one inline pass, and shards are the unit
            of scale-out.
        screen_signatures: forwarded to each shard's engine.
        telemetry: optional hub; see :meth:`attach_telemetry`.
    """

    def __init__(self, frame: LocalFrame,
                 store: FlightStore | str = ":memory:", *,
                 shards: int = 1,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 admission: AdmissionScheduler | None = None,
                 admission_rate_per_s: float | None = None,
                 admission_burst: float = 32.0,
                 shard_payload_cache_max: int = DEFAULT_SHARD_PAYLOAD_CACHE_MAX,
                 encryption_key: RsaPrivateKey | None = None,
                 encryption_key_bits: int = 1024,
                 rng=None,
                 vmax_mps: float = FAA_MAX_SPEED_MPS,
                 hash_name: str = "sha1",
                 method: Method = "conservative",
                 workers: int = 1,
                 screen_signatures: bool = True,
                 telemetry: TelemetryHub | None = None,
                 events: EventLog | None = None):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers != 1:
            raise ConfigurationError(
                f"workers must be 1 (scale out with shards), got {workers}")
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue capacity must be >= 1, got {queue_capacity}")
        self.frame = frame
        self.store = (store if isinstance(store, FlightStore)
                      else FlightStore(store))
        self.shards = int(shards)
        self.queue_capacity = int(queue_capacity)
        self.zones = NfzDatabase(frame)
        self.verifier = PoaVerifier(frame, vmax_mps=vmax_mps,
                                    hash_name=hash_name, method=method)
        self.events = events if events is not None else EventLog()
        self.metrics = StageMetrics()
        self.stats = ServiceStats(per_shard_audited=[0] * self.shards)
        self.telemetry = telemetry
        if admission is None and admission_rate_per_s is not None:
            admission = AdmissionScheduler(POLICY_FIFO,
                                           rate_per_s=admission_rate_per_s,
                                           burst=admission_burst)
        self.admission = admission
        self._queue: deque[_QueuedItem] = deque()
        if encryption_key is None:
            import random as random_module
            encryption_key = generate_rsa_keypair(
                encryption_key_bits,
                rng=rng if rng is not None else random_module.SystemRandom())
        self._encryption_key = encryption_key
        #: Live ``drone_id -> T+`` table, hydrated from the store so a
        #: restarted service resumes with its registered fleet.
        self._tee_keys: dict[str, RsaPublicKey] = {
            drone.drone_id: drone.tee_public_key
            for drone in self.store.load_drones()}
        self.engines = [
            AuditEngine(
                self.verifier,
                tee_key_lookup=self._lookup_tee_key,
                encryption_key=self._encryption_key,
                # The memoized tuple, not a copy: the engines reuse their
                # zone index for as long as it is the same object.
                zones_provider=self.zones.zone_set,
                screen_signatures=screen_signatures,
                events=None, metrics=self.metrics,
                telemetry=telemetry,
                payload_cache_max=shard_payload_cache_max)
            for _ in range(self.shards)]
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    # --- registration ---------------------------------------------------------

    def _lookup_tee_key(self, drone_id: str) -> RsaPublicKey:
        key = self._tee_keys.get(drone_id)
        if key is None:
            # Fall through to the store: raises RegistrationError for a
            # genuinely unknown id, hydrates the table otherwise.
            key = self.store.get_drone(drone_id).tee_public_key
            self._tee_keys[drone_id] = key
        return key

    @property
    def public_encryption_key(self) -> RsaPublicKey:
        """The key drones encrypt PoA payloads under."""
        return self._encryption_key.public_key

    def register_drone(self, request: DroneRegistrationRequest,
                       now: float = 0.0) -> str:
        """Durably register ``(D+, T+)``; returns the issued ``id_drone``."""
        drone_id = self.store.register_drone(
            request.operator_public_key, request.tee_public_key,
            operator_name=request.operator_name, registered_at=now)
        self._tee_keys[drone_id] = request.tee_public_key
        self.events.record(now, "drone_registered", drone_id=drone_id,
                           operator=request.operator_name,
                           attested=request.quote is not None)
        return drone_id

    def register_zone(self, zone: NoFlyZone, owner_name: str = "",
                      proof_of_ownership: str = "service") -> str:
        """Register an NFZ into the service's zone database."""
        record = self.zones.register(zone, owner_name=owner_name,
                                     proof_of_ownership=proof_of_ownership)
        return record.zone_id

    # --- sharding -------------------------------------------------------------

    def shard_of(self, drone_id: str, region: str = "") -> int:
        """The shard that audits this submission.

        Zone-region is the primary partition key — flights in the same
        region verify against the same zone slice, so its shard's
        zone-index and projection caches stay hot — with drone id as the
        fallback, which keeps a drone's re-submitted records in the one
        shard that already holds their decrypted payloads.
        """
        key = region if region else drone_id
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.shards

    # --- intake ---------------------------------------------------------------

    def submit(self, submission: PoaSubmission, *, now: float,
               region: str = "") -> IntakeDecision:
        """Admit, persist, and enqueue one submission (or shed it).

        Order matters: the admission guard and queue bound are checked
        *before* the store write, so shed traffic costs no I/O; the store
        write happens *before* enqueueing, so an accepted submission is
        durable by the time the caller sees the ack.
        """
        self.stats.submitted += 1
        if self.admission is not None:
            decision = self.admission.admit(submission.drone_id, region, now)
            if not decision.admitted:
                reason = decision.reason or "global"
                self.stats.shed_rate_limited += 1
                self.stats.admission_denied[reason] = \
                    self.stats.admission_denied.get(reason, 0) + 1
                self._mark(OUTCOME_SHED_RATE, now)
                if self.telemetry is not None:
                    self.telemetry.mark("admission.denied", now=now)
                    self.telemetry.mark(f"admission.denied.{reason}", now=now)
                return IntakeDecision(outcome=OUTCOME_SHED_RATE)
            if self.telemetry is not None:
                self.telemetry.mark("admission.admitted", now=now)
        if len(self._queue) >= self.queue_capacity:
            self.stats.shed_queue_full += 1
            self._mark(OUTCOME_SHED_QUEUE, now)
            return IntakeDecision(outcome=OUTCOME_SHED_QUEUE)

        start = time.perf_counter()
        seq, inserted = self.store.put_submission(submission, region=region,
                                                  received_at=now)
        self._observe_store(time.perf_counter() - start, now)
        if not inserted:
            self.stats.deduplicated += 1
            self._mark(OUTCOME_DEDUPLICATED, now)
            if self.admission is not None:
                # Byte-identical re-uploads are the duplicate-flood shape;
                # feed them back at half weight so one innocent retry does
                # not penalise a drone, but a dedup storm does.
                self.admission.note_rejection(submission.drone_id, now,
                                              weight=0.5)
            return IntakeDecision(outcome=OUTCOME_DEDUPLICATED, seq=seq)
        shard = self.shard_of(submission.drone_id, region)
        self._queue.append(_QueuedItem(seq=seq, submission=submission,
                                       shard=shard))
        self.stats.accepted += 1
        self.stats.submissions_by_scheme[submission.scheme] = \
            self.stats.submissions_by_scheme.get(submission.scheme, 0) + 1
        self._mark(OUTCOME_ACCEPTED, now)
        return IntakeDecision(outcome=OUTCOME_ACCEPTED, seq=seq, shard=shard)

    @property
    def queue_depth(self) -> int:
        """Submissions accepted but not yet audited."""
        return len(self._queue)

    @property
    def queue_fill_ratio(self) -> float:
        """Queue depth as a fraction of its capacity."""
        return len(self._queue) / self.queue_capacity

    # --- audit loop -----------------------------------------------------------

    def drain(self, now: float,
              max_submissions: int | None = None) -> list[ServiceAuditRecord]:
        """Audit up to ``max_submissions`` queued items, one batch per shard.

        Verdicts are written back to the store as each shard's batch
        completes; the queue entry is gone either way, so a crash between
        batch and write-back is recovered from the store, not the queue.
        """
        budget = (len(self._queue) if max_submissions is None
                  else min(max_submissions, len(self._queue)))
        taken = [self._queue.popleft() for _ in range(budget)]
        if not taken:
            return []
        by_shard: dict[int, list[_QueuedItem]] = {}
        for item in taken:
            by_shard.setdefault(item.shard, []).append(item)
        records: list[ServiceAuditRecord] = []
        for shard in sorted(by_shard):
            items = by_shard[shard]
            result = self.engines[shard].audit_batch(
                [item.submission for item in items], now=now,
                record_event=False)
            for item, outcome in zip(items, result.outcomes):
                self._record_outcome(item.seq, shard, outcome, now)
                records.append(ServiceAuditRecord(seq=item.seq, shard=shard,
                                                  outcome=outcome))
            self.stats.per_shard_audited[shard] += len(items)
        self.stats.audited += len(records)
        self.events.record(now, "service_drained", audited=len(records),
                           shards_touched=len(by_shard),
                           queue_depth=len(self._queue))
        return records

    def _record_outcome(self, seq: int, shard: int, outcome: AuditOutcome,
                        now: float) -> None:
        start = time.perf_counter()
        if outcome.report is not None:
            self.store.record_verdict(seq, outcome.report, audited_at=now)
            rejected = outcome.report.status.value != "accepted"
        else:
            # Unknown drone etc: terminally unprocessable, never replayed.
            self.stats.intake_errors += 1
            self.store.record_intake_error(seq, str(outcome.error),
                                           audited_at=now)
            rejected = True
        if rejected and self.admission is not None:
            self.admission.note_rejection(outcome.submission.drone_id, now)
        self._observe_store(time.perf_counter() - start, now)

    def recover(self, now: float, batch_size: int = 256) -> int:
        """Replay every stored-but-unaudited submission after a restart.

        Rows are fetched, routed through their usual shard, and verdicted
        in arrival order until none are pending; because the pending set
        is defined by the *absence* of a verdict row, each interrupted
        submission is audited exactly once no matter how many times
        recovery itself is interrupted and rerun.  Only valid on an idle
        service (nothing queued), which is the restart situation.
        """
        if self._queue:
            raise ConfigurationError(
                "recover() requires an empty intake queue")
        replayed = 0
        while True:
            pending = self.store.pending(limit=batch_size)
            if not pending:
                break
            for stored in pending:
                self._queue.append(_QueuedItem(
                    seq=stored.seq, submission=stored.submission,
                    shard=self.shard_of(stored.submission.drone_id,
                                        stored.region)))
            replayed += len(self.drain(now))
        self.stats.replayed += replayed
        if replayed:
            self.events.record(now, "service_recovered", replayed=replayed)
        return replayed

    # --- conformance feed -----------------------------------------------------

    def audited_submissions(self
                            ) -> list[tuple[StoredSubmission, StoredVerdict]]:
        """Store-replayed ``(submission, verdict)`` pairs, arrival order."""
        return list(self.store.audited())

    # --- telemetry ------------------------------------------------------------

    def _mark(self, outcome: str, now: float) -> None:
        if self.telemetry is not None:
            self.telemetry.mark(f"service.intake.{outcome}", now=now)
            if outcome in (OUTCOME_SHED_RATE, OUTCOME_SHED_QUEUE):
                self.telemetry.mark("service.shed", now=now)

    def _observe_store(self, seconds: float, now: float) -> None:
        if self.telemetry is not None:
            self.telemetry.observe("service.store.seconds", seconds, now=now)

    def attach_telemetry(self, hub: TelemetryHub) -> TelemetryHub:
        """Wire the service's live state into a streaming telemetry hub.

        Beyond the per-intake feed every shard engine already sends
        (``audit.intake.seconds`` etc.), this registers the service-level
        signals the monitor rules watch: queue depth and fill ratio,
        shed/dedup/accept counters (marked at decision time), store
        latency (``service.store.seconds`` sketch), and per-shard payload
        cache hit/miss gauges plus an aggregate hit ratio.
        """
        self.telemetry = hub
        for engine in self.engines:
            engine.telemetry = hub
        hub.gauge("service.queue_depth", lambda: float(self.queue_depth))
        hub.gauge("service.queue_fill_ratio", lambda: self.queue_fill_ratio)
        hub.gauge("service.store.pending",
                  lambda: float(self.store.pending_count()))
        for index, engine in enumerate(self.engines):
            hub.gauge(f"service.shard{index}.payload_cache_hits",
                      lambda e=engine: float(e.payload_cache_hits))
            hub.gauge(f"service.shard{index}.payload_cache_misses",
                      lambda e=engine: float(e.payload_cache_misses))

        def hit_ratio() -> float:
            hits = sum(e.payload_cache_hits for e in self.engines)
            misses = sum(e.payload_cache_misses for e in self.engines)
            total = hits + misses
            return (hits / total) if total else 1.0

        hub.gauge("service.payload_cache_hit_ratio", hit_ratio)
        hub.add_section("service", self.stats.to_dict)
        if self.admission is not None:
            hub.add_section("admission", self.admission.stats.to_dict)
        return hub

    # --- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying store (queued items stay recoverable)."""
        self.store.close()

    def __enter__(self) -> "AuditorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_service_zones(service: AuditorService,
                        zones: Sequence[NoFlyZone]) -> list[str]:
    """Register a zone list into a service; returns the issued ids."""
    return [service.register_zone(zone) for zone in zones]
