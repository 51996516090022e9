"""The batch audit engine: the Auditor's high-throughput verification core.

The paper's Auditor (§IV-C2) verifies one PoA at a time; a production
service fields submissions from millions of drones.  :class:`AuditEngine`
is the throughput-scaled path every intake flows through:

* **One pass** — a batch is audited in submission order, one submission
  at a time: resolve ``T+``, open the sealed envelope (one RSAES key
  unwrap plus record opening), authenticate the flight and run the
  staged pipeline, all inside that submission's ``audit.submission``
  span.  Scale-out is by shard
  (:class:`repro.server.service.AuditorService`), not inside an engine.
* **Screening** — same-key signature batches are first checked with
  Bellare–Garay–Rabin screening (one public-key exponentiation per PoA
  instead of one per sample, :func:`repro.crypto.pkcs1.screen_pkcs1_v15`);
  any failure falls back to per-signature verification so rejected
  reports still carry exact indices.
* **Caching** — opened payloads are memoized by wrapped-key block and
  record as soon as their submission opens (a resubmission whose records
  all hit skips the unwrap, also later in the same batch),
  per-drone ``T+`` lookups are cached, and the zone set is projected
  + spatially indexed once and shared across every batch against the
  same zone set (:meth:`AuditEngine.zone_index_for`).
* **Accounting** — per-stage wall time flows into a shared
  :class:`repro.perf.meter.StageMetrics`, and each batch records a
  ``batch_audited`` event (batch size, wall time) into the
  attached :class:`repro.sim.events.EventLog`.

The verification semantics are exactly the staged pipeline's
(:mod:`repro.core.verification`): reports produced here are identical to
what ``PoaVerifier.verify`` returns for the same inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.protocol import PoaSubmission
from repro.core.verification import (
    PoaVerifier,
    RejectionReason,
    VerificationPipeline,
    VerificationReport,
    VerificationStatus,
)
from repro.crypto import envelope
from repro.crypto.pkcs1 import decrypt_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.schemes import get_scheme
from repro.errors import AliDroneError, EncryptionError, SchemeError
from repro.geo.proximity import ZoneIndexStats, ZoneProximityIndex
from repro.obs.hub import TelemetryHub
from repro.obs.trace import get_tracer
from repro.perf.meter import StageMetrics
from repro.sim.events import EventLog

#: Opened-payload cache bound: ~50k records ≈ a few MB of payloads.
DEFAULT_PAYLOAD_CACHE_MAX = 50_000
#: Zone-index cache bound: distinct zone *sets* in rotation are few (the
#: national database plus a handful of regional slices).
DEFAULT_ZONE_INDEX_CACHE_MAX = 8

#: Miss marker for :meth:`_BoundedCache.get`, which may cache ``None``.
_MISSING = object()


class _BoundedCache(dict):
    """A bounded least-recently-used mapping (touch-on-hit).

    Reads through :meth:`get` refresh recency, so entries a fleet keeps
    coming back to — a hot drone's decrypted records — survive sustained
    churn from one-shot keys; the earlier insertion-order eviction
    flushed exactly those hot entries once enough cold traffic had
    passed through.  Writes (``[]`` or the historical :meth:`insert`)
    evict the least-recently-used entry once ``max_entries`` is reached.
    """

    def __init__(self, max_entries: int):
        super().__init__()
        self.max_entries = int(max_entries)

    def get(self, key, default=None):
        value = super().pop(key, _MISSING)
        if value is _MISSING:
            return default
        super().__setitem__(key, value)
        return value

    def __setitem__(self, key, value) -> None:
        if key in self:
            super().pop(key)
        else:
            while self and len(self) >= self.max_entries:
                super().pop(next(iter(self)))
        super().__setitem__(key, value)

    def insert(self, key, value) -> None:
        self[key] = value


# --- results ----------------------------------------------------------------

@dataclass
class AuditOutcome:
    """What the engine concluded about one submission."""

    submission: PoaSubmission
    report: VerificationReport | None = None
    poa: ProofOfAlibi | None = None
    #: Intake-level failure (e.g. unknown drone id); the single-submission
    #: API re-raises it, the batch API surfaces it alongside the others.
    error: AliDroneError | None = None

    @property
    def ok(self) -> bool:
        """Whether intake produced a report (of any verification status)."""
        return self.report is not None


@dataclass
class BatchAuditResult:
    """One ``audit_batch`` run: outcomes plus throughput accounting."""

    outcomes: list[AuditOutcome]
    wall_time_s: float
    batch_size: int = 0

    def __post_init__(self) -> None:
        if not self.batch_size:
            self.batch_size = len(self.outcomes)

    @property
    def reports(self) -> list[VerificationReport | None]:
        """Per-submission reports (None where intake errored)."""
        return [o.report for o in self.outcomes]

    @property
    def submissions_per_second(self) -> float:
        """Throughput of this batch."""
        if self.wall_time_s <= 0.0:
            return float("inf")
        return self.batch_size / self.wall_time_s


class AuditEngine:
    """Verifies many PoA submissions as one batch.

    Args:
        verifier: the :class:`PoaVerifier` carrying frame/speed/method
            parameters (its per-stage pipeline is reused unchanged).
        tee_key_lookup: maps ``drone_id`` to the registered ``T+``; must
            raise :class:`repro.errors.RegistrationError` for unknown ids.
            Results are cached per drone.
        encryption_key: the Auditor's RSAES private key; every
            submission's sealed envelope is opened under it.
        zones_provider: returns the current zone set; called once per
            batch.  Returning the same tuple object while the set is
            unchanged lets the engine skip re-keying its zone index.
        screen_signatures: use batch screening as the signature fast path.
            Screening accepts only payload sets that were genuinely signed
            by ``T+`` (see :func:`repro.crypto.pkcs1.screen_pkcs1_v15` for
            the exact guarantee); set False to force per-sample checks.
        events: optional audit-trail log receiving ``batch_audited``.
        metrics: optional shared :class:`StageMetrics`; one is created
            when omitted and exposed as :attr:`metrics`.
        telemetry: optional :class:`repro.obs.hub.TelemetryHub`; when
            attached, every audited submission feeds the streaming
            windows via :meth:`TelemetryHub.record_audit` (intake
            latency, per-status counts, per-reason rejections).  The
            disabled path is a single ``None`` check.
    """

    def __init__(self, verifier: PoaVerifier,
                 tee_key_lookup: Callable[[str], RsaPublicKey],
                 encryption_key: RsaPrivateKey,
                 zones_provider: Callable[[], Sequence[NoFlyZone]] | None = None,
                 *,
                 screen_signatures: bool = True,
                 events: EventLog | None = None,
                 metrics: StageMetrics | None = None,
                 telemetry: TelemetryHub | None = None,
                 payload_cache_max: int = DEFAULT_PAYLOAD_CACHE_MAX):
        self.verifier = verifier
        self.tee_key_lookup = tee_key_lookup
        self.encryption_key = encryption_key
        self.zones_provider = zones_provider or (lambda: ())
        self.screen_signatures = bool(screen_signatures)
        self.events = events
        self.metrics = metrics if metrics is not None else StageMetrics()
        self.telemetry = telemetry
        self._tee_key_cache: dict[str, RsaPublicKey] = {}
        self._payload_cache = _BoundedCache(payload_cache_max)
        self._zone_index_cache = _BoundedCache(DEFAULT_ZONE_INDEX_CACHE_MAX)
        #: The last tuple :meth:`zone_index_for` received and its index;
        #: holding the tuple keeps its identity from being reused.
        self._last_zones: tuple[NoFlyZone, ...] | None = None
        self._last_zone_index: ZoneProximityIndex | None = None
        self._zone_index_stats = ZoneIndexStats()
        self.zone_index_builds = 0
        self.zone_index_hits = 0
        self.payload_cache_hits = 0
        self.payload_cache_misses = 0

    # --- caches -------------------------------------------------------------

    def tee_key_for(self, drone_id: str) -> RsaPublicKey:
        """The registered ``T+`` for a drone, cached per drone id."""
        key = self._tee_key_cache.get(drone_id)
        if key is None:
            key = self.tee_key_lookup(drone_id)
            self._tee_key_cache[drone_id] = key
        return key

    def _open(self, submission: PoaSubmission) -> ProofOfAlibi:
        """The PoA inside a submission's sealed envelope, via the cache.

        Payloads are cached under ``(wrapped-key block, record body)``:
        the block fixes the record key, so a hit is exactly what opening
        would return.  The key is unwrapped — the one private-key
        operation, through this module's ``decrypt_pkcs1_v15`` — only
        when some record missed.  The payloads enter the cache as soon as
        the envelope opens, so a later submission of the same batch can
        hit them.  Raises :class:`EncryptionError` when the envelope does
        not open; one that does not even parse is looked up nowhere and
        costs no private-key operation.
        """
        sealed = envelope.parse(
            [record.ciphertext for record in submission.records],
            self.encryption_key.byte_length)
        slots = [(sealed.wrapped_key, record) for record in sealed.records]
        payloads = [self._payload_cache.get(slot) for slot in slots]
        missed = payloads.count(None)
        self.payload_cache_hits += len(payloads) - missed
        self.payload_cache_misses += missed
        if missed:
            key = envelope.unwrap(self.encryption_key, sealed.wrapped_key,
                                  decrypt_pkcs1_v15)
            payloads = [envelope.open_record(key, record)
                        if payload is None else payload
                        for payload, record in zip(payloads, sealed.records)]
        for slot, payload in zip(slots, payloads):
            self._payload_cache.insert(slot, payload)
        return ProofOfAlibi(
            (SignedSample(payload=payload, signature=record.signature,
                          scheme=submission.scheme)
             for payload, record in zip(payloads, submission.records)),
            scheme=submission.scheme, finalizer=submission.finalizer)

    @property
    def payload_cache_size(self) -> int:
        """Number of opened records currently memoized."""
        return len(self._payload_cache)

    @property
    def zone_index_stats(self) -> ZoneIndexStats:
        """Pruning counters aggregated over every batch's zone queries."""
        return self._zone_index_stats

    def zone_index_for(self, zones: Sequence[NoFlyZone]) -> ZoneProximityIndex:
        """The proximity index for a zone set, shared across batches.

        A tuple that is the very object the last call received returns
        that call's index with no O(zones) work: a tuple cannot change,
        and :meth:`repro.server.database.NfzDatabase.zone_set` hands out
        a new one whenever the zone set changes.  Anything else is keyed
        by its contents, so successive batches against the same zone
        database reuse one index (projection and grid build paid once),
        and a list mutated in place between batches gets a new one.
        Every cached index feeds the engine-wide
        :attr:`zone_index_stats` accumulator.
        """
        if type(zones) is tuple and zones is self._last_zones:
            self.zone_index_hits += 1
            return self._last_zone_index
        key = tuple(zones)
        index = self._zone_index_cache.get(key)
        if index is None:
            index = ZoneProximityIndex(zones, self.verifier.frame,
                                       stats=self._zone_index_stats)
            self._zone_index_cache.insert(key, index)
            self.zone_index_builds += 1
        else:
            self.zone_index_hits += 1
        if type(zones) is tuple:
            self._last_zones, self._last_zone_index = zones, index
        return index

    # --- the batch path -----------------------------------------------------

    def audit_batch(self, submissions: Sequence[PoaSubmission],
                    now: float | None = None,
                    record_event: bool = True) -> BatchAuditResult:
        """Open and verify many submissions in one pass; never raises per-item.

        Submissions are audited in order, each inside its own
        ``audit.submission`` span.  Per-submission intake failures
        (unknown drone, an envelope that does not open) are captured in
        each :class:`AuditOutcome` — an error in one submission cannot
        poison the rest of the batch.
        """
        start = time.perf_counter()
        submissions = list(submissions)
        at = now if now is not None else 0.0
        with get_tracer().span("audit_batch",
                               batch_size=len(submissions)) as batch_span:
            zones = self.zones_provider()
            zone_index = self.zone_index_for(zones)
            outcomes = [self._audit_one(submission, zones, zone_index, at)
                        for submission in submissions]
            wall = time.perf_counter() - start
            batch_span.set_attribute("wall_time_s", wall)
        result = BatchAuditResult(outcomes=outcomes, wall_time_s=wall)
        if record_event and self.events is not None:
            self.events.record(at, "batch_audited",
                               batch_size=result.batch_size,
                               wall_time_s=wall)
        return result

    def _audit_one(self, submission: PoaSubmission,
                   zones: Sequence[NoFlyZone],
                   zone_index: ZoneProximityIndex, now: float) -> AuditOutcome:
        """Resolve ``T+``, then open, authenticate and verify one submission.

        An unknown drone is an intake error and costs no crypto.  Any
        other :class:`AliDroneError` on the way becomes this submission's
        intake error too, so one submission cannot stop the batch.
        """
        outcome = AuditOutcome(submission=submission)
        try:
            tee_key = self.tee_key_for(submission.drone_id)
        except AliDroneError as exc:
            outcome.error = exc
            return outcome
        with get_tracer().span("audit.submission",
                               drone_id=submission.drone_id,
                               flight_id=submission.flight_id) as sub_span:
            start = time.perf_counter()
            try:
                outcome.poa, report = self._verify(submission, tee_key,
                                                   zones, zone_index)
            except AliDroneError as exc:
                outcome.error = exc
                sub_span.set_attribute("error", type(exc).__name__)
                return outcome
            sub_span.set_attribute("status", report.status.value)
            outcome.report = report
            if self.telemetry is not None:
                self.telemetry.record_audit(
                    seconds=time.perf_counter() - start,
                    status=report.status.value,
                    reason=(report.reason.value
                            if report.reason is not None else None),
                    samples=report.sample_count, now=now)
        return outcome

    def _verify(self, submission: PoaSubmission, tee_key: RsaPublicKey,
                zones: Sequence[NoFlyZone], zone_index: ZoneProximityIndex,
                ) -> tuple[ProofOfAlibi | None, VerificationReport]:
        """The opened PoA (None when the envelope does not open) and its
        report from the staged pipeline."""
        start = time.perf_counter()
        try:
            poa = self._open(submission)
        except EncryptionError as exc:
            poa, failure = None, exc
        else:
            bad = self._authenticate(poa, tee_key)
        self.metrics.record("crypto", time.perf_counter() - start,
                            len(submission.records))
        if poa is None:
            return None, VerificationReport(
                status=VerificationStatus.REJECTED_MALFORMED,
                sample_count=len(submission.records),
                message=f"PoA decryption failed: {failure}",
                reason=RejectionReason.DECRYPT_FAILED)
        ctx = self.verifier.context(poa, tee_key, zones,
                                    zone_circles=zone_index.circles,
                                    zone_index=zone_index,
                                    bad_signature_indices=bad)
        return poa, VerificationPipeline(metrics=self.metrics).run(ctx)

    def _authenticate(self, poa: ProofOfAlibi,
                      tee_key: RsaPublicKey) -> list[int]:
        """Indices failing flight authentication, screening as the fast path.

        Screening is scheme-defined: per-sample RSA uses Bellare–Garay–Rabin
        batch screening; flight-level schemes (batch digest, hash-chain) have
        no separate fast path because their verify is already O(1) RSA.
        Nothing authenticates under a scheme id that names no registered
        scheme, so every index fails, as in the reference verifier.
        """
        pairs = [(entry.payload, entry.signature) for entry in poa]
        try:
            scheme = get_scheme(poa.scheme)
        except SchemeError:
            return list(range(len(pairs)))
        hash_name = self.verifier.hash_name
        if self.screen_signatures and scheme.screen(
                tee_key, pairs, poa.finalizer, hash_name) is True:
            return []
        return scheme.verify(tee_key, pairs, poa.finalizer, hash_name)
