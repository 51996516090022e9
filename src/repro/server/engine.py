"""The batch audit engine: the Auditor's high-throughput verification core.

The paper's Auditor (§IV-C2) verifies one PoA at a time; a production
service fields submissions from millions of drones.  :class:`AuditEngine`
is the throughput-scaled path every intake flows through:

* **Fan-out** — the CPU-bound crypto work (one RSAES key unwrap and the
  record opening of the sealed envelope, plus signature checking) for
  each submission is dispatched across a :mod:`concurrent.futures`
  pool.  ``workers <= 1`` runs everything inline in submission order,
  which is the deterministic mode the tests use.
* **Screening** — same-key signature batches are first checked with
  Bellare–Garay–Rabin screening (one public-key exponentiation per PoA
  instead of one per sample, :func:`repro.crypto.pkcs1.screen_pkcs1_v15`);
  any failure falls back to per-signature verification so rejected
  reports still carry exact indices.
* **Caching** — opened payloads are memoized by wrapped-key block and
  record (a resubmission whose records all hit skips the unwrap),
  per-drone ``T+`` lookups are cached, local-frame projections are
  memoized across samples and submissions, and the zone set is projected
  + spatially indexed once and shared across every batch against the
  same zone set (:meth:`AuditEngine.zone_index_for`).
* **Accounting** — per-stage wall time flows into a shared
  :class:`repro.perf.meter.StageMetrics`, and each batch records a
  ``batch_audited`` event (batch size, worker count, wall time) into the
  attached :class:`repro.sim.events.EventLog`.

The verification semantics are exactly the staged pipeline's
(:mod:`repro.core.verification`): reports produced here are identical to
what ``PoaVerifier.verify`` returns for the same inputs.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

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
from repro.crypto.envelope import SealedEnvelope
from repro.crypto.pkcs1 import decrypt_pkcs1_v15
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.schemes import SCHEME_RSA, get_scheme
from repro.errors import AliDroneError, ConfigurationError, EncryptionError
from repro.geo.proximity import ZoneIndexStats, ZoneProximityIndex
from repro.obs.hub import TelemetryHub
from repro.obs.trace import get_tracer
from repro.perf.meter import StageMetrics
from repro.sim.events import EventLog

#: Opened-payload cache bound: ~50k records ≈ a few MB of payloads.
DEFAULT_PAYLOAD_CACHE_MAX = 50_000
#: Projection memo bound: one entry per distinct (lat, lon) seen.
DEFAULT_POSITION_MEMO_MAX = 200_000
#: Zone-index cache bound: distinct zone *sets* in rotation are few (the
#: national database plus a handful of regional slices).
DEFAULT_ZONE_INDEX_CACHE_MAX = 8


class _BoundedCache(dict):
    """A bounded least-recently-used mapping (touch-on-hit).

    Reads through :meth:`get` refresh recency, so entries a fleet keeps
    coming back to — a hot drone's decrypted records, frequently revisited
    coordinates — survive sustained churn from one-shot keys; the earlier
    insertion-order eviction flushed exactly those hot entries once enough
    cold traffic had passed through.  Writes (``[]`` or the historical
    :meth:`insert`) evict the least-recently-used entry once
    ``max_entries`` is reached; ``on_evict`` lets the owner keep a reverse
    index in lockstep with evictions.
    """

    def __init__(self, max_entries: int, on_evict=None):
        super().__init__()
        self.max_entries = int(max_entries)
        self.on_evict = on_evict

    def get(self, key, default=None):
        try:
            value = super().pop(key)
        except KeyError:
            return default
        super().__setitem__(key, value)
        return value

    def __setitem__(self, key, value) -> None:
        if key in self:
            super().pop(key)
        else:
            while self and len(self) >= self.max_entries:
                oldest = next(iter(self))
                evicted = super().pop(oldest)
                if self.on_evict is not None:
                    self.on_evict(oldest, evicted)
        super().__setitem__(key, value)

    def insert(self, key, value) -> None:
        self[key] = value


# --- pool task functions (top-level so ProcessPoolExecutor can pickle) -----

def _signature_verdict(tee_public_key: RsaPublicKey,
                       pairs: Sequence[tuple[bytes, bytes]],
                       hash_name: str, screen: bool,
                       scheme_id: str = SCHEME_RSA,
                       finalizer: bytes = b"") -> list[int]:
    """Indices failing flight authentication, screening as the fast path.

    Screening is scheme-defined: per-sample RSA uses Bellare–Garay–Rabin
    batch screening; flight-level schemes (batch digest, hash-chain) have
    no separate fast path because their verify is already O(1) RSA.
    """
    scheme = get_scheme(scheme_id)
    if screen and scheme.screen(tee_public_key, pairs, finalizer,
                                hash_name) is True:
        return []
    return scheme.verify(tee_public_key, pairs, finalizer, hash_name)


def _submission_crypto_task(encryption_key: RsaPrivateKey | None,
                            sealed: SealedEnvelope | None,
                            cached: Sequence[bytes | None],
                            signatures: Sequence[bytes],
                            tee_public_key: RsaPublicKey,
                            hash_name: str, screen: bool,
                            scheme_id: str = SCHEME_RSA,
                            finalizer: bytes = b""):
    """Open one submission's sealed envelope and authenticate its flight.

    ``sealed`` is the parsed envelope (None when it did not parse) and
    ``cached`` the payload-cache hit per record, or None.  The key is
    unwrapped — the one private-key operation, through this module's
    ``decrypt_pkcs1_v15`` — only when some record missed.  Returns
    ``(payloads, bad_indices, decrypt_error, seconds)`` where exactly one
    of ``payloads``/``decrypt_error`` is set.
    """
    start = time.perf_counter()
    payloads = list(cached)
    try:
        if sealed is None:
            raise EncryptionError(envelope.OPEN_FAILED)
        if None in payloads:
            key = envelope.unwrap(encryption_key, sealed.wrapped_key,
                                  decrypt_pkcs1_v15)
            payloads = [envelope.open_record(key, record)
                        if payload is None else payload
                        for payload, record in zip(payloads, sealed.records)]
    except EncryptionError as exc:
        return None, [], str(exc), time.perf_counter() - start
    pairs = list(zip(payloads, signatures))
    bad = _signature_verdict(tee_public_key, pairs, hash_name, screen,
                             scheme_id, finalizer)
    return payloads, bad, None, time.perf_counter() - start


def _poa_crypto_task(tee_public_key: RsaPublicKey,
                     pairs: Sequence[tuple[bytes, bytes]],
                     hash_name: str, screen: bool,
                     scheme_id: str = SCHEME_RSA,
                     finalizer: bytes = b""):
    """Authentication verdict for an already-decrypted PoA."""
    start = time.perf_counter()
    bad = _signature_verdict(tee_public_key, pairs, hash_name, screen,
                             scheme_id, finalizer)
    return bad, time.perf_counter() - start


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
    workers: int
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
        encryption_key: the Auditor's RSAES private key (None when the
            engine only audits pre-decrypted PoAs).
        zones_provider: returns the current zone set; called once per
            batch.  Returning the same tuple object while the set is
            unchanged lets the engine skip re-keying its zone index.
        workers: size of the crypto fan-out pool.  ``1`` (default) runs
            inline — fully deterministic, no pool at all.
        executor: ``"thread"`` (default; cheap, good enough because the
            hot loop is dominated by a handful of long native big-int
            operations) or ``"process"`` (true multi-core scaling for
            large batches on multi-core hosts).
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
                 encryption_key: RsaPrivateKey | None = None,
                 zones_provider: Callable[[], Sequence[NoFlyZone]] | None = None,
                 *,
                 workers: int = 1,
                 executor: str = "thread",
                 screen_signatures: bool = True,
                 events: EventLog | None = None,
                 metrics: StageMetrics | None = None,
                 telemetry: TelemetryHub | None = None,
                 payload_cache_max: int = DEFAULT_PAYLOAD_CACHE_MAX,
                 position_memo_max: int = DEFAULT_POSITION_MEMO_MAX):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if executor not in ("thread", "process"):
            raise ConfigurationError(
                f"executor must be 'thread' or 'process', got {executor!r}")
        self.verifier = verifier
        self.tee_key_lookup = tee_key_lookup
        self.encryption_key = encryption_key
        self.zones_provider = zones_provider or (lambda: ())
        self.workers = int(workers)
        self.executor_kind = executor
        self.screen_signatures = bool(screen_signatures)
        self.events = events
        self.metrics = metrics if metrics is not None else StageMetrics()
        self.telemetry = telemetry
        self._tee_key_cache: dict[str, RsaPublicKey] = {}
        self._payload_cache = _BoundedCache(payload_cache_max,
                                            on_evict=self._payload_evicted)
        self._position_memo = _BoundedCache(position_memo_max)
        self._zone_index_cache = _BoundedCache(DEFAULT_ZONE_INDEX_CACHE_MAX)
        #: The last tuple :meth:`zone_index_for` received and its index;
        #: holding the tuple keeps its identity from being reused.
        self._last_zones: tuple[NoFlyZone, ...] | None = None
        self._last_zone_index: ZoneProximityIndex | None = None
        self._zone_index_stats = ZoneIndexStats()
        #: Reverse indices so :meth:`invalidate_drone` can purge exactly
        #: one drone's decrypted payloads; kept in lockstep with the
        #: payload cache via its eviction hook.
        self._payload_owner: dict[bytes, str] = {}
        self._drone_payload_keys: dict[str, set[bytes]] = {}
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

    def invalidate_drone(self, drone_id: str) -> None:
        """Forget a drone: its cached ``T+`` and its opened payloads.

        A drone that re-registers (new keys through the durable store)
        must not keep serving payloads opened and cache-warmed under
        its previous identity — a stale hit would skip opening the
        records of a set that no longer authenticates.
        """
        self._tee_key_cache.pop(drone_id, None)
        for key in self._drone_payload_keys.pop(drone_id, ()):
            self._payload_owner.pop(key, None)
            dict.pop(self._payload_cache, key, None)

    def _payload_evicted(self, key, _payload) -> None:
        """Cache-eviction hook: drop the evicted key's reverse index."""
        drone_id = self._payload_owner.pop(key, None)
        if drone_id is not None:
            keys = self._drone_payload_keys.get(drone_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._drone_payload_keys[drone_id]

    def _cached_payloads(self, submission: PoaSubmission
                         ) -> tuple[SealedEnvelope | None, list]:
        """Parse a submission's envelope and look each record up.

        Payloads are cached under ``(wrapped-key block, record body)``:
        the block fixes the record key, so a hit is exactly what opening
        would return.  An envelope that does not parse is looked up
        nowhere and fails in the crypto task without a private-key
        operation.
        """
        try:
            sealed = envelope.parse(
                [record.ciphertext for record in submission.records],
                self.encryption_key.byte_length)
        except EncryptionError:
            return None, []
        cached = []
        for record in sealed.records:
            payload = self._payload_cache.get((sealed.wrapped_key, record))
            if payload is not None:
                self.payload_cache_hits += 1
            else:
                self.payload_cache_misses += 1
            cached.append(payload)
        return sealed, cached

    @property
    def payload_cache_size(self) -> int:
        """Number of opened records currently memoized."""
        return len(self._payload_cache)

    @property
    def position_memo_size(self) -> int:
        """Number of distinct coordinates whose projection is memoized."""
        return len(self._position_memo)

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

    # --- fan-out helpers ----------------------------------------------------

    def _make_executor(self) -> Executor:
        if self.executor_kind == "process":
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=self.workers)

    def _map_tasks(self, fn: Callable, argument_lists: Sequence[tuple]):
        """Run ``fn(*args)`` per entry, inline or across the pool, in order."""
        if self.workers <= 1 or len(argument_lists) <= 1:
            return [fn(*args) for args in argument_lists]
        with self._make_executor() as pool:
            return list(pool.map(fn, *zip(*argument_lists)))

    # --- telemetry ----------------------------------------------------------

    def _record_telemetry(self, seconds: float, report: VerificationReport,
                          now: float) -> None:
        """Feed one audited submission into the attached telemetry hub."""
        self.telemetry.record_audit(
            seconds=seconds, status=report.status.value,
            reason=report.reason.value if report.reason is not None else None,
            samples=report.sample_count, now=now)

    # --- the batch paths ----------------------------------------------------

    def audit_batch(self, submissions: Sequence[PoaSubmission],
                    now: float | None = None,
                    record_event: bool = True) -> BatchAuditResult:
        """Decrypt and verify many submissions; never raises per-item.

        Per-submission intake failures (unknown drone, undecryptable
        records) are captured in each :class:`AuditOutcome` — an error in
        one submission cannot poison the rest of the batch.
        """
        start = time.perf_counter()
        submissions = list(submissions)
        outcomes: list[AuditOutcome] = [AuditOutcome(submission=s)
                                        for s in submissions]
        tracer = get_tracer()
        batch_span = tracer.start_span(
            "audit_batch", attributes={"batch_size": len(submissions),
                                       "workers": self.workers,
                                       "executor": self.executor_kind})
        try:
            return self._audit_batch_traced(submissions, outcomes, start,
                                            now, record_event, tracer,
                                            batch_span)
        finally:
            tracer.end_span(batch_span)

    def _audit_batch_traced(self, submissions, outcomes, start, now,
                            record_event, tracer, batch_span
                            ) -> BatchAuditResult:
        # Phase 0 (inline): resolve T+ per drone; registry errors become
        # per-outcome errors before any crypto is spent on the submission.
        task_args = []
        task_slots = []
        for slot, submission in enumerate(submissions):
            try:
                tee_key = self.tee_key_for(submission.drone_id)
            except AliDroneError as exc:
                outcomes[slot].error = exc
                continue
            sealed, cached = self._cached_payloads(submission)
            task_args.append((self.encryption_key, sealed, cached,
                              [r.signature for r in submission.records],
                              tee_key, self.verifier.hash_name,
                              self.screen_signatures,
                              submission.scheme, submission.finalizer))
            task_slots.append(slot)

        # Phase 1 (pool): the CPU-bound envelope opening + signature work.
        results = self._map_tasks(_submission_crypto_task, task_args)

        # Phase 2 (inline): feed results through the shared staged pipeline.
        zones = self.zones_provider()
        zone_index = self.zone_index_for(zones)
        zone_circles = zone_index.circles
        telemetry_now = now if now is not None else 0.0
        for (payloads, bad, decrypt_error, seconds), slot, args in zip(
                results, task_slots, task_args):
            submission = submissions[slot]
            self.metrics.record("crypto", seconds, len(submission.records))
            with tracer.span("audit.submission",
                             drone_id=submission.drone_id,
                             flight_id=submission.flight_id) as sub_span:
                # The crypto ran off-thread in phase 1; re-attach its wall
                # time as a child span (the span-level analogue of
                # StageMetrics.merge over per-worker accumulators).
                tracer.record_span(
                    "crypto", seconds, parent=sub_span,
                    attributes={"records": len(submission.records),
                                "pooled": self.workers > 1})
                if decrypt_error is not None:
                    sub_span.set_attribute("status", "malformed")
                    report = VerificationReport(
                        status=VerificationStatus.REJECTED_MALFORMED,
                        sample_count=len(submission.records),
                        message=f"PoA decryption failed: {decrypt_error}",
                        reason=RejectionReason.DECRYPT_FAILED)
                    outcomes[slot].report = report
                    if self.telemetry is not None:
                        self._record_telemetry(seconds, report,
                                               telemetry_now)
                    continue
                sealed = args[1]
                for record, payload in zip(sealed.records, payloads):
                    key = (sealed.wrapped_key, record)
                    self._payload_cache.insert(key, payload)
                    if key not in self._payload_owner:
                        self._payload_owner[key] = submission.drone_id
                        self._drone_payload_keys.setdefault(
                            submission.drone_id, set()).add(key)
                poa = ProofOfAlibi(
                    (SignedSample(payload=payload, signature=record.signature,
                                  scheme=submission.scheme)
                     for payload, record in zip(payloads, submission.records)),
                    scheme=submission.scheme,
                    finalizer=submission.finalizer)
                ctx = self.verifier.context(
                    poa, args[4], zones,
                    position_memo=self._position_memo,
                    zone_circles=zone_circles,
                    zone_index=zone_index,
                    bad_signature_indices=list(bad))
                pipeline_start = (time.perf_counter()
                                  if self.telemetry is not None else 0.0)
                report = VerificationPipeline(
                    metrics=self.metrics).run(ctx)
                sub_span.set_attribute("status", report.status.value)
                outcomes[slot].poa = poa
                outcomes[slot].report = report
                if self.telemetry is not None:
                    intake = seconds + time.perf_counter() - pipeline_start
                    self._record_telemetry(intake, report, telemetry_now)

        wall = time.perf_counter() - start
        batch_span.set_attribute("wall_time_s", wall)
        result = BatchAuditResult(outcomes=outcomes, wall_time_s=wall,
                                  workers=self.workers)
        if record_event and self.events is not None:
            self.events.record(now if now is not None else 0.0,
                               "batch_audited",
                               batch_size=result.batch_size,
                               workers=self.workers,
                               wall_time_s=wall)
        return result

    def audit_poas(self,
                   items: Iterable[tuple[ProofOfAlibi, RsaPublicKey]],
                   zones: Sequence[NoFlyZone],
                   now: float = 0.0,
                   ) -> list[VerificationReport]:
        """Verify already-decrypted PoAs as one batch.

        This is the pure verification hot path (no RSAES layer): the
        signature stage fans out / screens exactly as in
        :meth:`audit_batch`, and geometry caches are shared across items.
        Reports are identical to ``PoaVerifier.verify`` per item.
        ``now`` stamps the attached telemetry hub's windows (unused when
        no hub is attached).
        """
        items = list(items)
        task_args = [
            (tee_key, [(entry.payload, entry.signature) for entry in poa],
             self.verifier.hash_name, self.screen_signatures,
             poa.scheme, poa.finalizer)
            for poa, tee_key in items]
        tracer = get_tracer()
        with tracer.span("audit_poas", batch_size=len(items),
                         workers=self.workers):
            results = self._map_tasks(_poa_crypto_task, task_args)
            zones = list(zones)
            zone_index = self.zone_index_for(zones)
            zone_circles = zone_index.circles
            reports = []
            for (bad, seconds), (poa, tee_key) in zip(results, items):
                self.metrics.record("crypto", seconds, len(poa))
                with tracer.span("audit.submission",
                                 samples=len(poa)) as sub_span:
                    tracer.record_span(
                        "crypto", seconds, parent=sub_span,
                        attributes={"records": len(poa),
                                    "pooled": self.workers > 1})
                    ctx = self.verifier.context(
                        poa, tee_key, zones,
                        position_memo=self._position_memo,
                        zone_circles=zone_circles,
                        zone_index=zone_index,
                        bad_signature_indices=list(bad))
                    pipeline_start = (time.perf_counter()
                                      if self.telemetry is not None else 0.0)
                    report = VerificationPipeline(
                        metrics=self.metrics).run(ctx)
                    sub_span.set_attribute("status", report.status.value)
                    reports.append(report)
                    if self.telemetry is not None:
                        intake = seconds + time.perf_counter() - pipeline_start
                        self._record_telemetry(intake, report, now)
        return reports
