"""Drive a workload through the auditor on a virtual clock, then gate it.

Open loop (:func:`open_loop`): arrivals are due at fixed virtual
instants.  The service clock advances by the measured time of each
intake and each ``drain`` call and jumps over idle gaps, so queueing is
real while idle time costs nothing.  Everything due is submitted first
(admission sees the arrival instant), then the queue is drained as one
batch.  A verdict's latency runs from its arrival being due to the end
of the drain that wrote its row.

Restart (:func:`restart_pass`): a store prefilled with unaudited
submissions is reopened and recovered.  Every pending row is due at the
reopen instant and is reported when ``recover()`` returns.

Every measured duration is wall time compensated for the host's drift
by a :class:`hostspeed.HostSpeed`, whose references run between
operations.

:func:`gate` runs after the timed phase: ground truth per arrival,
conformance replay through ``repro.conformance.reference``, and a
drained store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

from repro.conformance.reference import reference_verify
from repro.core.poa import decrypt_poa
from repro.core.protocol import PoaSubmission
from repro.core.verification import RejectionReason, VerificationStatus
from repro.errors import EncryptionError
from repro.net import framing
from repro.server.service import OUTCOME_ACCEPTED, AuditorService
from repro.server.store import INTAKE_ERROR_STATUS, decode_records

from hostspeed import HostSpeed
from probe import INTAKE_ROOT
from workloads import (FRAME, HONEST, Arrival, Upload, Workload,
                       open_service)

#: In a traced run the reference and traced passes alternate in slices
#: of about this much wall time, so machine drift hits both alike.
SLICE_S = 0.05
ACCEPTED = VerificationStatus.ACCEPTED.value
DECRYPT_FAILED = (VerificationStatus.REJECTED_MALFORMED.value,
                  RejectionReason.DECRYPT_FAILED.value)


@dataclass
class PassResult:
    """What one pass over a workload measured (compensated seconds)."""

    service: AuditorService
    busy_s: float = 0.0
    verdicts: int = 0
    virtual_s: float = 0.0
    #: Honest verdict latencies (s, virtual).
    latencies_s: list[float] = field(default_factory=list)
    intake_waits_s: list[float] = field(default_factory=list)
    queue_waits_s: list[float] = field(default_factory=list)
    queue_depth_max: int = 0
    #: Drone-side wall time and uplink bytes per honest flight.
    prepare_s: list[float] = field(default_factory=list)
    wire_bytes: list[int] = field(default_factory=list)
    #: ``(arrival, intake outcome)`` per upload driven through intake.
    intakes: list[tuple[Arrival, str]] = field(default_factory=list)
    #: Stored row -> the arrival that created it.
    arrival_of_seq: dict[int, Arrival] = field(default_factory=dict)
    seq_of_flight: dict[str, int] = field(default_factory=dict)


def intake(service: AuditorService, upload: Upload, now: float,
           region: str):
    """The auditor's receive path: decode both frames, rebuild, submit."""
    entry = framing.decode_frame(upload.frames[0])
    end = framing.decode_frame(upload.frames[1])
    submission = PoaSubmission(
        drone_id=upload.drone_id, flight_id=upload.flight_id,
        records=decode_records(entry.payload),
        claimed_start=upload.claimed_start, claimed_end=upload.claimed_end,
        scheme=upload.scheme, finalizer=end.payload)
    return service.submit(submission, now=now, region=region)


def submit(result: PassResult, arrival: Arrival, speed: HostSpeed,
           probe=None) -> tuple[float, int | None]:
    """Build (drone side) and submit one arrival.

    Returns the auditor's time and the new row's seq (None unless the
    upload was accepted as a new submission).
    """
    upload = arrival.build(probe)
    if upload.prepare_s is not None:
        result.prepare_s.append(speed.scale(upload.prepare_s))
        result.wire_bytes.append(upload.wire_bytes)
    span = (probe.begin(INTAKE_ROOT, flight_id=upload.flight_id)
            if probe is not None else None)
    started = time.perf_counter()
    decision = intake(result.service, upload, arrival.at, arrival.region)
    elapsed = speed.scale(time.perf_counter() - started)
    if span is not None:
        probe.end(span, seq=decision.seq)
    result.intakes.append((arrival, decision.outcome))
    if decision.outcome != OUTCOME_ACCEPTED:
        return elapsed, None
    result.arrival_of_seq[decision.seq] = arrival
    result.seq_of_flight[upload.flight_id] = decision.seq
    return elapsed, decision.seq


def open_loop(result: PassResult, arrivals: list[Arrival], speed: HostSpeed,
              probe=None):
    """Run the open loop; a generator yielding every ``SLICE_S``."""
    service = result.service
    clock = arrivals[0].at
    enqueued_at: dict[int, float] = {}
    last_yield = time.perf_counter()
    i = 0
    while i < len(arrivals) or service.queue_depth:
        speed.tick()
        if i < len(arrivals) and arrivals[i].at <= clock:
            arrival = arrivals[i]
            i += 1
            result.intake_waits_s.append(clock - arrival.at)
            elapsed, seq = submit(result, arrival, speed, probe)
            clock += elapsed
            result.busy_s += elapsed
            if seq is not None:
                enqueued_at[seq] = clock
        elif service.queue_depth:
            result.queue_depth_max = max(result.queue_depth_max,
                                         service.queue_depth)
            drain_start = clock
            started = time.perf_counter()
            records = service.drain(now=clock)
            elapsed = speed.scale(time.perf_counter() - started)
            clock += elapsed
            result.busy_s += elapsed
            result.verdicts += len(records)
            for record in records:
                result.queue_waits_s.append(
                    drain_start - enqueued_at.pop(record.seq))
                arrival = result.arrival_of_seq[record.seq]
                if arrival.traffic_class == HONEST:
                    result.latencies_s.append(clock - arrival.at)
        else:
            clock = arrivals[i].at
        if time.perf_counter() - last_yield >= SLICE_S:
            yield
            last_yield = time.perf_counter()
    result.virtual_s = clock - arrivals[0].at


def prefill(service: AuditorService, arrivals: list[Arrival],
            speed: HostSpeed, probe=None) -> PassResult:
    """Store every arrival unaudited (harness work, not measured)."""
    result = PassResult(service=service)
    for arrival in arrivals:
        speed.tick()
        submit(result, arrival, speed, probe)
    return result


def restart_pass(workload: Workload, store_path: str, encryption_key,
                 zones, filled: PassResult, speed: HostSpeed,
                 probe=None) -> PassResult:
    """Reopen the prefilled store and recover every pending row."""
    reopen_at = filled.intakes[-1][0].at + 1.0

    def reopen_and_recover():
        span = (probe.begin("server.service.open")
                if probe is not None else None)
        service = open_service(workload, store_path, encryption_key, zones)
        if span is not None:
            probe.end(span)
        return service, service.recover(now=reopen_at)

    (service, replayed), recovery = speed.timed_call(reopen_and_recover)
    result = PassResult(
        service=service, busy_s=recovery, verdicts=replayed,
        prepare_s=filled.prepare_s, wire_bytes=filled.wire_bytes,
        intakes=filled.intakes, arrival_of_seq=filled.arrival_of_seq,
        seq_of_flight=filled.seq_of_flight)
    result.latencies_s = [recovery] * sum(
        1 for a in filled.arrival_of_seq.values() if a.traffic_class == HONEST)
    result.virtual_s = recovery
    return result


def pooled(passes: list[PassResult]) -> PassResult:
    """Restart passes over separate stores, reported as one.

    Times and counts add up and per-flight samples pool.  Row seqs are
    per store, so the seq maps are the last store's; gate the passes
    themselves.
    """
    def pool(attr: str) -> list:
        return [x for p in passes for x in getattr(p, attr)]

    return replace(passes[-1], busy_s=sum(p.busy_s for p in passes),
                   verdicts=sum(p.verdicts for p in passes),
                   virtual_s=sum(p.virtual_s for p in passes),
                   latencies_s=pool("latencies_s"),
                   prepare_s=pool("prepare_s"),
                   wire_bytes=pool("wire_bytes"), intakes=pool("intakes"))


# --- the correctness gate ----------------------------------------------------

@dataclass
class GateResult:
    """Ground-truth and conformance outcome of a run's passes."""

    attempted: int
    failed: int
    false_accepts: int
    honest_submitted: int
    honest_accepted: int
    conformance_rows: int
    conformance_mismatches: int
    failures: list[str]

    @property
    def honest_goodput_ratio(self) -> float:
        return self.honest_accepted / max(1, self.honest_submitted)


def _expected(submission: PoaSubmission, encryption_key, tee_key, zones):
    """The specification's (status, reason) for one stored submission."""
    try:
        poa = decrypt_poa(submission.records, encryption_key,
                          scheme=submission.scheme,
                          finalizer=submission.finalizer)
    except EncryptionError:
        return DECRYPT_FAILED
    want = reference_verify(poa, tee_key, zones, FRAME)
    return (want.status.value,
            want.reason.value if want.reason is not None else None)


def gate(passes: list[PassResult], encryption_key, zones) -> GateResult:
    """Check finished passes; each failing upload counts once."""
    parts = [_gate_pass(p, encryption_key, zones) for p in passes]
    return GateResult(*(
        sum((getattr(part, f.name) for part in parts),
            [] if f.name == "failures" else 0)
        for f in fields(GateResult)))


def _gate_pass(result: PassResult, encryption_key, zones) -> GateResult:
    service = result.service
    rows = {stored.seq: (stored, verdict)
            for stored, verdict in service.audited_submissions()}
    failures: list[str] = []
    honest_submitted = honest_accepted = false_accepts = 0
    for arrival, outcome in result.intakes:
        if arrival.traffic_class == HONEST:
            honest_submitted += 1
            if outcome != OUTCOME_ACCEPTED:
                failures.append(f"honest upload at {arrival.at:.3f}: {outcome}")
    for seq, arrival in result.arrival_of_seq.items():
        if seq not in rows:
            failures.append(f"seq {seq}: no verdict")
            continue
        status = rows[seq][1].status
        if arrival.traffic_class == HONEST:
            if status == ACCEPTED:
                honest_accepted += 1
            else:
                failures.append(f"seq {seq}: honest flight {status}")
        if arrival.must_reject and status == ACCEPTED:
            false_accepts += 1
            failures.append(f"seq {seq}: false accept ({arrival.traffic_class})")
    if service.store.pending_count() or service.queue_depth:
        failures.append("store not drained")

    # Replay every 10th verdict and every rejection, as bench_service does.
    tee_keys: dict[str, object] = {}
    replayed = mismatches = 0
    for position, (seq, (stored, verdict)) in enumerate(sorted(rows.items())):
        if position % 10 and verdict.status == ACCEPTED:
            continue
        replayed += 1
        submission = stored.submission
        if verdict.status == INTAKE_ERROR_STATUS:
            want = None
        else:
            if submission.drone_id not in tee_keys:
                tee_keys[submission.drone_id] = service.store.get_drone(
                    submission.drone_id).tee_public_key
            want = _expected(submission, encryption_key,
                             tee_keys[submission.drone_id], zones)
        if want != (verdict.status, verdict.reason):
            mismatches += 1
            failures.append(f"seq {seq}: stored {verdict.status}/"
                            f"{verdict.reason}, reference {want}")
    return GateResult(
        attempted=len(result.intakes), failed=len(failures),
        false_accepts=false_accepts, honest_submitted=honest_submitted,
        honest_accepted=honest_accepted, conformance_rows=replayed,
        conformance_mismatches=mismatches, failures=failures)
