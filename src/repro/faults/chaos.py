"""The chaos harness: scenario x fault-plan sweeps with invariant checks.

Each cell of the matrix drives the *entire* protocol under one fault plan:
registration, signed zone query, the adaptive flight (degraded-mode
sampling on), PoA streaming over faulty links with the bounded outbox, and
final submission to the Auditor with retries — all on virtual time, all
bit-reproducible from the seed.

Three system-wide invariants are asserted over the sweep:

* **Safety** — a violating flight (straight through an NFZ) is never
  ACCEPTED, under *any* fault plan.  Faults may delay or degrade the
  protocol; they must never mint an alibi.
* **Liveness** — under every plan whose effective message loss is at most
  30%, the streamed PoA is fully acknowledged and a verification report is
  obtained within the virtual-time budget.
* **No-op path** — with the empty (baseline) plan attached, the flight's
  PoA is bit-identical to a run with no injector at all: injection
  machinery is free when nothing is injected.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.crypto.rsa import generate_rsa_keypair
from repro.drone.client import AliDroneClient
from repro.drone.flightplan import FlightPlan
from repro.errors import AliDroneError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, builtin_plans
from repro.faults.retry import RetryPolicy, execute_with_retry
from repro.net.link import SimulatedLink
from repro.net.streaming import StreamingAuditorEndpoint, StreamingUploader
from repro.server.auditor import AliDroneServer
from repro.sim.clock import SimClock
from repro.tee.attestation import provision_device
from repro.workloads.scenario import Scenario

#: Maximum end-to-end loss rate the liveness invariant covers (the paper's
#: control channel is lossy but not adversarial).
LIVENESS_LOSS_CEILING = 0.30

#: Client-side retry disciplines used by every chaos cell.  Attempts are
#: generous because chaos plans include hard outage windows, but bounded so
#: a cell cannot spin forever.
CHAOS_RETRY_POLICY = RetryPolicy(max_attempts=6, base_delay_s=0.2,
                                 max_delay_s=4.0, attempt_timeout_s=0.1)
CHAOS_TEE_RETRY_POLICY = RetryPolicy(max_attempts=6, base_delay_s=0.02,
                                     max_delay_s=0.5)


class _AuditorFrontend:
    """The server as the drone sees it over the (possibly skewed) wire.

    Production endpoints take server-side ``now`` explicitly; the frontend
    supplies it from the simulation clock, routed through the injector's
    ``auditor.clock`` skew when the plan defines one.  This keeps the
    server fault-agnostic about *time* while the harness still exercises
    skewed-clock intake.
    """

    def __init__(self, server: AliDroneServer, clock: SimClock,
                 injector: FaultInjector | None):
        self.server = server
        self.clock = clock
        self.injector = injector

    def _now(self) -> float:
        now = self.clock.now
        if self.injector is not None and self.injector.active("auditor.clock"):
            now = self.injector.clock_skew("auditor.clock", now)
        return now

    def register_drone(self, request):
        return self.server.register_drone(request)

    def handle_zone_query(self, query):
        return self.server.handle_zone_query(query, now=self._now())

    def receive_poa(self, submission):
        return self.server.receive_poa(submission, now=self._now())

    @property
    def public_encryption_key(self):
        return self.server.public_encryption_key


@dataclass
class ChaosCell:
    """One (scenario, plan) execution and everything it observed."""

    scenario: str
    plan: str
    violation: bool
    status: str
    accepted: bool
    submission_complete: bool
    liveness_applies: bool
    liveness_ok: bool
    recovery_latency_s: float
    auth_samples: int
    degraded_decisions: int
    retransmissions: int
    duplicate_frames: int
    corrupt_frames: int
    poa_digest: str
    fault_stats: dict = field(default_factory=dict)
    retry_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form for the chaos report."""
        return {
            "scenario": self.scenario, "plan": self.plan,
            "violation": self.violation, "status": self.status,
            "accepted": self.accepted,
            "submission_complete": self.submission_complete,
            "liveness_applies": self.liveness_applies,
            "liveness_ok": self.liveness_ok,
            "recovery_latency_s": self.recovery_latency_s,
            "auth_samples": self.auth_samples,
            "degraded_decisions": self.degraded_decisions,
            "retransmissions": self.retransmissions,
            "duplicate_frames": self.duplicate_frames,
            "corrupt_frames": self.corrupt_frames,
            "poa_digest": self.poa_digest,
            "fault_stats": self.fault_stats,
            "retry_stats": self.retry_stats,
        }


@dataclass
class ChaosReport:
    """A full matrix sweep plus its invariant verdicts."""

    config: dict
    cells: list[ChaosCell]
    false_accepts: list[str]
    liveness_failures: list[str]
    noop_path_identical: bool

    @property
    def ok(self) -> bool:
        """Whether every invariant held across the whole sweep."""
        return (not self.false_accepts and not self.liveness_failures
                and self.noop_path_identical)

    def to_dict(self) -> dict:
        """JSON-ready form (the ``chaos --json`` / smoke-check schema)."""
        return {
            "config": self.config,
            "cells": [cell.to_dict() for cell in self.cells],
            "invariants": {
                "false_accepts": self.false_accepts,
                "liveness_failures": self.liveness_failures,
                "noop_path_identical": self.noop_path_identical,
            },
            "ok": self.ok,
        }


def _poa_digest(poa) -> str:
    """A stable digest of the flight PoA (payloads + signatures)."""
    digest = hashlib.sha256()
    for entry in poa:
        digest.update(entry.payload)
        digest.update(entry.signature)
    return digest.hexdigest()


def run_cell(scenario: Scenario, plan: FaultPlan | None, *,
             violation: bool = False, seed: int = 0, key_bits: int = 512,
             update_rate_hz: float = 5.0, outbox_limit: int = 32,
             liveness_budget_s: float = 300.0,
             poll_interval_s: float = 0.05) -> ChaosCell:
    """Drive the full protocol over ``scenario`` under ``plan``.

    ``plan=None`` runs with *no injector attached at all* — the reference
    arm of the no-op-path invariant.  Returns the cell result; never
    raises on protocol failure (failures become the cell's ``status``).
    """
    clock = SimClock(scenario.t_start)
    injector = (FaultInjector(plan, t0=scenario.t_start, now_fn=clock)
                if plan is not None else None)

    receiver = scenario.make_receiver(update_rate_hz=update_rate_hz,
                                      seed=seed, injector=injector)
    device = provision_device(f"chaos-{scenario.name}-{seed}",
                              key_bits=key_bits, rng=random.Random(seed))
    device.attach_gps(receiver, clock)
    if injector is not None:
        device.monitor.attach_injector(injector)

    server = AliDroneServer(scenario.frame, rng=random.Random(seed + 1),
                            encryption_key_bits=key_bits,
                            injector=injector)
    for zone in scenario.zones:
        server.zones.register(zone, proof_of_ownership="chaos")
    frontend = _AuditorFrontend(server, clock, injector)

    client = AliDroneClient(
        device, receiver, clock, scenario.frame,
        operator_key=generate_rsa_keypair(key_bits,
                                          rng=random.Random(seed + 2)),
        operator_name="chaos-op", rng=random.Random(seed + 3),
        retry_policy=CHAOS_RETRY_POLICY,
        tee_retry_policy=CHAOS_TEE_RETRY_POLICY,
        retry_rng=random.Random(seed + 4))

    status = "ok"
    accepted = False
    submission_complete = False
    recovery_latency = 0.0
    record = None
    endpoint = None
    uploader = None
    try:
        client.register(frontend)
        x0, y0 = scenario.source.position_at(scenario.t_start)
        x1, y1 = scenario.source.position_at(scenario.t_end)
        flight_plan = FlightPlan([scenario.frame.to_geo(x0, y0),
                                  scenario.frame.to_geo(x1, y1)],
                                 margin_m=3_000.0)
        zones = client.query_zones(frontend, flight_plan)
        record = client.fly(scenario.t_end,
                            zones=zones if zones else scenario.zones,
                            degraded_mode=True)

        # Streaming leg: push every encrypted entry over the faulty
        # links, then poll until the cumulative ACK covers the flight.
        uplink = SimulatedLink(seed=seed + 5, injector=injector,
                               fault_point="link.uplink")
        downlink = SimulatedLink(seed=seed + 6, injector=injector,
                                 fault_point="link.downlink")
        uploader = StreamingUploader(uplink, downlink, record.flight_id,
                                     outbox_limit=outbox_limit)
        endpoint = StreamingAuditorEndpoint(uplink, downlink)
        encrypted = client.adapter.encrypt_for_auditor(
            record.poa, server.public_encryption_key,
            rng=random.Random(seed + 7))

        deadline = clock.now + liveness_budget_s

        def step() -> None:
            clock.advance(poll_interval_s)
            endpoint.poll(clock.now)
            uploader.poll(clock.now)

        uploader.begin_flight(clock.now)
        for entry in encrypted:
            while not uploader.can_push and clock.now < deadline:
                step()
            if not uploader.can_push:
                break
            uploader.push(entry, clock.now)
        poa = record.poa
        uploader.end_flight(clock.now, poa.scheme, poa.finalizer)
        push_done_at = clock.now
        end_announced_at = clock.now
        while (clock.now < deadline
               and not (uploader.fully_acked and endpoint.complete)):
            step()
            # The FLIGHT_END frame is fire-and-forget in the protocol; on
            # a lossy link the drone re-announces it until the stream is
            # confirmed complete, or completion could hinge on one frame.
            if (not endpoint.complete
                    and clock.now - end_announced_at >= 1.0):
                uploader.end_flight(clock.now, poa.scheme, poa.finalizer)
                end_announced_at = clock.now
        submission_complete = uploader.fully_acked and endpoint.complete
        recovery_latency = clock.now - push_done_at

        stats = record.result.stats
        if submission_complete:
            submission = endpoint.to_submission(client.drone_id,
                                                stats.start_time,
                                                stats.end_time)
        else:
            # Transport never converged: fall back to store-and-upload so
            # the safety invariant is still exercised for this cell.
            submission = client.build_submission(
                record, server.public_encryption_key)
        report = execute_with_retry(
            lambda: frontend.receive_poa(submission),
            clock=clock, policy=CHAOS_RETRY_POLICY,
            rng=random.Random(seed + 8), stats=client.retry_stats,
            operation="submit_poa")
        status = report.status.value
        accepted = report.status.value == "accepted"
    except AliDroneError as exc:
        status = f"error:{type(exc).__name__}"

    sampler_stats = record.result.stats if record is not None else None
    up_stats = uploader.stats if uploader is not None else None
    plan_name = plan.name if plan is not None else "no-injector"
    liveness_applies = (plan is not None
                        and plan.expected_loss <= LIVENESS_LOSS_CEILING)
    return ChaosCell(
        scenario=scenario.name, plan=plan_name, violation=violation,
        status=status, accepted=accepted,
        submission_complete=submission_complete,
        liveness_applies=liveness_applies,
        liveness_ok=submission_complete and not status.startswith("error:"),
        recovery_latency_s=recovery_latency,
        auth_samples=sampler_stats.auth_samples if sampler_stats else 0,
        degraded_decisions=(sampler_stats.degraded_decisions
                            if sampler_stats else 0),
        retransmissions=up_stats.retransmissions if up_stats else 0,
        duplicate_frames=endpoint.duplicate_frames if endpoint else 0,
        corrupt_frames=endpoint.corrupt_frames if endpoint else 0,
        poa_digest=_poa_digest(record.poa) if record is not None else "",
        fault_stats=injector.stats.to_dict() if injector is not None else {},
        retry_stats=client.retry_stats.to_dict())


def record_cell_telemetry(hub, cell: ChaosCell, *, now: float) -> None:
    """Feed one finished chaos cell into a streaming telemetry hub.

    The cell's end-to-end recovery latency and verdict land via
    :meth:`~repro.obs.hub.TelemetryHub.record_audit` (the same metric
    namespace the live engine feeds, so the monitor rules see one
    uniform stream); link/fault/retry counters land on their own
    windowed counters.  The harness — not the auditor — knows ground
    truth, so this is also where the safety invariant becomes a
    monitored signal: a violating cell that was ACCEPTED increments
    ``audit.false_accepts``, which the built-in page rule latches on.
    """
    status = cell.status if cell.status else "error:unknown"
    reason = None
    if status.startswith("error:"):
        reason = status[len("error:"):]
    elif status != "accepted":
        reason = status
    hub.record_audit(seconds=cell.recovery_latency_s, status=status,
                     reason=reason, samples=cell.auth_samples, now=now)
    if cell.violation and cell.accepted:
        hub.mark("audit.false_accepts", now=now)
    for name, amount in (
            ("link.retransmissions", cell.retransmissions),
            ("link.duplicate_frames", cell.duplicate_frames),
            ("link.corrupt_frames", cell.corrupt_frames),
            ("tee.degraded_decisions", cell.degraded_decisions),
            ("faults.injected", cell.fault_stats.get("total_injected", 0)),
            ("retry.retries", cell.retry_stats.get("retries", 0)),
            ("retry.giveups", cell.retry_stats.get("giveups", 0)),
            ("retry.recoveries", cell.retry_stats.get("recoveries", 0))):
        if amount:
            hub.mark(name, now=now, amount=amount)


def run_matrix(scenarios: list[tuple[Scenario, bool]],
               plans: list[FaultPlan] | None = None, *,
               seed: int = 0, key_bits: int = 512,
               update_rate_hz: float = 5.0,
               liveness_budget_s: float = 300.0,
               on_cell=None) -> ChaosReport:
    """Sweep every plan over every scenario and check the invariants.

    Args:
        scenarios: ``(scenario, is_violation)`` pairs; violation scenarios
            feed the safety invariant, compliant ones the liveness
            invariant.
        plans: fault plans to sweep (defaults to :func:`builtin_plans`).
        on_cell: optional callback invoked with each finished
            :class:`ChaosCell` (reference cells included) — the hook the
            live telemetry session uses to tick per completed cell.
    """
    if plans is None:
        plans = list(builtin_plans(seed).values())

    cells: list[ChaosCell] = []
    false_accepts: list[str] = []
    liveness_failures: list[str] = []
    noop_identical = True

    for scenario, is_violation in scenarios:
        reference = run_cell(scenario, None, violation=is_violation,
                             seed=seed, key_bits=key_bits,
                             update_rate_hz=update_rate_hz,
                             liveness_budget_s=liveness_budget_s)
        if on_cell is not None:
            on_cell(reference)
        for plan in plans:
            cell = run_cell(scenario, plan, violation=is_violation,
                            seed=seed, key_bits=key_bits,
                            update_rate_hz=update_rate_hz,
                            liveness_budget_s=liveness_budget_s)
            cells.append(cell)
            if on_cell is not None:
                on_cell(cell)
            label = f"{scenario.name}/{plan.name}"
            if is_violation and cell.accepted:
                false_accepts.append(label)
            if (not is_violation and cell.liveness_applies
                    and not cell.liveness_ok):
                liveness_failures.append(label)
            if plan.name == "baseline" and not plan.rules:
                if cell.poa_digest != reference.poa_digest:
                    noop_identical = False

    return ChaosReport(
        config={"seed": seed, "key_bits": key_bits,
                "update_rate_hz": update_rate_hz,
                "liveness_budget_s": liveness_budget_s,
                "liveness_loss_ceiling": LIVENESS_LOSS_CEILING,
                "scenarios": [s.name for s, _ in scenarios],
                "plans": [p.name for p in plans]},
        cells=cells, false_accepts=false_accepts,
        liveness_failures=liveness_failures,
        noop_path_identical=noop_identical)
