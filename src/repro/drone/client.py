"""The AliDrone drone client: registration, zone query, flight, submission.

Binds together the operator's keypair ``D``, the TrustZone device with its
TEE keypair ``T``, the GPS receiver, and the Adapter, and speaks the
protocol of §IV-B end to end against any object implementing the Auditor
interface (see :class:`repro.server.auditor.AliDroneServer`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi
from repro.core.protocol import (
    DroneRegistrationRequest,
    PoaSubmission,
    ZoneQuery,
    ZoneResponse,
)
from repro.core.sampling import AdaptiveSampler, FixRateSampler, SamplingResult
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_rsa_keypair
from repro.drone.adapter import Adapter
from repro.drone.flightplan import FlightPlan
from repro.errors import ProtocolError
from repro.faults.retry import RetryPolicy, RetryStats, execute_with_retry
from repro.geo.geodesy import LocalFrame
from repro.obs.trace import get_tracer
from repro.gps.receiver import SimulatedGpsReceiver
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.tee.attestation import TrustZoneDevice
from repro.units import FAA_MAX_SPEED_MPS


class AuditorInterface(Protocol):
    """The subset of the Auditor the drone client talks to."""

    def register_drone(self, request: DroneRegistrationRequest) -> str:
        """Register a drone; returns its ``id_drone``."""
        ...  # pragma: no cover - protocol

    def handle_zone_query(self, query: ZoneQuery) -> ZoneResponse:
        """Answer a signed zone query."""
        ...  # pragma: no cover - protocol

    @property
    def public_encryption_key(self) -> RsaPublicKey:
        """The server key PoA payloads are encrypted under."""
        ...  # pragma: no cover - protocol


@dataclass
class FlightRecord:
    """Everything a completed flight produced on the drone."""

    flight_id: str
    policy: str
    result: SamplingResult
    zones: list[NoFlyZone]

    @property
    def poa(self) -> ProofOfAlibi:
        """The flight's Proof-of-Alibi."""
        return self.result.poa

    @property
    def events(self) -> EventLog:
        """The sampling event log."""
        return self.result.events


class AliDroneClient:
    """A registered drone able to fly and prove its alibi."""

    def __init__(self, device: TrustZoneDevice,
                 receiver: SimulatedGpsReceiver, clock: SimClock,
                 frame: LocalFrame,
                 operator_key: RsaPrivateKey | None = None,
                 operator_name: str = "",
                 vmax_mps: float = FAA_MAX_SPEED_MPS,
                 hash_name: str = "sha1",
                 rng: random.Random | None = None,
                 retry_policy: RetryPolicy | None = None,
                 tee_retry_policy: RetryPolicy | None = None,
                 retry_rng: random.Random | None = None):
        self.device = device
        self.receiver = receiver
        self.clock = clock
        self.frame = frame
        self.rng = rng or random.SystemRandom()
        self.operator_key = operator_key or generate_rsa_keypair(1024, rng=self.rng)
        self.operator_name = operator_name
        self.vmax_mps = float(vmax_mps)
        self.hash_name = hash_name
        #: Retry discipline for Auditor calls (None = single bare attempt,
        #: the historical behaviour).  Transient failures back off with
        #: decorrelated jitter on the *virtual* clock.
        self.retry_policy = retry_policy
        self.retry_stats = RetryStats()
        self._retry_rng = retry_rng if retry_rng is not None else random.Random(0)
        self.adapter = Adapter(device, receiver, clock, hash_name=hash_name,
                               retry_policy=tee_retry_policy,
                               retry_rng=self._retry_rng,
                               retry_stats=self.retry_stats)
        self.drone_id: str | None = None
        self._known_zones: list[NoFlyZone] = []
        self._flight_counter = 0

    def _with_retries(self, fn, operation: str):
        """Run one Auditor call under the client's retry policy."""
        return execute_with_retry(fn, clock=self.clock,
                                  policy=self.retry_policy,
                                  rng=self._retry_rng,
                                  stats=self.retry_stats,
                                  operation=operation)

    @property
    def operator_public_key(self) -> RsaPublicKey:
        """``D+``, shared with the Auditor at registration."""
        return self.operator_key.public_key

    @property
    def known_zones(self) -> list[NoFlyZone]:
        """Zones learned from the most recent zone response."""
        return list(self._known_zones)

    # --- protocol steps -----------------------------------------------------

    def register(self, auditor: AuditorInterface) -> str:
        """Step 0: register ``D+`` and ``T+``; stores the issued id.

        Retried under :attr:`retry_policy` when the Auditor fails
        transiently; safe because an unavailable Auditor rejects the
        request before creating the registration record.
        """
        request = DroneRegistrationRequest(
            operator_public_key=self.operator_public_key,
            tee_public_key=self.device.tee_public_key,
            operator_name=self.operator_name,
            quote=self.device.quote)
        self.drone_id = self._with_retries(
            lambda: auditor.register_drone(request), "register")
        return self.drone_id

    def query_zones(self, auditor: AuditorInterface,
                    plan: FlightPlan) -> list[NoFlyZone]:
        """Steps 2-3: fetch NFZs intersecting the plan's rectangle.

        Each retry attempt builds a *fresh* signed query: the nonce is
        single-use on the server (replay protection), so re-sending the
        original message would be indistinguishable from a replay attack
        if the first attempt was actually processed.
        """
        if self.drone_id is None:
            raise ProtocolError("drone is not registered with the Auditor")
        corner_a, corner_b = plan.query_rectangle(self.frame)

        def attempt() -> ZoneResponse:
            query = ZoneQuery.create(self.drone_id, corner_a, corner_b,
                                     self.operator_key, rng=self.rng)
            return auditor.handle_zone_query(query)

        response = self._with_retries(attempt, "query_zones")
        self._known_zones = response.zone_list
        return self.known_zones

    def fly(self, t_end: float, policy: str = "adaptive",
            fixed_rate_hz: float | None = None,
            zones: Sequence[NoFlyZone] | None = None,
            margin_updates: float = 2.0,
            degraded_mode: bool = False) -> FlightRecord:
        """Run one flight's sampling loop until virtual time ``t_end``.

        Args:
            t_end: end of the flight window.
            policy: ``"adaptive"`` (Algorithm 1) or ``"fixed"``.
            fixed_rate_hz: required when ``policy == "fixed"``.
            zones: override the zone list (defaults to the last response).
            margin_updates: adaptive safety margin (see the sampler).
            degraded_mode: adaptive policy only — grow the safety margin
                conservatively across GPS dropout gaps (see the sampler).
        """
        zone_list = list(zones) if zones is not None else self._known_zones
        if policy == "adaptive":
            sampler = AdaptiveSampler(zone_list, self.frame,
                                      vmax_mps=self.vmax_mps,
                                      gps_rate_hz=self.receiver.update_rate_hz,
                                      margin_updates=margin_updates,
                                      degraded_mode=degraded_mode)
            policy_name = "adaptive"
        elif policy == "fixed":
            if fixed_rate_hz is None:
                raise ProtocolError("fixed policy requires fixed_rate_hz")
            sampler = FixRateSampler(fixed_rate_hz)
            policy_name = f"fixed-{fixed_rate_hz:g}hz"
        else:
            raise ProtocolError(f"unknown sampling policy: {policy!r}")

        self._flight_counter += 1
        flight_id = f"{self.drone_id or 'unregistered'}-flight-{self._flight_counter:04d}"
        with get_tracer().span("drone.fly", flight_id=flight_id,
                               policy=policy_name, zones=len(zone_list)) as span:
            result = self.adapter.fly(sampler, t_end)
            span.set_attribute("auth_samples", result.stats.auth_samples)
        return FlightRecord(flight_id=flight_id, policy=policy_name,
                            result=result, zones=zone_list)

    def build_submission(self, record: FlightRecord,
                         auditor_public_key: RsaPublicKey) -> PoaSubmission:
        """Step 4: encrypt the PoA and wrap it as a submission."""
        if self.drone_id is None:
            raise ProtocolError("drone is not registered with the Auditor")
        with get_tracer().span("drone.build_submission",
                               flight_id=record.flight_id,
                               samples=len(record.poa)):
            encrypted = self.adapter.encrypt_for_auditor(
                record.poa, auditor_public_key, rng=self.rng)
        stats = record.result.stats
        return PoaSubmission(drone_id=self.drone_id,
                             flight_id=record.flight_id,
                             records=encrypted,
                             claimed_start=stats.start_time,
                             claimed_end=stats.end_time)

    def submit_poa(self, auditor, record: FlightRecord):
        """Convenience: encrypt and submit in one call; returns the report.

        Retried under :attr:`retry_policy`.  The submission object is
        reused across attempts — intake is idempotent from the drone's
        side (the server either processed it or raised before any state
        changed), and re-encrypting would cost a full crypto pass.
        """
        submission = self.build_submission(record, auditor.public_encryption_key)
        return self._with_retries(
            lambda: auditor.receive_poa(submission), "submit_poa")

    def archive_flight(self, vault, record: FlightRecord,
                       auditor_public_key: RsaPublicKey):
        """Persist a flight's encrypted PoA to the local vault (§V-C).

        Returns the stored path; the flight can later be loaded and
        submitted with :meth:`submit_archived`.
        """
        submission = self.build_submission(record, auditor_public_key)
        return vault.store(record.flight_id, record.policy,
                           submission.claimed_start, submission.claimed_end,
                           submission.records)

    def submit_archived(self, auditor, vault, flight_id: str):
        """Load a vaulted flight and submit it; returns the report."""
        if self.drone_id is None:
            raise ProtocolError("drone is not registered with the Auditor")
        entry = vault.load(flight_id)
        submission = PoaSubmission(drone_id=self.drone_id,
                                   flight_id=entry.flight_id,
                                   records=entry.records,
                                   claimed_start=entry.claimed_start,
                                   claimed_end=entry.claimed_end)
        return auditor.receive_poa(submission)
