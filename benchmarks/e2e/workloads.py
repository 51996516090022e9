"""The four auditor workloads and the inputs they are built from.

A workload is one traffic mix against one :class:`AuditorService`
deployment.  Everything here derives from ``--seed`` except the arrival
*instants*, which come from a fixed per-workload stream (see
:func:`schedule`): the seed picks the drone, the trace, every key and all
encryption randomness, so a held-out seed is new content on the same
burst pattern.

The drone side is :func:`prepare_flight`, a copy of
``repro.workloads.fleet.build_flight_submission`` (the tests pin the two
byte-identical) that also times signing, encryption and framing and
frames the result for the uplink.  It calls each layer through its
module so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.core import poa as poa_layer
from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample
from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
from repro.core.samples import GpsSample
from repro.crypto import schemes as scheme_layer
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.crypto.schemes import (SCHEME_BATCH, SCHEME_CHAIN, SCHEME_MERKLE,
                                  SCHEME_RSA)
from repro.fleetsim.traffic import adversary_stream, flood_stream
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.net import framing
from repro.net.framing import FrameType
from repro.server.admission import POLICY_FAIR_SHARE, AdmissionScheduler
from repro.server.service import AuditorService
from repro.server.store import encode_records
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import TRACE_OFFSET_M, FleetDrone, provision_fleet

FRAME = LocalFrame(GeoPoint(40.1000, -88.2200))
T0 = DEFAULT_EPOCH
AUDITOR_KEY_BITS = 1024
HASH_NAME = "sha1"

HONEST = "honest"
ADVERSARY = "adversary"
FLOOD = "flood"
#: Tie-break rank for arrivals due at the same instant (fleetsim's order).
_CLASS_RANK = {HONEST: 0, ADVERSARY: 2, FLOOD: 3}


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the deployment it runs against."""

    name: str
    why: str
    samples: int
    schemes: tuple[str, ...]
    durable: bool
    #: Honest arrivals per second of virtual time.
    rate_hz: float
    #: Honest arrivals (restart: prefilled submissions) per second of
    #: ``--seconds`` budget; sized so the measured phase fills the budget
    #: on the calm host ``hostspeed`` compensates to.
    arrivals_per_budget_s: float
    drones: int = 40
    flooders: int = 0
    zones: int = 1
    admission: bool = False
    adversary_rate_hz: float = 0.0
    flood_burst_per_s: int = 0
    #: Prefill the store, close it unaudited, and time reopen + recover.
    restart: bool = False
    #: Share of the restart prefill that is adversarial.
    adversary_share: float = 0.0


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady-rsa20",
        why="20-sample per-sample-RSA audit: per-record RSAES decrypt is"
            " ~96% of auditor time and per-sample signing ~75% of drone time",
        samples=20, schemes=(SCHEME_RSA,), durable=False,
        rate_hz=2.0, arrivals_per_budget_s=20.0),
    Workload(
        name="mixed-schemes",
        why="all four schemes, 6 samples, 2,000 zones, durable store:"
            " fixed per-submission costs (store, geometry, stages) weigh more",
        samples=6, schemes=(SCHEME_RSA, SCHEME_BATCH, SCHEME_CHAIN,
                            SCHEME_MERKLE),
        durable=True, zones=2000, rate_hz=0.25, arrivals_per_budget_s=72.0),
    Workload(
        name="hostile-flood",
        why="fair-share admission, dedup writes and rejection paths under"
            " flood storms and attacks; most flood traffic never decrypts",
        samples=4, schemes=(SCHEME_RSA,), durable=True, flooders=4,
        admission=True, rate_hz=20.0, arrivals_per_budget_s=100.0,
        adversary_rate_hz=3.0, flood_burst_per_s=400),
    Workload(
        name="restart-recover",
        why="reopen 16 durable stores of unaudited submissions and recover()"
            " each: store reads beside verdict writes, the restart path",
        samples=4, schemes=(SCHEME_RSA,), durable=True, rate_hz=50.0,
        arrivals_per_budget_s=110.0, restart=True, adversary_share=0.1),
)}


def arrival_count(workload: Workload, seconds: float, smoke: bool) -> int:
    """Arrivals (restart: prefilled submissions) for one measured pass."""
    if smoke:
        return 12
    return max(1, round(workload.arrivals_per_budget_s * seconds))


def content_rng(seed: int, *parts) -> random.Random:
    """A private stream per (seed, purpose); string seeding is stable."""
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def schedule(workload: Workload, count: int) -> list[float]:
    """Poisson arrival instants at the workload's offered rate.

    Drawn from a stream fixed per workload, not from ``--seed``: the p99
    of a queue at this load depends mostly on where the bursts fall, and
    per-seed schedules move it by about a third between seeds on
    identical code.
    """
    rng = random.Random(f"schedule:{workload.name}")
    times, t = [], T0
    for _ in range(count):
        t += rng.expovariate(workload.rate_hz)
        times.append(t)
    return times


# --- zones -------------------------------------------------------------------

def origin_zone() -> NoFlyZone:
    """The 50 m disk at the frame origin that incursion traces cross."""
    center = FRAME.to_geo(0.0, 0.0)
    return NoFlyZone(center.lat, center.lon, 50.0)


def field_zones(rng: random.Random, count: int, samples: int,
                half_extent_m: float = 20_000.0,
                exclusion_m: float = 2_000.0) -> list[NoFlyZone]:
    """``count`` zones over a 40 km square, none within 2 km of the traces.

    Honest traces run east from ``TRACE_OFFSET_M`` at ~15 m per sample
    within 40 m of the x axis, so the exclusion keeps every honest flight
    sufficient while the proximity index still has a dense field to prune.
    """
    x_lo, x_hi = TRACE_OFFSET_M, TRACE_OFFSET_M + 19.0 * samples
    zones = []
    while len(zones) < count:
        x = rng.uniform(-half_extent_m, half_extent_m)
        y = rng.uniform(-half_extent_m, half_extent_m)
        radius = rng.uniform(50.0, 400.0)
        dx = max(x_lo - x, 0.0, x - x_hi)
        if math.hypot(dx, abs(y)) - radius < exclusion_m + 40.0:
            continue
        point = FRAME.to_geo(x, y)
        zones.append(NoFlyZone(point.lat, point.lon, radius))
    return zones


def build_zones(workload: Workload, seed: int, smoke: bool) -> list[NoFlyZone]:
    if workload.zones > 1:
        count = 50 if smoke else workload.zones
        return field_zones(content_rng(seed, workload.name, "zones"), count,
                           workload.samples)
    return [origin_zone()]


# --- deployment (what setup_s times) -----------------------------------------

@dataclass
class Deployment:
    """A started, registered service plus the fleet that talks to it."""

    service: AuditorService
    encryption_key: RsaPrivateKey
    fleet: list[FleetDrone]
    flooders: list[FleetDrone]
    store_path: str


def open_service(workload: Workload, store_path: str,
                 encryption_key: RsaPrivateKey,
                 zones: list[NoFlyZone]) -> AuditorService:
    """One service process: store, admission guard, zone database."""
    admission = None
    if workload.admission:
        admission = AdmissionScheduler(POLICY_FAIR_SHARE, rate_per_s=200.0,
                                       burst=64.0, drone_rate_per_s=5.0,
                                       drone_burst=8.0)
    service = AuditorService(FRAME, store_path, admission=admission,
                             encryption_key=encryption_key, workers=1)
    for zone in zones:
        service.register_zone(zone)
    return service


def deploy(workload: Workload, seed: int, store_path: str,
           zones: list[NoFlyZone], smoke: bool) -> Deployment:
    """Keygen, service start and registration: the timed set-up."""
    encryption_key = generate_rsa_keypair(
        AUDITOR_KEY_BITS, rng=content_rng(seed, "auditor-key"))
    service = open_service(workload, store_path, encryption_key, zones)

    def register(operator_public, tee_public, name):
        return service.register_drone(DroneRegistrationRequest(
            operator_public_key=operator_public, tee_public_key=tee_public,
            operator_name=name))

    fleet = provision_fleet(register, drones=6 if smoke else workload.drones,
                            seed=seed)
    flooders = (provision_fleet(register, drones=workload.flooders,
                                seed=seed + 424_243)
                if workload.flooders else [])
    return Deployment(service=service, encryption_key=encryption_key,
                      fleet=fleet, flooders=flooders, store_path=store_path)


# --- the uplink --------------------------------------------------------------

@dataclass(frozen=True)
class Upload:
    """One submission as it crosses the link: two frames plus the envelope."""

    drone_id: str
    flight_id: str
    claimed_start: float
    claimed_end: float
    scheme: str
    #: POA_ENTRY frame carrying the record blob, FLIGHT_END carrying the
    #: finalizer.
    frames: tuple[bytes, bytes]
    #: Sign + encrypt + frame wall time (None for harness-built uploads).
    prepare_s: float | None = None

    @property
    def wire_bytes(self) -> int:
        return sum(len(f) for f in self.frames)


def frame_submission(submission: PoaSubmission) -> tuple[bytes, bytes]:
    """The drone's uplink frames for one submission."""
    return (framing.encode_frame(FrameType.POA_ENTRY, 0,
                                 encode_records(submission.records)),
            framing.encode_frame(FrameType.FLIGHT_END,
                                 len(submission.records),
                                 submission.finalizer))


def upload_of(submission: PoaSubmission, frames: tuple[bytes, bytes],
              prepare_s: float | None = None) -> Upload:
    return Upload(drone_id=submission.drone_id,
                  flight_id=submission.flight_id,
                  claimed_start=submission.claimed_start,
                  claimed_end=submission.claimed_end,
                  scheme=submission.scheme, frames=frames,
                  prepare_s=prepare_s)


def prepare_flight(drone: FleetDrone, encryption_public_key, *,
                   flight_index: int, samples: int, start: float,
                   rng: random.Random, scheme: str = SCHEME_RSA,
                   probe=None) -> tuple[PoaSubmission, Upload]:
    """One honest flight, signed, encrypted and framed by the drone.

    Consumes ``rng`` exactly as ``build_flight_submission`` does, so the
    returned submission is byte-identical to it.  The trace synthesis
    before signing is harness work and is not in ``prepare_s``.  With a
    ``probe`` the timed part is one ``drone.prepare`` root span.
    """
    payloads = []
    y0 = rng.uniform(-40.0, 40.0)
    for k in range(samples):
        point = FRAME.to_geo(TRACE_OFFSET_M + 15.0 * k
                             + rng.uniform(0.0, 4.0), y0)
        payloads.append(GpsSample(lat=point.lat, lon=point.lon,
                                  t=start + k).to_signed_payload())
    flight_id = f"flight-{drone.drone_id}-{flight_index}"
    span = (probe.begin("drone.prepare", flight_id=flight_id)
            if probe is not None else None)
    started = time.perf_counter()
    blobs, finalizer = scheme_layer.authenticate_payloads(
        drone.tee_key, payloads, scheme, hash_name=HASH_NAME, rng=rng)
    poa = ProofOfAlibi(
        (SignedSample(payload=payload, signature=blob, scheme=scheme)
         for payload, blob in zip(payloads, blobs)),
        scheme=scheme, finalizer=finalizer)
    records = poa_layer.encrypt_poa(poa, encryption_public_key, rng=rng)
    submission = PoaSubmission(
        drone_id=drone.drone_id, flight_id=flight_id,
        records=records, claimed_start=start,
        claimed_end=start + max(samples - 1, 0),
        scheme=scheme, finalizer=finalizer)
    frames = frame_submission(submission)
    prepare_s = time.perf_counter() - started
    if span is not None:
        probe.end(span)
    return submission, upload_of(submission, frames, prepare_s)


# --- arrivals ----------------------------------------------------------------

@dataclass(frozen=True)
class Arrival:
    """One upload due at the auditor at virtual instant ``at``."""

    at: float
    traffic_class: str
    region: str
    #: Ground truth: ACCEPTING this submission is a false accept.
    must_reject: bool
    #: ``build(probe)`` returns the upload; honest arrivals run the drone
    #: side here, each call from a fresh rng so every pass sees the same
    #: bytes.
    build: Callable[..., Upload]
    order: int = 0


def honest_arrivals(workload: Workload, deployment: Deployment, seed: int,
                    instants: list[float]) -> list[Arrival]:
    """Honest flights, built lazily by the drone at their upload instant."""
    fleet = deployment.fleet
    enc = deployment.encryption_key.public_key
    flights: dict[str, int] = {}
    arrivals = []
    for index, at in enumerate(instants):
        pick = content_rng(seed, workload.name, "drone", index)
        drone = fleet[pick.randrange(len(fleet))]
        flight_index = flights.get(drone.drone_id, 0)
        flights[drone.drone_id] = flight_index + 1
        scheme = workload.schemes[index % len(workload.schemes)]

        def build(probe=None, drone=drone, flight_index=flight_index, at=at,
                  scheme=scheme, index=index) -> Upload:
            return prepare_flight(
                drone, enc, flight_index=flight_index,
                samples=workload.samples, start=at - workload.samples,
                rng=content_rng(seed, workload.name, "flight", index),
                scheme=scheme, probe=probe)[1]

        arrivals.append(Arrival(at=at, traffic_class=HONEST,
                                region=drone.region, must_reject=False,
                                build=build, order=index))
    return arrivals


def _prebuilt(events, traffic_class: str) -> list[Arrival]:
    arrivals = []
    for event in events:
        upload = upload_of(event.submission,
                           frame_submission(event.submission))
        arrivals.append(Arrival(at=event.at, traffic_class=traffic_class,
                                region=event.region,
                                must_reject=event.must_reject,
                                build=lambda probe=None, upload=upload: upload,
                                order=event.index))
    return arrivals


def hostile_arrivals(workload: Workload, deployment: Deployment, seed: int,
                     duration_s: float) -> list[Arrival]:
    """Adversary and flood traffic from ``repro.fleetsim.traffic``."""
    enc = deployment.encryption_key.public_key
    arrivals = []
    if workload.adversary_rate_hz:
        arrivals += _prebuilt(adversary_stream(
            deployment.fleet, enc, frame=FRAME, seed=seed,
            rate_hz=workload.adversary_rate_hz, duration_s=duration_s,
            samples=workload.samples, t0=T0, hash_name=HASH_NAME), ADVERSARY)
    if workload.flood_burst_per_s:
        arrivals += _prebuilt(flood_stream(
            deployment.flooders, enc, frame=FRAME, seed=seed,
            burst_per_s=workload.flood_burst_per_s, storm_period_s=10.0,
            duration_s=duration_s, samples=min(workload.samples, 3), t0=T0,
            hash_name=HASH_NAME), FLOOD)
    return arrivals


def adversary_prefill(workload: Workload, deployment: Deployment, seed: int,
                      count: int) -> list[Arrival]:
    """Exactly ``count`` adversary submissions for the restart prefill."""
    if count <= 0:
        return []
    duration = 1.5 * count / 10.0
    while True:
        events = adversary_stream(
            deployment.fleet, deployment.encryption_key.public_key,
            frame=FRAME, seed=seed, rate_hz=10.0, duration_s=duration,
            samples=workload.samples, t0=T0, hash_name=HASH_NAME)
        if len(events) >= count:
            return _prebuilt(events[:count], ADVERSARY)
        duration *= 1.5


def merge(*streams: list[Arrival]) -> list[Arrival]:
    """One arrival order: instant, then class rank, then emission order."""
    merged = [a for stream in streams for a in stream]
    merged.sort(key=lambda a: (a.at, _CLASS_RANK[a.traffic_class], a.order))
    return merged
