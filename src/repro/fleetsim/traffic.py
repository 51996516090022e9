"""Fleet traffic classes: honest, chaos-degraded, adversarial, flooding.

Each generator turns a provisioned fleet into a deterministic list of
:class:`FleetEvent` — a submission hitting intake at a virtual instant,
tagged with its traffic class and, crucially, its *ground truth*: an
event with ``must_reject=True`` describes a submission the auditor must
never ACCEPT (a genuinely violating flight, tampered evidence, a replay
under a foreign identity, junk).  The fleet invariant suite checks the
zero-false-accept property against exactly this flag.

Attack classes (each independently verified against the audit engine):

* ``incursion`` — a truthfully-signed trace straight through the NFZ.
  The drone really violated; a clean alibi would be a false accept.
  Engine verdict: insufficient/infeasible, never ACCEPTED.
* ``payload_tamper`` — one ciphertext byte flipped in transit
  (→ ``decrypt_failed``).
* ``signature_bitflip`` — one authenticator byte flipped
  (→ ``bad_signature``).
* ``foreign_replay`` — drone A's validly-signed records submitted under
  drone B's identity (→ ``bad_signature`` under B's ``T+``).
* ``record_reorder`` — records reversed in transit (→ ``decrypt_failed``
  for every scheme: record 0 carries the submission's wrapped key, see
  :mod:`repro.crypto.envelope`, and no longer leads).

Chaos traffic reuses the :mod:`repro.faults` link-fault machinery (drop
/ duplicate / corrupt per record) — degraded honest flights may be
rejected, which is safe; they must simply never be *mis*-accepted.
Flood traffic alternates byte-identical re-uploads (absorbed by store
dedup) with junk submissions (rejected as undecryptable), emitted in
storm windows so the admission scheduler's fairness is measurable.

All randomness flows from explicit seeds through dedicated
``random.Random`` streams; two calls with equal arguments produce
byte-identical event lists.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.poa import EncryptedPoaRecord
from repro.core.protocol import PoaSubmission
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.schemes import SCHEME_RSA
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRule
from repro.geo.geodesy import LocalFrame
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import (FleetDrone, build_flight_submission,
                                   build_violation_submission)

CLASS_HONEST = "honest"
CLASS_CHAOS = "chaos"
CLASS_ADVERSARY = "adversary"
CLASS_FLOOD = "flood"
TRAFFIC_CLASSES = (CLASS_HONEST, CLASS_CHAOS, CLASS_ADVERSARY, CLASS_FLOOD)
_CLASS_RANK = {name: rank for rank, name in enumerate(TRAFFIC_CLASSES)}

ATTACK_INCURSION = "incursion"
ATTACK_PAYLOAD_TAMPER = "payload_tamper"
ATTACK_SIGNATURE_BITFLIP = "signature_bitflip"
ATTACK_FOREIGN_REPLAY = "foreign_replay"
ATTACK_RECORD_REORDER = "record_reorder"
ATTACK_CLASSES = (ATTACK_INCURSION, ATTACK_PAYLOAD_TAMPER,
                  ATTACK_SIGNATURE_BITFLIP, ATTACK_FOREIGN_REPLAY,
                  ATTACK_RECORD_REORDER)

#: Injection point the chaos stream degrades records at.
POINT_FLEET_UPLINK = "fleet.uplink.send"

#: Per-class flight-index bases keep flight ids collision-free when the
#: same drone appears in several streams of one run.
_INDEX_BASE = {CLASS_HONEST: 0, CLASS_CHAOS: 100_000,
               CLASS_ADVERSARY: 200_000, CLASS_FLOOD: 300_000}


@dataclass(frozen=True)
class FleetEvent:
    """One submission hitting service intake at virtual time ``at``."""

    at: float
    submission: PoaSubmission
    region: str
    drone_id: str
    traffic_class: str
    #: Ground truth: ACCEPTING this submission would be a false accept.
    must_reject: bool = False
    #: Attack class for adversary events (None otherwise).
    attack: str | None = None
    #: Emission index within the generating stream (merge tie-breaker).
    index: int = 0


def _scheme_for(scheme_of: Mapping[str, str] | None,
                drone: FleetDrone) -> str:
    if scheme_of is None:
        return SCHEME_RSA
    return scheme_of.get(drone.drone_id, SCHEME_RSA)


def _poisson_times(rng: random.Random, rate_hz: float, t0: float,
                   duration_s: float) -> list[float]:
    times = []
    t = t0
    while True:
        t += rng.expovariate(rate_hz)
        if t >= t0 + duration_s:
            return times
        times.append(t)


def honest_stream(fleet: Sequence[FleetDrone],
                  encryption_public_key: RsaPublicKey, *,
                  frame: LocalFrame, seed: int = 0,
                  rate_hz: float = 2.0, duration_s: float = 60.0,
                  samples: int = 4, t0: float = DEFAULT_EPOCH,
                  hash_name: str = "sha1",
                  scheme_of: Mapping[str, str] | None = None
                  ) -> list[FleetEvent]:
    """Honest Poisson fleet traffic; every admitted event must ACCEPT."""
    if not fleet or rate_hz <= 0:
        return []
    rng = random.Random(seed * 0x5EED + 11)
    events: list[FleetEvent] = []
    counts: dict[str, int] = {}
    for at in _poisson_times(rng, rate_hz, t0, duration_s):
        drone = fleet[rng.randrange(len(fleet))]
        index = counts.get(drone.drone_id, 0)
        counts[drone.drone_id] = index + 1
        submission = build_flight_submission(
            drone, encryption_public_key, frame=frame,
            flight_index=_INDEX_BASE[CLASS_HONEST] + index,
            samples=samples, start=at - samples, rng=rng,
            hash_name=hash_name, scheme=_scheme_for(scheme_of, drone))
        events.append(FleetEvent(at=at, submission=submission,
                                 region=drone.region,
                                 drone_id=drone.drone_id,
                                 traffic_class=CLASS_HONEST,
                                 index=len(events)))
    return events


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """The stock link-degradation plan the chaos stream runs under."""
    return FaultPlan(
        name="fleet-chaos", seed=seed, expected_loss=0.15,
        rules=(
            FaultRule(point=POINT_FLEET_UPLINK, action="drop",
                      probability=0.15),
            FaultRule(point=POINT_FLEET_UPLINK, action="duplicate",
                      probability=0.10),
            FaultRule(point=POINT_FLEET_UPLINK, action="corrupt",
                      probability=0.10),
        ))


def chaos_stream(fleet: Sequence[FleetDrone],
                 encryption_public_key: RsaPublicKey, *,
                 frame: LocalFrame, seed: int = 0,
                 rate_hz: float = 1.0, duration_s: float = 60.0,
                 samples: int = 4, t0: float = DEFAULT_EPOCH,
                 hash_name: str = "sha1",
                 scheme_of: Mapping[str, str] | None = None,
                 plan: FaultPlan | None = None) -> list[FleetEvent]:
    """Honest flights degraded record-by-record through a fault plan.

    A degraded flight may verify REJECTED (corrupted or missing
    evidence) — that is the *safe* direction.  ``must_reject`` stays
    False: the drone is honest, and the invariant suite only demands it
    is never mis-accepted as something it is not.
    """
    if not fleet or rate_hz <= 0:
        return []
    if plan is None:
        plan = default_chaos_plan(seed)
    injector = FaultInjector(plan, t0=t0)
    rng = random.Random(seed * 0x5EED + 23)
    events: list[FleetEvent] = []
    counts: dict[str, int] = {}
    for at in _poisson_times(rng, rate_hz, t0, duration_s):
        drone = fleet[rng.randrange(len(fleet))]
        index = counts.get(drone.drone_id, 0)
        counts[drone.drone_id] = index + 1
        submission = build_flight_submission(
            drone, encryption_public_key, frame=frame,
            flight_index=_INDEX_BASE[CLASS_CHAOS] + index,
            samples=samples, start=at - samples, rng=rng,
            hash_name=hash_name, scheme=_scheme_for(scheme_of, drone))
        records: list[EncryptedPoaRecord] = []
        for record in submission.records:
            for delivery in injector.link_deliveries(
                    POINT_FLEET_UPLINK, record.ciphertext, now=at):
                records.append(EncryptedPoaRecord(delivery.payload,
                                                  record.signature))
        submission = dataclasses.replace(submission,
                                         records=tuple(records))
        events.append(FleetEvent(at=at, submission=submission,
                                 region=drone.region,
                                 drone_id=drone.drone_id,
                                 traffic_class=CLASS_CHAOS,
                                 index=len(events)))
    return events


def _flip_byte(blob: bytes, rng: random.Random) -> bytes:
    if not blob:
        return b"\xff"
    pos = rng.randrange(len(blob))
    return blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:]


def adversary_stream(fleet: Sequence[FleetDrone],
                     encryption_public_key: RsaPublicKey, *,
                     frame: LocalFrame, seed: int = 0,
                     rate_hz: float = 0.5, duration_s: float = 60.0,
                     samples: int = 4, t0: float = DEFAULT_EPOCH,
                     hash_name: str = "sha1",
                     scheme_of: Mapping[str, str] | None = None,
                     attacks: Sequence[str] = ATTACK_CLASSES
                     ) -> list[FleetEvent]:
    """Attacker flights drawn uniformly from ``attacks`` per arrival.

    Every event carries ``must_reject=True``; the engine verdicts the
    classes map to are documented (and pinned) in the module docstring.
    """
    if not fleet or rate_hz <= 0:
        return []
    for attack in attacks:
        if attack not in ATTACK_CLASSES:
            raise ValueError(f"unknown attack class {attack!r}; "
                             f"expected one of {ATTACK_CLASSES}")
    samples = max(samples, 3)  # reorder/incursion need a real trace
    rng = random.Random(seed * 0x5EED + 37)
    events: list[FleetEvent] = []
    counts: dict[str, int] = {}
    for at in _poisson_times(rng, rate_hz, t0, duration_s):
        attack = attacks[rng.randrange(len(attacks))]
        pick = rng.randrange(len(fleet))
        drone = fleet[pick]
        if attack == ATTACK_FOREIGN_REPLAY and len(fleet) < 2:
            attack = ATTACK_PAYLOAD_TAMPER
        index = counts.get(drone.drone_id, 0)
        counts[drone.drone_id] = index + 1
        flight_index = _INDEX_BASE[CLASS_ADVERSARY] + index
        scheme = _scheme_for(scheme_of, drone)
        if attack == ATTACK_INCURSION:
            submission = build_violation_submission(
                drone, encryption_public_key, frame=frame,
                flight_index=flight_index, samples=samples,
                start=at - samples, rng=rng, hash_name=hash_name,
                scheme=scheme)
        elif attack == ATTACK_FOREIGN_REPLAY:
            signer = fleet[(pick + 1) % len(fleet)]
            base = build_flight_submission(
                signer, encryption_public_key, frame=frame,
                flight_index=flight_index, samples=samples,
                start=at - samples, rng=rng, hash_name=hash_name,
                scheme=_scheme_for(scheme_of, signer))
            submission = dataclasses.replace(
                base, drone_id=drone.drone_id,
                flight_id=f"flight-{drone.drone_id}-{flight_index}")
        else:
            base = build_flight_submission(
                drone, encryption_public_key, frame=frame,
                flight_index=flight_index, samples=samples,
                start=at - samples, rng=rng, hash_name=hash_name,
                scheme=scheme)
            which = rng.randrange(len(base.records))
            record = base.records[which]
            if attack == ATTACK_PAYLOAD_TAMPER:
                record = EncryptedPoaRecord(
                    _flip_byte(record.ciphertext, rng), record.signature)
            elif attack == ATTACK_SIGNATURE_BITFLIP:
                record = EncryptedPoaRecord(
                    record.ciphertext, _flip_byte(record.signature, rng))
            if attack == ATTACK_RECORD_REORDER:
                records = tuple(reversed(base.records))
            else:
                records = (base.records[:which] + (record,)
                           + base.records[which + 1:])
            submission = dataclasses.replace(base, records=records)
        events.append(FleetEvent(at=at, submission=submission,
                                 region=drone.region,
                                 drone_id=drone.drone_id,
                                 traffic_class=CLASS_ADVERSARY,
                                 must_reject=True, attack=attack,
                                 index=len(events)))
    return events


def flood_stream(flooders: Sequence[FleetDrone],
                 encryption_public_key: RsaPublicKey, *,
                 frame: LocalFrame, seed: int = 0,
                 burst_per_s: int = 50, storm_period_s: float = 10.0,
                 duration_s: float = 60.0, samples: int = 3,
                 t0: float = DEFAULT_EPOCH,
                 hash_name: str = "sha1") -> list[FleetEvent]:
    """Flooding/DoS submitters hammering the intake in storm windows.

    The storm cycle is ``storm_period_s`` long with its first half *on*:
    during every on-second each flooder round-robins ``burst_per_s``
    submissions, alternating byte-identical re-uploads of its one honest
    base flight (dedup fodder — not a false accept when the base
    verdict lands once) with junk submissions of undecryptable random
    records (``must_reject=True``).  Sub-second offsets keep events
    totally ordered without colliding with Poisson arrival instants.
    """
    if not flooders or burst_per_s <= 0:
        return []
    if storm_period_s <= 0:
        raise ValueError("storm_period_s must be > 0")
    rng = random.Random(seed * 0x5EED + 53)
    bases = [build_flight_submission(
                 drone, encryption_public_key, frame=frame,
                 flight_index=_INDEX_BASE[CLASS_FLOOD], samples=samples,
                 start=t0 - samples - 1.0, rng=rng, hash_name=hash_name)
             for drone in flooders]
    events: list[FleetEvent] = []
    dup_count = 0
    junk_count = 0
    for second in range(1, int(duration_s)):
        if (second - 1) % storm_period_s >= storm_period_s / 2.0:
            continue
        tt = t0 + float(second)
        for j in range(burst_per_s):
            at = tt + (j + 1) * 1e-4
            if j % 2 == 0:
                # Independent round-robin so every flooder both dups
                # and junks regardless of burst/fleet parity.
                drone = flooders[dup_count % len(flooders)]
                submission = bases[dup_count % len(flooders)]
                dup_count += 1
                must_reject = False
            else:
                drone = flooders[junk_count % len(flooders)]
                junk_count += 1
                junk = [EncryptedPoaRecord(rng.randbytes(64),
                                           rng.randbytes(64))
                        for _ in range(2)]
                submission = PoaSubmission(
                    drone_id=drone.drone_id,
                    flight_id=(f"flight-{drone.drone_id}-"
                               f"{_INDEX_BASE[CLASS_FLOOD] + junk_count}"),
                    records=junk, claimed_start=tt - samples,
                    claimed_end=tt - 1.0)
                must_reject = True
            events.append(FleetEvent(at=at, submission=submission,
                                     region=drone.region,
                                     drone_id=drone.drone_id,
                                     traffic_class=CLASS_FLOOD,
                                     must_reject=must_reject,
                                     index=len(events)))
    return events


def merge_streams(*streams: Sequence[FleetEvent]) -> list[FleetEvent]:
    """All events in one deterministic arrival order.

    Sorted by instant, then traffic-class rank, then emission index —
    a total order, so equal seeds replay byte-identically.
    """
    merged = [event for stream in streams for event in stream]
    merged.sort(key=lambda e: (e.at, _CLASS_RANK[e.traffic_class], e.index))
    return merged
