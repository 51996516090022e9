"""The discrete-event fleet simulator driving the auditor service.

:class:`FleetSimulator` runs a :class:`FleetMix` of interleaved traffic
classes (:mod:`repro.fleetsim.traffic`) against a real
:class:`repro.server.service.AuditorService` on the virtual clock —
one-second ticks, due arrivals submitted through the admission
scheduler, the queue drained through the shard engines, a telemetry
rollup evaluated against the monitor rules every tick.  The outcome is
a :class:`FleetReport` whose :meth:`~FleetReport.to_dict` is fully
deterministic (counts, per-class verdict histograms, virtual-time
alerts): two runs with equal seeds serialize byte-identically.  Wall
clock measurements (intake latency, sustained throughput) live in the
separate :attr:`FleetRunResult.timing` block precisely so they never
contaminate the deterministic summary.

Standing invariants the report checks (and ``ok`` aggregates):

* ``zero_false_accepts`` — no ``must_reject`` event was ACCEPTED.
* ``adversary_never_accepted`` — the adversary class produced no
  ACCEPTED verdict at all.
* ``honest_admitted_accepted`` — every *admitted* honest submission
  verified ACCEPTED (honest traffic is built to verify).
* ``honest_liveness`` — the honest shed ratio stayed at or below the
  configured bound even while floods hammered intake.
* ``flood_contained`` — with a flood and an admission policy active,
  flood traffic was turned away at at least the honest rate (fairness:
  back-pressure lands on the flooder, not the fleet).
* ``store_drained`` — nothing pending, nothing queued, no intake
  errors: every accepted submission got exactly one verdict.
* ``no_page_alerts`` — the monitor's page-severity rules stayed quiet.

A mid-run crash (``crash_at``) closes the service *between submit and
drain* — the worst instant: accepted-but-unaudited rows in the store —
then reopens the same store and replays via
:meth:`~repro.server.service.AuditorService.recover`, exercising the
exactly-once verdict property under fleet load.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.nfz import NoFlyZone
from repro.core.protocol import DroneRegistrationRequest
from repro.crypto.rsa import generate_rsa_keypair
from repro.crypto.schemes import SCHEME_RSA
from repro.errors import ConfigurationError
from repro.fleetsim.traffic import (ATTACK_CLASSES, CLASS_ADVERSARY,
                                    CLASS_CHAOS, CLASS_FLOOD, CLASS_HONEST,
                                    FleetEvent, adversary_stream,
                                    chaos_stream, flood_stream,
                                    honest_stream, merge_streams)
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.obs.hub import TelemetryHub, flatten_rollup
from repro.obs.monitor import MonitorEngine, builtin_rules
from repro.server.admission import build_scheduler
from repro.server.service import (DEFAULT_QUEUE_CAPACITY, OUTCOME_ACCEPTED,
                                  OUTCOME_DEDUPLICATED, OUTCOME_SHED_QUEUE,
                                  OUTCOME_SHED_RATE, AuditorService)
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import FleetDrone, provision_fleet

#: Verdict status string a clean alibi stores (``VerificationStatus``).
_STATUS_ACCEPTED = "accepted"


@dataclass(frozen=True)
class FleetMix:
    """One fleet scenario: who submits what, how hard, and how."""

    drones: int = 12
    flooders: int = 2
    duration_s: float = 60.0
    honest_rate_hz: float = 2.0
    chaos_rate_hz: float = 0.0
    adversary_rate_hz: float = 0.0
    #: Junk/duplicate submissions per flooder-second during storm
    #: windows; 0 disables the flood class entirely.
    flood_burst_per_s: int = 0
    flood_period_s: float = 10.0
    samples: int = 4
    regions: int = 4
    #: Authentication schemes assigned round-robin over the honest fleet.
    schemes: tuple[str, ...] = (SCHEME_RSA,)
    attacks: tuple[str, ...] = ATTACK_CLASSES
    seed: int = 0
    key_bits: int = 512
    hash_name: str = "sha1"

    def __post_init__(self) -> None:
        if self.drones < 1:
            raise ConfigurationError("mix needs at least one drone")
        if self.duration_s <= 0:
            raise ConfigurationError("mix duration must be > 0 s")
        if not self.schemes:
            raise ConfigurationError("mix needs at least one scheme")
        if self.flood_burst_per_s > 0 and self.flooders < 1:
            raise ConfigurationError("a flood needs at least one flooder")


@dataclass
class ClassStats:
    """Intake and verdict accounting for one traffic class."""

    submitted: int = 0
    accepted: int = 0
    deduplicated: int = 0
    shed_rate_limited: int = 0
    shed_queue_full: int = 0
    statuses: dict[str, int] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        return self.shed_rate_limited + self.shed_queue_full

    @property
    def shed_ratio(self) -> float:
        return (self.shed / self.submitted) if self.submitted else 0.0

    @property
    def turned_away_ratio(self) -> float:
        """Shed or deduplicated, as a fraction of submitted."""
        if not self.submitted:
            return 0.0
        return (self.shed + self.deduplicated) / self.submitted

    def to_dict(self) -> dict:
        return {"submitted": self.submitted, "accepted": self.accepted,
                "deduplicated": self.deduplicated, "shed": self.shed,
                "shed_rate_limited": self.shed_rate_limited,
                "shed_queue_full": self.shed_queue_full,
                "statuses": dict(sorted(self.statuses.items()))}


@dataclass(frozen=True)
class FleetReport:
    """Deterministic summary of one fleet run."""

    mix: FleetMix
    policy: str
    shards: int
    queue_capacity: int
    events_total: int
    replayed_on_start: int
    classes: dict[str, ClassStats]
    stats: dict
    status_counts: dict[str, int]
    false_accepts: list[dict]
    alerts: list[dict]
    admission: dict | None
    crash: dict | None
    store: dict
    honest_shed_ratio: float
    flood_turned_away_ratio: float
    invariants: dict[str, bool]
    ok: bool

    def to_dict(self) -> dict:
        """JSON-ready form; every value is seed-deterministic."""
        return {
            "mix": {
                "drones": self.mix.drones,
                "flooders": self.mix.flooders,
                "duration_s": self.mix.duration_s,
                "honest_rate_hz": self.mix.honest_rate_hz,
                "chaos_rate_hz": self.mix.chaos_rate_hz,
                "adversary_rate_hz": self.mix.adversary_rate_hz,
                "flood_burst_per_s": self.mix.flood_burst_per_s,
                "flood_period_s": self.mix.flood_period_s,
                "samples": self.mix.samples,
                "regions": self.mix.regions,
                "schemes": list(self.mix.schemes),
                "attacks": list(self.mix.attacks),
                "seed": self.mix.seed,
                "key_bits": self.mix.key_bits,
            },
            "policy": self.policy,
            "shards": self.shards,
            "queue_capacity": self.queue_capacity,
            "events_total": self.events_total,
            "replayed_on_start": self.replayed_on_start,
            "classes": {name: stats.to_dict()
                        for name, stats in sorted(self.classes.items())},
            "stats": self.stats,
            "status_counts": dict(sorted(self.status_counts.items())),
            "false_accepts": list(self.false_accepts),
            "alerts": list(self.alerts),
            "admission": self.admission,
            "crash": self.crash,
            "store": dict(self.store),
            "honest_shed_ratio": self.honest_shed_ratio,
            "flood_turned_away_ratio": self.flood_turned_away_ratio,
            "invariants": dict(sorted(self.invariants.items())),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class FleetRunResult:
    """A deterministic report plus the run's wall-clock measurements."""

    report: FleetReport
    #: Non-deterministic wall-clock block (latency quantiles, sustained
    #: throughput, provisioning time, store path) — kept out of
    #: :meth:`FleetReport.to_dict` so determinism checks stay byte-exact.
    timing: dict


def _percentile(sorted_values: Sequence[float], q: float) -> float | None:
    if not sorted_values:
        return None
    pos = min(len(sorted_values) - 1,
              max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[pos]


def _merge_stats(frames: Sequence[dict]) -> dict:
    """Sum ServiceStats snapshots across service lifetimes (crash runs)."""
    merged: dict = {}
    for frame in frames:
        for key, value in frame.items():
            if isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            elif isinstance(value, list):
                base = merged.setdefault(key, [0] * len(value))
                if len(base) < len(value):
                    base.extend([0] * (len(value) - len(base)))
                for i, item in enumerate(value):
                    base[i] += item
            elif isinstance(value, dict):
                base = merged.setdefault(key, {})
                for sub, item in value.items():
                    base[sub] = base.get(sub, 0) + item
    for key, value in list(merged.items()):
        if isinstance(value, dict):
            merged[key] = dict(sorted(value.items()))
    return merged


class FleetSimulator:
    """Drives one :class:`FleetMix` through a real auditor service.

    Args:
        mix: the traffic scenario.
        store: flight-store path (``":memory:"`` for ephemeral runs;
            a real path is required when ``crash_at`` is set, since the
            crash is survived *through* the store).
        shards / queue_capacity: service layout.
        policy: admission policy (``"none"`` / ``"fifo"`` /
            ``"fair-share"`` / ``"hybrid"``); ``"none"`` is the
            unguarded baseline the benchmark compares against.
        admission_rate_per_s / admission_burst: global-bucket sizing for
            the scheduler (ignored under ``"none"``).
        crash_at: virtual instant to kill and reopen the service at
            (between that tick's submits and its drain).
        max_honest_shed: bound the ``honest_liveness`` invariant asserts.
        tick_s / telemetry_window_s: loop step and rollup window.
    """

    def __init__(self, mix: FleetMix, *, store: str = ":memory:",
                 shards: int = 2,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 policy: str = "none",
                 admission_rate_per_s: float | None = None,
                 admission_burst: float = 64.0,
                 admission_kwargs: dict | None = None,
                 crash_at: float | None = None,
                 max_honest_shed: float = 0.2,
                 tick_s: float = 1.0,
                 telemetry_window_s: float = 30.0):
        if crash_at is not None and store == ":memory:":
            raise ConfigurationError(
                "crash_at needs a durable store path (not :memory:)")
        self.mix = mix
        self.store_path = store
        self.shards = int(shards)
        self.queue_capacity = int(queue_capacity)
        self.policy = policy if policy else "none"
        self.admission_rate_per_s = admission_rate_per_s
        self.admission_burst = admission_burst
        self.admission_kwargs = dict(admission_kwargs or {})
        self.crash_at = crash_at
        self.max_honest_shed = float(max_honest_shed)
        self.tick_s = float(tick_s)
        self.telemetry_window_s = float(telemetry_window_s)
        self.frame = LocalFrame(GeoPoint(40.1000, -88.2200))
        self._encryption_key = generate_rsa_keypair(
            max(512, mix.key_bits), rng=random.Random(mix.seed + 77))
        self.hub = TelemetryHub(window_s=self.telemetry_window_s)
        self.monitor = MonitorEngine(builtin_rules())
        self.classes: dict[str, ClassStats] = {}
        self._honest = ClassStats()

    # --- service lifecycle --------------------------------------------------

    def _open_service(self) -> AuditorService:
        scheduler = build_scheduler(
            self.policy, rate_per_s=self.admission_rate_per_s,
            burst=self.admission_burst, **self.admission_kwargs)
        service = AuditorService(
            self.frame, self.store_path, shards=self.shards,
            queue_capacity=self.queue_capacity, admission=scheduler,
            encryption_key=self._encryption_key, telemetry=self.hub)
        center = self.frame.to_geo(0.0, 0.0)
        service.register_zone(NoFlyZone(center.lat, center.lon, 50.0))
        return service

    def _register_cb(self, service: AuditorService):
        def register(operator_public, tee_public, name):
            existing = service.store.find_drone_by_tee(tee_public)
            if existing is not None:
                return existing.drone_id
            return service.register_drone(DroneRegistrationRequest(
                operator_public_key=operator_public,
                tee_public_key=tee_public, operator_name=name))
        return register

    def _honest_shed_ratio(self) -> float:
        return self._honest.shed_ratio

    # --- event construction -------------------------------------------------

    def _build_events(self, fleet: list[FleetDrone],
                      flooders: list[FleetDrone]) -> list[FleetEvent]:
        mix = self.mix
        scheme_of = {drone.drone_id: mix.schemes[i % len(mix.schemes)]
                     for i, drone in enumerate(fleet)}
        enc = self._encryption_key.public_key
        common = dict(frame=self.frame, seed=mix.seed,
                      duration_s=mix.duration_s, samples=mix.samples,
                      t0=DEFAULT_EPOCH, hash_name=mix.hash_name)
        streams = [honest_stream(fleet, enc, rate_hz=mix.honest_rate_hz,
                                 scheme_of=scheme_of, **common)]
        if mix.chaos_rate_hz > 0:
            streams.append(chaos_stream(fleet, enc,
                                        rate_hz=mix.chaos_rate_hz,
                                        scheme_of=scheme_of, **common))
        if mix.adversary_rate_hz > 0:
            streams.append(adversary_stream(fleet, enc,
                                            rate_hz=mix.adversary_rate_hz,
                                            scheme_of=scheme_of,
                                            attacks=mix.attacks, **common))
        if mix.flood_burst_per_s > 0:
            streams.append(flood_stream(
                flooders, enc, frame=self.frame, seed=mix.seed,
                burst_per_s=mix.flood_burst_per_s,
                storm_period_s=mix.flood_period_s,
                duration_s=mix.duration_s, samples=min(mix.samples, 3),
                t0=DEFAULT_EPOCH, hash_name=mix.hash_name))
        return merge_streams(*streams)

    # --- the run ------------------------------------------------------------

    def run(self) -> FleetRunResult:
        """Provision, simulate, and summarize one fleet scenario."""
        mix = self.mix
        t0 = DEFAULT_EPOCH
        provision_start = time.perf_counter()
        service = self._open_service()
        fleet = provision_fleet(self._register_cb(service),
                                drones=mix.drones, key_bits=mix.key_bits,
                                seed=mix.seed, regions=mix.regions)
        flooders = provision_fleet(self._register_cb(service),
                                   drones=mix.flooders,
                                   key_bits=mix.key_bits,
                                   seed=mix.seed + 424_243,
                                   regions=mix.regions) \
            if mix.flood_burst_per_s > 0 else []
        replayed_on_start = service.recover(now=t0)
        events = self._build_events(fleet, flooders)
        provision_s = time.perf_counter() - provision_start

        self.classes = {CLASS_HONEST: ClassStats()}
        self._honest = self.classes[CLASS_HONEST]
        if mix.chaos_rate_hz > 0:
            self.classes[CLASS_CHAOS] = ClassStats()
        if mix.adversary_rate_hz > 0:
            self.classes[CLASS_ADVERSARY] = ClassStats()
        if mix.flood_burst_per_s > 0:
            self.classes[CLASS_FLOOD] = ClassStats()
        self.hub.gauge("fleet.honest.shed_ratio", self._honest_shed_ratio)

        seq_events: dict[int, FleetEvent] = {}
        intake_latencies: list[float] = []
        alerts: list[dict] = []
        stats_frames: list[dict] = []
        crash: dict | None = None
        cursor = 0

        def submit_due(now: float) -> None:
            nonlocal cursor
            while cursor < len(events) and events[cursor].at <= now:
                event = events[cursor]
                cursor += 1
                stats = self.classes[event.traffic_class]
                stats.submitted += 1
                started = time.perf_counter()
                decision = service.submit(event.submission, now=event.at,
                                          region=event.region)
                intake_latencies.append(time.perf_counter() - started)
                if decision.outcome == OUTCOME_ACCEPTED:
                    stats.accepted += 1
                    seq_events[decision.seq] = event
                elif decision.outcome == OUTCOME_DEDUPLICATED:
                    stats.deduplicated += 1
                elif decision.outcome == OUTCOME_SHED_RATE:
                    stats.shed_rate_limited += 1
                elif decision.outcome == OUTCOME_SHED_QUEUE:
                    stats.shed_queue_full += 1

        def drain_and_watch(now: float) -> None:
            for record in service.drain(now):
                event = seq_events.get(record.seq)
                report = record.outcome.report
                if (event is not None and event.must_reject
                        and report is not None
                        and report.status.value == _STATUS_ACCEPTED):
                    self.hub.mark("audit.false_accepts", now=now)
            for alert in self.monitor.evaluate(
                    flatten_rollup(self.hub.rollup(now)), now):
                alerts.append({"rule": alert.rule,
                               "severity": alert.severity,
                               "t": alert.fired_at - t0})

        drive_start = time.perf_counter()
        ticks = int(math.ceil(mix.duration_s / self.tick_s))
        for tick in range(1, ticks + 1):
            now = t0 + tick * self.tick_s
            submit_due(now)
            if (self.crash_at is not None and crash is None
                    and now >= self.crash_at):
                # Kill the service at the worst instant: rows stored and
                # queued this tick but not yet audited.
                pending = service.store.pending_count()
                stats_frames.append(service.stats.to_dict())
                service.close()
                service = self._open_service()
                replayed = service.recover(now=now)
                crash = {"at": now - t0, "pending_at_crash": pending,
                         "replayed": replayed}
            drain_and_watch(now)
        end = t0 + ticks * self.tick_s
        submit_due(end + 1.0)
        drain_and_watch(end)
        drive_s = time.perf_counter() - drive_start
        stats_frames.append(service.stats.to_dict())

        # Verdict attribution from the store: covers both live-drained
        # and crash-recovered rows, exactly once each.
        false_accepts: list[dict] = []
        status_counts: dict[str, int] = {}
        for stored, verdict in service.audited_submissions():
            status_counts[verdict.status] = \
                status_counts.get(verdict.status, 0) + 1
            event = seq_events.get(stored.seq)
            if event is None:
                continue
            stats = self.classes[event.traffic_class]
            stats.statuses[verdict.status] = \
                stats.statuses.get(verdict.status, 0) + 1
            if event.must_reject and verdict.status == _STATUS_ACCEPTED:
                false_accepts.append({
                    "seq": stored.seq, "drone_id": event.drone_id,
                    "flight_id": event.submission.flight_id,
                    "traffic_class": event.traffic_class,
                    "attack": event.attack})

        merged_stats = _merge_stats(stats_frames)
        honest = self.classes[CLASS_HONEST]
        flood = self.classes.get(CLASS_FLOOD)
        adversary = self.classes.get(CLASS_ADVERSARY)
        store_summary = {"submissions": service.store.submission_count(),
                         "verdicts": service.store.verdict_count(),
                         "pending": service.store.pending_count()}
        admission_summary = (service.admission.stats.to_dict()
                             if service.admission is not None else None)

        invariants = {
            "zero_false_accepts": not false_accepts,
            "adversary_never_accepted":
                adversary is None
                or adversary.statuses.get(_STATUS_ACCEPTED, 0) == 0,
            "honest_admitted_accepted":
                set(honest.statuses) <= {_STATUS_ACCEPTED},
            "honest_liveness": honest.shed_ratio <= self.max_honest_shed,
            "store_drained": (store_summary["pending"] == 0
                              and service.queue_depth == 0
                              and merged_stats.get("intake_errors", 0) == 0),
            "no_page_alerts": not any(a["severity"] == "page"
                                      for a in alerts),
        }
        if flood is not None and self.policy != "none":
            invariants["flood_contained"] = (
                flood.turned_away_ratio > 0.0
                and flood.turned_away_ratio >= honest.shed_ratio)
        report = FleetReport(
            mix=mix, policy=self.policy, shards=self.shards,
            queue_capacity=self.queue_capacity, events_total=len(events),
            replayed_on_start=replayed_on_start,
            classes=dict(self.classes), stats=merged_stats,
            status_counts=status_counts, false_accepts=false_accepts,
            alerts=alerts, admission=admission_summary, crash=crash,
            store=store_summary,
            honest_shed_ratio=honest.shed_ratio,
            flood_turned_away_ratio=(flood.turned_away_ratio
                                     if flood is not None else 0.0),
            invariants=invariants, ok=all(invariants.values()))

        latencies = sorted(intake_latencies)
        timing = {
            "provision_s": provision_s,
            "drive_s": drive_s,
            "sustained_submissions_per_s": (
                merged_stats.get("submitted", 0) / drive_s
                if drive_s > 0 else 0.0),
            "intake_p50_s": _percentile(latencies, 0.50),
            "intake_p99_s": _percentile(latencies, 0.99),
            "store_path": service.store.path,
        }
        service.close()
        return FleetRunResult(report=report, timing=timing)
