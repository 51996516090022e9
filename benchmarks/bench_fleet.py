#!/usr/bin/env python
"""Fleet-scale intake benchmark: admission scheduling under flood.

The fleet simulator's claim (docs/FLEETSIM.md) is that the admission
scheduler converts a flooding storm from a *starvation* event into a
*containment* event: with no guard, junk floods fill the bounded intake
queue during storm seconds and honest traffic arriving behind them is
shed ``queue_full``; with the fair-share guard, the flooder's own
per-drone bucket turns the storm away at intake — before it costs queue
slots or store writes — and the honest fleet rides through.

This benchmark measures that A/B at fleet scale, per fleet size:

* a seeded honest fleet plus a few flooders is provisioned once
  (untimed — 512-bit keygen at 5k drones is over a minute of RSA that
  says nothing about intake); both arms register the identical fleet;
* one merged deterministic event schedule (Poisson honest arrivals +
  storm-window floods alternating byte-identical duplicates with junk)
  is built once and replayed against both arms on the virtual clock;
* each arm is timed end to end — per-submit wall latency (p50/p99) and
  sustained submissions/sec over submit+drain — and closed out with
  per-class accounting: honest shed ratio, flood turned-away ratio;
* safety is enforced in *every* mode: a ``must_reject`` event whose
  verdict lands ACCEPTED fails the run — a throughput number produced
  by accepting garbage is meaningless.

The full run enforces the acceptance floor: the fair-share arm must
deliver strictly more accepted-and-audited honest submissions than the
no-guard arm under the same flood (the honest-throughput win).
``--smoke`` runs a tiny configuration for CI shape-checking (no floor:
at smoke size the queue never saturates).  Artefact:
``BENCH_fleet.json``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from _emit import write_bench_json

from repro.core.nfz import NoFlyZone
from repro.core.protocol import DroneRegistrationRequest
from repro.crypto.rsa import generate_rsa_keypair
from repro.fleetsim.traffic import (CLASS_FLOOD, flood_stream, honest_stream,
                                    merge_streams)
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.server.admission import build_scheduler
from repro.server.service import AuditorService
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import provision_fleet

T0 = DEFAULT_EPOCH
#: Target honest submissions per arm.  ``honest_stream``'s rate is
#: fleet-wide (Poisson arrivals assigned across the fleet), so the
#: audited work per arm is fixed while fleet size scales the *diversity*
#: of submitters — which is what the per-drone admission buckets and the
#: registry have to absorb.
HONEST_EVENTS_TARGET = 1500


def _percentile(samples, q):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def provision(drones: int, flooders: int, seed: int):
    """Generate the fleet once; ids match the service's issue order."""
    issued = []

    def probe(operator_public, tee_public, name):
        issued.append(f"drone-{len(issued) + 1:06d}")
        return issued[-1]

    fleet = provision_fleet(probe, drones=drones, seed=seed)
    flood_fleet = provision_fleet(probe, drones=flooders,
                                  seed=seed + 424_243)
    return fleet, flood_fleet


def build_schedule(fleet, flood_fleet, enc_public, frame, *, seed,
                   duration_s, flood_burst_per_s, flood_period_s):
    rate_hz = HONEST_EVENTS_TARGET / duration_s
    honest = honest_stream(fleet, enc_public, frame=frame, seed=seed,
                           rate_hz=rate_hz, duration_s=duration_s,
                           samples=3)
    flood = flood_stream(flood_fleet, enc_public, frame=frame, seed=seed,
                         burst_per_s=flood_burst_per_s,
                         storm_period_s=flood_period_s,
                         duration_s=duration_s, samples=3)
    return merge_streams(honest, flood)


def run_arm(policy: str, events, fleet, flood_fleet, encryption_key,
            frame, *, duration_s, queue_capacity, admission_rate_per_s,
            shards) -> dict:
    """Replay the schedule against one service configuration."""
    # Tight per-drone buckets: a flooder's storm must die at its own
    # bucket, not ride the global budget into the queue.
    admission = build_scheduler(
        policy, rate_per_s=(None if policy == "none"
                            else admission_rate_per_s),
        burst=64.0, drone_rate_per_s=5.0, drone_burst=8.0)
    service = AuditorService(frame, shards=shards,
                             queue_capacity=queue_capacity,
                             admission=admission,
                             encryption_key=encryption_key)
    center = frame.to_geo(0.0, 0.0)
    service.register_zone(NoFlyZone(center.lat, center.lon, 50.0))
    for drone in fleet + flood_fleet:
        issued = service.register_drone(DroneRegistrationRequest(
            operator_public_key=drone.operator_key.public_key,
            tee_public_key=drone.tee_key.public_key))
        assert issued == drone.drone_id, "fleet ids diverged between arms"

    outcomes = {}   # traffic class -> outcome -> count
    seq_events = {}
    latencies = []
    cursor = 0
    start = time.perf_counter()
    for tick in range(1, int(duration_s) + 2):
        now = T0 + float(tick)
        while cursor < len(events) and events[cursor].at <= now:
            event = events[cursor]
            cursor += 1
            t_submit = time.perf_counter()
            # Virtual intake time is the event's own arrival instant —
            # quantizing to the tick would cap every bucket at its
            # burst per tick and misreport admission behaviour.
            decision = service.submit(event.submission, now=event.at,
                                      region=event.region)
            latencies.append(time.perf_counter() - t_submit)
            per_class = outcomes.setdefault(event.traffic_class, {})
            per_class[decision.outcome] = \
                per_class.get(decision.outcome, 0) + 1
            if decision.outcome == "accepted":
                seq_events[decision.seq] = event
        service.drain(now=now)
    elapsed = time.perf_counter() - start

    false_accepts = 0
    honest_audited_accepted = 0
    for stored, verdict in service.audited_submissions():
        event = seq_events.get(stored.seq)
        if event is None:
            continue
        if event.must_reject and verdict.status == "accepted":
            false_accepts += 1
        if (event.traffic_class == "honest"
                and verdict.status == "accepted"):
            honest_audited_accepted += 1
    service.close()

    honest = outcomes.get("honest", {})
    flood = outcomes.get(CLASS_FLOOD, {})
    honest_total = sum(honest.values())
    flood_total = sum(flood.values())
    honest_shed = (honest.get("shed_rate_limited", 0)
                   + honest.get("shed_queue_full", 0))
    flood_turned_away = (flood.get("shed_rate_limited", 0)
                         + flood.get("shed_queue_full", 0)
                         + flood.get("deduplicated", 0))
    return {
        "policy": policy,
        "elapsed_s": elapsed,
        "submissions": len(events),
        "sustained_submissions_per_s": len(events) / elapsed,
        "intake_p50_s": _percentile(latencies, 0.50),
        "intake_p99_s": _percentile(latencies, 0.99),
        "outcomes": {name: dict(sorted(per.items()))
                     for name, per in sorted(outcomes.items())},
        "honest_accepted_audited": honest_audited_accepted,
        "honest_shed_ratio": (honest_shed / honest_total
                              if honest_total else 0.0),
        "flood_turned_away_ratio": (flood_turned_away / flood_total
                                    if flood_total else 0.0),
        "false_accepts": false_accepts,
    }


def run_fleet_size(drones: int, args, frame, encryption_key) -> dict:
    provision_start = time.perf_counter()
    fleet, flood_fleet = provision(drones, args.flooders, args.seed)
    provision_s = time.perf_counter() - provision_start
    events = build_schedule(fleet, flood_fleet,
                            encryption_key.public_key, frame,
                            seed=args.seed, duration_s=args.duration,
                            flood_burst_per_s=args.flood_burst,
                            flood_period_s=args.flood_period)
    arm_kwargs = dict(duration_s=args.duration,
                      queue_capacity=args.queue_capacity,
                      admission_rate_per_s=args.admission_rate,
                      shards=args.shards)
    guarded = run_arm("fair-share", events, fleet, flood_fleet,
                      encryption_key, frame, **arm_kwargs)
    unguarded = run_arm("none", events, fleet, flood_fleet,
                        encryption_key, frame, **arm_kwargs)
    win = (guarded["honest_accepted_audited"]
           / max(1, unguarded["honest_accepted_audited"]))
    return {
        "drones": drones,
        "flooders": args.flooders,
        "events": len(events),
        "provision_s": provision_s,
        "fair_share": guarded,
        "no_guard": unguarded,
        "honest_throughput_win": win,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleets", default="1000,5000",
                        help="comma-separated fleet sizes (default "
                             "1000,5000)")
    parser.add_argument("--flooders", type=int, default=4)
    parser.add_argument("--duration", type=float, default=30.0,
                        help="virtual seconds of traffic per arm")
    parser.add_argument("--flood-burst", type=int, default=700,
                        help="total flood submissions per storm second")
    parser.add_argument("--flood-period", type=float, default=10.0)
    parser.add_argument("--queue-capacity", type=int, default=256,
                        help="intake queue bound; the no-guard arm's "
                             "only back-pressure")
    parser.add_argument("--admission-rate", type=float, default=400.0,
                        help="fair-share arm's global bucket rate")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--key-bits", type=int, default=512)
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration; skips the "
                             "honest-win floor (the queue never "
                             "saturates at smoke size)")
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    if args.smoke:
        args.fleets, args.flooders = "24", 2
        args.duration, args.flood_burst = 20.0, 64
        args.queue_capacity, args.admission_rate = 64, 100.0

    fleet_sizes = [int(s) for s in args.fleets.split(",") if s.strip()]
    frame = LocalFrame(GeoPoint(40.1000, -88.2200))
    encryption_key = generate_rsa_keypair(args.key_bits,
                                          rng=random.Random(args.seed))

    results = [run_fleet_size(drones, args, frame, encryption_key)
               for drones in fleet_sizes]

    payload = {
        "config": {
            "fleets": fleet_sizes, "flooders": args.flooders,
            "duration_s": args.duration,
            "flood_burst_per_s": args.flood_burst,
            "flood_period_s": args.flood_period,
            "queue_capacity": args.queue_capacity,
            "admission_rate_per_s": args.admission_rate,
            "shards": args.shards, "key_bits": args.key_bits,
            "seed": args.seed, "smoke": args.smoke,
            "honest_events_target": HONEST_EVENTS_TARGET,
        },
        "results": results,
        "win_floor": 1.0,
        "floor_enforced": not args.smoke,
    }
    path = write_bench_json("fleet", payload, out_dir=args.out_dir)

    failures = []
    for result in results:
        print(f"fleet bench: {result['drones']} drones "
              f"+ {result['flooders']} flooder(s), "
              f"{result['events']} event(s) "
              f"(provisioned in {result['provision_s']:.1f}s)")
        for arm_name in ("fair_share", "no_guard"):
            arm = result[arm_name]
            p99 = arm["intake_p99_s"]
            print(f"  {arm['policy']:>10}: "
                  f"{arm['sustained_submissions_per_s']:8.1f} sub/s   "
                  f"intake p99 {p99 * 1e3:6.2f} ms   "
                  f"honest shed {arm['honest_shed_ratio']:5.1%}   "
                  f"flood away {arm['flood_turned_away_ratio']:5.1%}")
            if arm["false_accepts"]:
                failures.append(
                    f"{result['drones']}-drone {arm['policy']} arm "
                    f"recorded {arm['false_accepts']} false accept(s)")
        win = result["honest_throughput_win"]
        print(f"  honest-throughput win {win:.2f}x "
              f"(floor 1.0x{', not enforced' if args.smoke else ''})")
        if not args.smoke and win <= 1.0:
            failures.append(
                f"{result['drones']}-drone honest win {win:.2f}x is not "
                "above the no-guard baseline")
    print(f"  wrote {path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
