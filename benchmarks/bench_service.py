#!/usr/bin/env python
"""Sustained-load service benchmark: shard-cache scaling on the warm path.

The sharded :class:`repro.server.service.AuditorService` claims a
throughput win that comes from **cache capacity**, not parallelism
(docs/SERVICE.md): with a fleet working set *W* of distinct encrypted
records larger than one worker's payload-cache bound *C*, a single
shard under cyclic re-submission traffic evicts every record before its
next hit and pays a full open of each sealed envelope (one RSA unwrap
plus every record), while *S* shards each hold *W/S <= C* and go fully
warm after the first pass.

This benchmark measures exactly that regime, deterministically:

* a seeded fleet is provisioned once; each drone contributes one signed,
  encrypted record set, re-submitted every cycle under a fresh flight id
  (distinct dedup keys -> distinct store rows; identical ciphertexts ->
  the payload cache is what decides the decryption cost);
* the shard assignment is computed up front and the config is *checked*:
  the single shard must overflow its bound (``W > C``) and every shard
  of the sharded run must fit (``max per-shard records <= C``) — a
  parameter drift that silently left both arms warm (or both thrashing)
  fails the run instead of reporting a meaningless ratio;
* one cold warm-up cycle fills the caches, then ``--cycles`` timed
  cycles of submit+drain are measured per arm;
* before anything is reported, every stored verdict of both arms is
  replayed through the independent ``repro.conformance.reference``
  verifier — a "speedup" produced by skipping verification rather than
  skipping decryption fails here.

The full run enforces the acceptance floor: 4-shard warm-path
throughput >= 3x single-shard.  ``--smoke`` runs a tiny configuration
for CI shape-checking (artefact + conformance, no floor: at smoke size
decryption does not dominate).  Artefact: ``BENCH_service.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
import time

from _emit import write_bench_json

from repro.conformance.reference import reference_verify
from repro.core.nfz import NoFlyZone
from repro.core.poa import decrypt_poa
from repro.core.protocol import DroneRegistrationRequest
from repro.crypto.rsa import generate_rsa_keypair
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.obs.hub import TelemetryHub
from repro.server.service import AuditorService
from repro.server.store import INTAKE_ERROR_STATUS
from repro.sim.clock import DEFAULT_EPOCH
from repro.workloads.fleet import build_flight_submission, provision_fleet

SPEEDUP_FLOOR = 3.0
T0 = DEFAULT_EPOCH


def build_service(shards: int, cache_max: int, encryption_key,
                  frame: LocalFrame) -> tuple[AuditorService, TelemetryHub]:
    hub = TelemetryHub(window_s=3600.0)
    service = AuditorService(frame, shards=shards,
                             shard_payload_cache_max=cache_max,
                             encryption_key=encryption_key, telemetry=hub)
    center = frame.to_geo(0.0, 0.0)
    service.register_zone(NoFlyZone(center.lat, center.lon, 50.0))
    return service, hub


def cycle_submissions(base, cycle: int):
    """The cycle's submissions: same ciphertexts, fresh flight ids."""
    return [dataclasses.replace(
                sub, flight_id=f"{sub.flight_id}-cycle{cycle}")
            for sub in base]


def run_arm(shards: int, cache_max: int, fleet, base, cycles: int,
            encryption_key, frame: LocalFrame) -> dict:
    """Time one service configuration over the warm-path cycles."""
    service, hub = build_service(shards, cache_max, encryption_key, frame)
    for drone in fleet:
        issued = service.register_drone(DroneRegistrationRequest(
            operator_public_key=drone.operator_key.public_key,
            tee_public_key=drone.tee_key.public_key))
        assert issued == drone.drone_id, "fleet ids diverged between arms"

    # Cold cycle: every record is a compulsory miss; fills the caches.
    now = T0 + 1.0
    for sub in cycle_submissions(base, 0):
        service.submit(sub, now=now)
    service.drain(now=now)

    start = time.perf_counter()
    for cycle in range(1, cycles + 1):
        now = T0 + 1.0 + cycle
        for sub in cycle_submissions(base, cycle):
            service.submit(sub, now=now)
        service.drain(now=now)
    elapsed = time.perf_counter() - start

    submissions = len(base) * cycles
    hits = sum(e.payload_cache_hits for e in service.engines)
    misses = sum(e.payload_cache_misses for e in service.engines)
    arm = {
        "shards": shards,
        "elapsed_s": elapsed,
        "submissions": submissions,
        "submissions_per_s": submissions / elapsed,
        "payload_cache_hits": hits,
        "payload_cache_misses": misses,
        "payload_cache_hit_ratio": hits / (hits + misses),
        "intake_p99_s": hub.sketch("audit.intake.seconds")
                           .summary(now).get("p99"),
        "audited": service.stats.audited,
    }
    arm["conformance"] = replay_conformance(service, frame)
    service.close()
    return arm


def replay_conformance(service: AuditorService, frame: LocalFrame) -> dict:
    """Re-derive every stored verdict with the independent verifier."""
    zones = [record.zone for record in service.zones.all_zones()]
    rows = 0
    mismatches = []
    for stored, verdict in service.audited_submissions():
        rows += 1
        if verdict.status == INTAKE_ERROR_STATUS:
            mismatches.append({"seq": stored.seq, "got": verdict.status,
                               "want": "a verification report"})
            continue
        poa = decrypt_poa(stored.submission.records,
                          service._encryption_key,
                          scheme=stored.submission.scheme,
                          finalizer=stored.submission.finalizer)
        tee_key = service.store.get_drone(
            stored.submission.drone_id).tee_public_key
        want = reference_verify(poa, tee_key, zones, frame)
        got = verdict.to_report()
        if (got.status, got.reason) != (want.status, want.reason):
            mismatches.append({
                "seq": stored.seq,
                "got": [got.status.value,
                        got.reason.value if got.reason else None],
                "want": [want.status.value,
                         want.reason.value if want.reason else None]})
    return {"rows": rows, "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--drones", type=int, default=16)
    parser.add_argument("--samples", type=int, default=4,
                        help="records per submission (default 4)")
    parser.add_argument("--cycles", type=int, default=4,
                        help="timed warm-path re-submission cycles")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the sharded arm (default 4)")
    parser.add_argument("--cache", type=int, default=30,
                        help="per-shard payload cache bound C (default 30)")
    parser.add_argument("--key-bits", type=int, default=1024,
                        help="RSAES encryption key size; decryption is the "
                             "cost the warm path amortizes (default 1024)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration; skips the speedup "
                             "floor (decryption does not dominate at "
                             "smoke size)")
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    if args.smoke:
        args.drones, args.samples, args.cycles, args.cache = 4, 2, 2, 4

    frame = LocalFrame(GeoPoint(40.1000, -88.2200))
    encryption_key = generate_rsa_keypair(args.key_bits,
                                          rng=random.Random(args.seed))

    # Provision once; both arms register the same keys in the same order
    # (ids are issued sequentially, so they match across stores).
    fleet_ids = []

    def probe_register(operator_public, tee_public, name):
        fleet_ids.append(f"drone-{len(fleet_ids) + 1:06d}")
        return fleet_ids[-1]

    fleet = provision_fleet(probe_register, drones=args.drones,
                            seed=args.seed, regions=args.drones)
    rng = random.Random(args.seed * 31 + 7)
    base = [build_flight_submission(drone, encryption_key.public_key,
                                    frame=frame, flight_index=0,
                                    samples=args.samples, start=T0 - 120.0,
                                    rng=rng)
            for drone in fleet]

    # Config sanity: the single shard must thrash, every shard must fit.
    probe = AuditorService(frame, shards=args.shards,
                           encryption_key=encryption_key)
    per_shard_records = [0] * args.shards
    for drone in fleet:
        per_shard_records[probe.shard_of(drone.drone_id)] += args.samples
    probe.close()
    working_set = args.drones * args.samples
    if working_set <= args.cache:
        raise SystemExit(f"config error: working set {working_set} fits the "
                         f"single shard's bound {args.cache}; nothing to "
                         "measure")
    if max(per_shard_records) > args.cache:
        raise SystemExit(f"config error: a shard holds "
                         f"{max(per_shard_records)} records, over the "
                         f"bound {args.cache}; the sharded arm would "
                         "thrash too")

    single = run_arm(1, args.cache, fleet, base, args.cycles,
                     encryption_key, frame)
    sharded = run_arm(args.shards, args.cache, fleet, base, args.cycles,
                      encryption_key, frame)
    speedup = sharded["submissions_per_s"] / single["submissions_per_s"]

    payload = {
        "config": {
            "drones": args.drones, "samples": args.samples,
            "cycles": args.cycles, "shards": args.shards,
            "cache_bound": args.cache, "key_bits": args.key_bits,
            "seed": args.seed, "smoke": args.smoke,
        },
        "working_set": {
            "records": working_set,
            "per_shard_records": per_shard_records,
            "single_shard_overflows": working_set > args.cache,
            "sharded_fits": max(per_shard_records) <= args.cache,
        },
        "single_shard": single,
        "sharded": sharded,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "floor_enforced": not args.smoke,
    }
    path = write_bench_json("service", payload, out_dir=args.out_dir)

    print(f"service bench: {args.drones} drones x {args.samples} records, "
          f"{args.cycles} warm cycle(s), C={args.cache}")
    for arm in (single, sharded):
        conf = arm["conformance"]
        p99 = arm["intake_p99_s"]
        print(f"  {arm['shards']} shard(s): "
              f"{arm['submissions_per_s']:8.1f} sub/s   "
              f"hit ratio {arm['payload_cache_hit_ratio']:5.1%}   "
              f"intake p99 {p99 * 1e3:6.2f} ms   "
              f"conformance {conf['rows']} row(s), "
              f"{len(conf['mismatches'])} mismatch(es)")
    print(f"  speedup {speedup:.2f}x "
          f"(floor {SPEEDUP_FLOOR}x{', not enforced' if args.smoke else ''})")
    print(f"  wrote {path}")

    failures = []
    for arm in (single, sharded):
        if arm["conformance"]["mismatches"]:
            failures.append(f"{arm['shards']}-shard arm diverged from the "
                            "reference verifier")
    if not args.smoke and speedup < SPEEDUP_FLOOR:
        failures.append(f"speedup {speedup:.2f}x below the "
                        f"{SPEEDUP_FLOOR}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
