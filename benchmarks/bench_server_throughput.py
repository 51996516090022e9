"""Server-side batch audit throughput: serial seed path vs. AuditEngine.

Measures submissions/second on a synthetic 50-submission batch in three
arms, interleaved, each of which must reach the same verdicts:

* the **serial seed path** — ``decrypt_poa`` + ``PoaVerifier.verify`` one
  submission at a time, exactly what ``AliDroneServer.receive_poa`` did
  before the engine existed;
* the **cold engine** (``AuditEngine.audit_batch`` on a fresh engine),
  which adds BGR signature screening and projection caching;
* the **warm engine**, whose payload cache already holds every record, so
  no submission pays its key unwrap.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_server_throughput.py``)
or under pytest via ``test_server_throughput``.
"""

from __future__ import annotations

import argparse
import random
import time

from _emit import write_bench_json
from repro.core.nfz import NoFlyZone
from repro.core.poa import ProofOfAlibi, SignedSample, decrypt_poa, encrypt_poa
from repro.core.protocol import PoaSubmission
from repro.core.samples import GpsSample
from repro.core.verification import PoaVerifier
from repro.crypto.pkcs1 import sign_pkcs1_v15
from repro.crypto.rsa import generate_rsa_keypair
from repro.geo.geodesy import GeoPoint, LocalFrame
from repro.server.engine import AuditEngine

FRAME = LocalFrame(GeoPoint(40.10, -88.22))
T0 = 1_700_000_000.0


def build_workload(n_submissions: int = 50, samples: int = 20,
                   n_drones: int = 5, key_bits: int = 512, seed: int = 7):
    """Honest walking traces, encrypted and signed like real intake."""
    rng = random.Random(seed)
    encryption_key = generate_rsa_keypair(key_bits, rng=random.Random(seed + 1))
    center = FRAME.to_geo(0.0, 0.0)
    zones = [NoFlyZone(center.lat, center.lon, 50.0)]
    tee_keys = {f"drone-{i:03d}": generate_rsa_keypair(
        key_bits, rng=random.Random(1000 + i)) for i in range(n_drones)}

    submissions: list[PoaSubmission] = []
    for j in range(n_submissions):
        drone_id = f"drone-{j % n_drones:03d}"
        tee_key = tee_keys[drone_id]
        start = T0 + 1000.0 * j
        entries = []
        for k in range(samples):
            point = FRAME.to_geo(200.0 + 20.0 * k + rng.uniform(0.0, 5.0),
                                 10.0 * (j % 7))
            sample = GpsSample(lat=point.lat, lon=point.lon, t=start + k)
            payload = sample.to_signed_payload()
            entries.append(SignedSample(
                payload=payload, signature=sign_pkcs1_v15(tee_key, payload)))
        poa = ProofOfAlibi(entries)
        records = encrypt_poa(poa, encryption_key.public_key, rng=rng)
        submissions.append(PoaSubmission(
            drone_id=drone_id, flight_id=f"flight-{j}", records=records,
            claimed_start=start, claimed_end=start + samples - 1))
    return encryption_key, tee_keys, zones, submissions


def run_serial_seed_path(encryption_key, tee_keys, zones, submissions):
    """The pre-engine intake loop: decrypt + verify one at a time."""
    verifier = PoaVerifier(FRAME)
    start = time.perf_counter()
    reports = []
    for submission in submissions:
        poa = decrypt_poa(submission.records, encryption_key)
        tee_key = tee_keys[submission.drone_id].public_key
        reports.append(verifier.verify(poa, tee_key, zones))
    return reports, time.perf_counter() - start


def make_engine(encryption_key, tee_keys, zones) -> AuditEngine:
    return AuditEngine(
        PoaVerifier(FRAME),
        tee_key_lookup=lambda d: tee_keys[d].public_key,
        encryption_key=encryption_key,
        zones_provider=lambda: zones)


def run_engine(encryption_key, tee_keys, zones, submissions):
    """A fresh engine per run so caches start cold (fair vs. the seed)."""
    engine = make_engine(encryption_key, tee_keys, zones)
    result = engine.audit_batch(submissions, record_event=False)
    return result.reports, result.wall_time_s


def best_of_interleaved(runners: dict, repetitions: int = 5):
    """Best wall time per variant, with variants interleaved per round.

    Interleaving (A B C, A B C, ...) instead of (A A A, B B B, ...) keeps
    slow drift on shared hosts — CPU steal, thermal throttling — from
    biasing whichever variant happened to run during a bad window.
    """
    reports: dict[str, list] = {}
    best: dict[str, float] = {}
    for _ in range(repetitions):
        for label, runner in runners.items():
            got, seconds = runner()
            statuses = [r.status for r in got]
            if label in reports:
                assert statuses == reports[label]
            else:
                reports[label] = statuses
            best[label] = min(best.get(label, float("inf")), seconds)
    first = next(iter(reports.values()))
    assert all(statuses == first for statuses in reports.values())
    return best


def render(n_submissions: int, samples: int, key_bits: int,
           rows: list[tuple[str, float]], baseline: float,
           repetitions: int) -> str:
    lines = [
        f"Batch audit throughput — {n_submissions} submissions × "
        f"{samples} samples, RSA-{key_bits} "
        f"(best of {repetitions}, interleaved)",
        "",
        f"{'full intake (decrypt + verify)':<38}{'wall (s)':>10}"
        f"{'subs/s':>10}{'speedup':>9}",
    ]
    for label, seconds in rows:
        lines.append(f"{label:<38}{seconds:>10.3f}"
                     f"{n_submissions / seconds:>10.1f}"
                     f"{baseline / seconds:>8.2f}x")
    return "\n".join(lines)


def build_payload(n_submissions: int, samples: int, key_bits: int,
                  repetitions: int, intake_best: dict[str, float]) -> dict:
    """The machine-readable result: config, timings, speedups."""
    seed_s = intake_best["serial seed path"]
    return {
        "benchmark": "server_throughput",
        "config": {"submissions": n_submissions, "samples": samples,
                   "key_bits": key_bits, "repetitions": repetitions},
        "full_intake": {
            label: {"wall_s": seconds,
                    "submissions_per_second": n_submissions / seconds,
                    "speedup_vs_serial": seed_s / seconds}
            for label, seconds in intake_best.items()},
    }


def run_benchmark(n_submissions: int = 50, samples: int = 20,
                  key_bits: int = 512,
                  repetitions: int = 5) -> tuple[str, dict]:
    encryption_key, tee_keys, zones, submissions = build_workload(
        n_submissions=n_submissions, samples=samples, key_bits=key_bits)

    # A persistent engine whose payload cache is warmed by its first audit:
    # the re-audit scenario (duplicate records cost no RSAES work).
    warm_engine = make_engine(encryption_key, tee_keys, zones)
    warm_engine.audit_batch(submissions, record_event=False)

    def run_warm():
        result = warm_engine.audit_batch(submissions, record_event=False)
        return result.reports, result.wall_time_s

    intake_best = best_of_interleaved({
        "serial seed path": lambda: run_serial_seed_path(
            encryption_key, tee_keys, zones, submissions),
        "engine, cold caches": lambda: run_engine(
            encryption_key, tee_keys, zones, submissions),
        "engine, warm payload cache": run_warm,
    }, repetitions)
    seed_s = intake_best["serial seed path"]

    text = render(n_submissions, samples, key_bits,
                  list(intake_best.items()), seed_s, repetitions)
    payload = build_payload(n_submissions, samples, key_bits, repetitions,
                            intake_best)
    return text, payload


def test_server_throughput(emit):
    """Pytest entry point: renders the table and writes the JSON artefact."""
    text, payload = run_benchmark()
    emit(text)
    write_bench_json("server_throughput", payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--submissions", type=int, default=50)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--key-bits", type=int, default=512)
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()
    text, payload = run_benchmark(
        n_submissions=args.submissions, samples=args.samples,
        key_bits=args.key_bits, repetitions=args.repetitions)
    print(text)
    path = write_bench_json("server_throughput", payload)
    print(f"\nmachine-readable result -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
