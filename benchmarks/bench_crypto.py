"""Micro-benchmarks of the crypto substrate (supports Table II).

Measures this machine's RSA sign/verify/encrypt costs at the paper's two
key sizes.  The absolute numbers differ from the Raspberry Pi, but the
2048/1024 sign-cost *ratio* should land near the ~5.1x that Table II
implies — that is the cross-check for the calibrated cost model.

The keygen benchmarks time one proven-prime RSA keypair per round at the
fleet (512, two primes), auditor (1024, n = p²q) and paper-maximum (2048,
n = p²q) sizes, and check each key's shape.

The scheme flight profile additionally compares the three sample-
authentication backends end to end over a 100-sample flight: per-sample
RSA pays one private-key operation per fix, the batch and hash-chain
schemes amortize the flight down to one or two.
"""

from __future__ import annotations

import itertools
import random
import time

from _emit import merge_bench_json
from repro.crypto.hmac_sign import generate_hmac_key, hmac_sign
from repro.crypto.pkcs1 import (
    decrypt_pkcs1_v15,
    encrypt_pkcs1_v15,
    sign_pkcs1_v15,
    verify_pkcs1_v15,
)
from repro.crypto.primes import is_probable_prime
from repro.crypto.rsa import MULTI_POWER_MIN_BITS, generate_rsa_keypair
from repro.crypto.schemes import (
    SCHEME_BATCH,
    SCHEME_CHAIN,
    SCHEME_RSA,
    get_scheme,
)

PAYLOAD = b"\x00" * 36  # one canonical GPS sample payload

FLIGHT_SAMPLES = 100


def _keygen(benchmark, bits: int) -> None:
    """One keypair per round, each from a fresh rng on the next seed."""
    seeds = itertools.count(bits)
    key = benchmark(lambda: generate_rsa_keypair(
        bits, rng=random.Random(next(seeds))))
    assert key.bits == bits
    assert all(is_probable_prime(p) for p in key.primes)
    assert key.p != key.q
    if bits >= MULTI_POWER_MIN_BITS:
        assert key.r == key.p and key.n == key.p ** 2 * key.q
    else:
        assert key.r is None and key.n == key.p * key.q


def test_keygen_512(benchmark):
    _keygen(benchmark, 512)


def test_keygen_1024(benchmark):
    _keygen(benchmark, 1024)


def test_keygen_2048(benchmark):
    _keygen(benchmark, 2048)


def test_sign_1024(benchmark, rsa_1024):
    benchmark(sign_pkcs1_v15, rsa_1024, PAYLOAD)


def test_sign_2048(benchmark, rsa_2048):
    benchmark(sign_pkcs1_v15, rsa_2048, PAYLOAD)


def test_verify_1024(benchmark, rsa_1024):
    signature = sign_pkcs1_v15(rsa_1024, PAYLOAD)
    result = benchmark(verify_pkcs1_v15, rsa_1024.public_key, PAYLOAD,
                       signature)
    assert result


def test_encrypt_1024(benchmark, rsa_1024):
    rng = random.Random(3)
    benchmark(encrypt_pkcs1_v15, rsa_1024.public_key, PAYLOAD, rng)


def test_decrypt_1024(benchmark, rsa_1024):
    ciphertext = encrypt_pkcs1_v15(rsa_1024.public_key, PAYLOAD,
                                   rng=random.Random(3))
    assert benchmark(decrypt_pkcs1_v15, rsa_1024, ciphertext) == PAYLOAD


def test_hmac_sign(benchmark):
    key = generate_hmac_key(random.Random(4))
    benchmark(hmac_sign, key, PAYLOAD)


def _flight_payloads(n: int = FLIGHT_SAMPLES) -> list[bytes]:
    rng = random.Random(0xF11F)
    return [rng.randbytes(36) for _ in range(n)]


def _profile_scheme(scheme_id: str, key, rounds: int = 5) -> dict:
    """Cold-path sign + verify timings for one scheme over one flight.

    "Cold" means each round builds a fresh signer (so the chained
    scheme's commitment signature and the batch scheme's buffering are
    *inside* the measurement) and verifies from a fresh scheme lookup —
    no caches survive between rounds.
    """
    scheme = get_scheme(scheme_id)
    payloads = _flight_payloads()
    sign_s = verify_s = 0.0
    wire_bytes = 0
    for round_index in range(rounds):
        rng = random.Random(0xC0FFEE + round_index)
        start = time.perf_counter()
        signer = scheme.new_signer(key, rng=rng)
        blobs = [signer.sign_sample(p) for p in payloads]
        finalizer = signer.finalize_flight()
        sign_s += time.perf_counter() - start

        entries = list(zip(payloads, blobs))
        start = time.perf_counter()
        bad = scheme.verify(key.public_key, entries, finalizer)
        verify_s += time.perf_counter() - start
        assert bad == []
        wire_bytes = scheme.wire_bytes(entries, finalizer)
    return {
        "samples": len(payloads),
        "sign_flight_s": sign_s / rounds,
        "verify_flight_s": verify_s / rounds,
        "sign_throughput_sps": len(payloads) / (sign_s / rounds),
        "verify_throughput_sps": len(payloads) / (verify_s / rounds),
        "auth_bytes_per_flight": wire_bytes,
    }


def test_scheme_flight_profile(rsa_1024, emit):
    """Amortized schemes must beat per-sample RSA >= 5x on the cold path."""
    rows = {scheme_id: _profile_scheme(scheme_id, rsa_1024)
            for scheme_id in (SCHEME_RSA, SCHEME_BATCH, SCHEME_CHAIN)}

    def total(scheme_id: str) -> float:
        return (rows[scheme_id]["sign_flight_s"]
                + rows[scheme_id]["verify_flight_s"])

    speedups = {scheme_id: total(SCHEME_RSA) / total(scheme_id)
                for scheme_id in (SCHEME_BATCH, SCHEME_CHAIN)}

    lines = [f"Sample-authentication schemes, {FLIGHT_SAMPLES}-sample "
             "flight, RSA-1024 (cold path)"]
    for scheme_id, row in rows.items():
        lines.append(
            f"  {scheme_id:<10}: sign {row['sign_flight_s'] * 1e3:8.2f} ms"
            f"  verify {row['verify_flight_s'] * 1e3:7.2f} ms"
            f"  wire {row['auth_bytes_per_flight']:6d} B"
            + (f"  speedup {speedups[scheme_id]:.1f}x"
               if scheme_id in speedups else ""))
    emit("\n".join(lines))

    merge_bench_json("crypto", {"scheme_flight_profile": {
        "key_bits": 1024,
        "samples_per_flight": FLIGHT_SAMPLES,
        "schemes": rows,
        "speedup_vs_rsa_v15": speedups,
    }})

    assert speedups[SCHEME_CHAIN] >= 5.0, (
        f"hash-chain only {speedups[SCHEME_CHAIN]:.1f}x over per-sample RSA")
    assert speedups[SCHEME_BATCH] >= 5.0, (
        f"rsa-batch only {speedups[SCHEME_BATCH]:.1f}x over per-sample RSA")


def test_sign_cost_ratio_matches_table2(benchmark, rsa_1024, rsa_2048, emit):
    """The 2048/1024 ratio should match the Table-II-derived ~5.1x."""

    def measure(key, n=40):
        start = time.perf_counter()
        for _ in range(n):
            sign_pkcs1_v15(key, PAYLOAD)
        return (time.perf_counter() - start) / n

    t1024 = benchmark.pedantic(lambda: measure(rsa_1024), rounds=1,
                               iterations=1)
    t2048 = measure(rsa_2048)
    ratio = t2048 / t1024
    emit("Table II cross-check: RSA sign cost ratio (2048/1024 bits)\n"
         f"  this machine : {ratio:.2f}x "
         f"({t1024 * 1e3:.2f} ms vs {t2048 * 1e3:.2f} ms)\n"
         f"  paper-derived: 5.10x (43.4 ms vs 221.5 ms on the Pi)")
    assert 3.0 < ratio < 8.0
