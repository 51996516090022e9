"""Streaming-telemetry cost: sketch accuracy, window micro-costs, hot-path overhead.

Three measurements establish that the windowed telemetry layer
(:mod:`repro.obs.timeseries` / :mod:`repro.obs.hub`) is safe to leave on
in the audit hot path:

* **sketch accuracy at scale** — one million lognormal observations into
  a :class:`QuantileSketch`; p50/p99 must land within the documented
  relative-error bound ``alpha`` of the exact quantiles while the bucket
  count stays O(bins), far below the observation count.
* **micro-costs** — ns per ``QuantileSketch.observe``, per
  ``WindowedCounter.inc``, and per ``TelemetryHub.record_audit`` (the
  whole per-intake feed: one sketch observe + several counter marks).
* **interleaved A/B** — the same ``AuditEngine.audit_batch`` with no
  telemetry hub vs. with a live hub attached, best-of interleaved; the
  enabled path must cost < 3% (the telemetry-off path is a single
  ``None`` check and is covered by the disabled-tracer budget).

Runs standalone (``PYTHONPATH=src python benchmarks/bench_timeseries.py``)
or under pytest via ``test_timeseries_overhead``.
"""

from __future__ import annotations

import argparse
import random
import time

from _emit import write_bench_json
from bench_server_throughput import FRAME, build_workload
from repro.core.verification import PoaVerifier
from repro.obs.hub import TelemetryHub
from repro.obs.timeseries import QuantileSketch, WindowedCounter
from repro.server.engine import AuditEngine

ENABLED_BUDGET = 0.03  # acceptance: telemetry-on hot path costs < 3%
ACCURACY_N = 1_000_000


def sketch_accuracy(n: int = ACCURACY_N, seed: int = 7) -> dict:
    """Relative error of p50/p99 against exact quantiles of n lognormals."""
    rng = random.Random(seed)
    sketch = QuantileSketch()
    values = [rng.lognormvariate(0.0, 1.0) for _ in range(n)]
    start = time.perf_counter()
    for value in values:
        sketch.observe(value)
    observe_wall = time.perf_counter() - start
    values.sort()
    errors = {}
    for q in (0.50, 0.99):
        exact = values[round(q * (n - 1))]
        estimate = sketch.quantile(q)
        errors[f"p{int(q * 100)}"] = {
            "exact": exact, "estimate": estimate,
            "relative_error": abs(estimate - exact) / exact}
    return {
        "observations": n,
        "alpha": sketch.alpha,
        "bins": sketch.bins,
        "max_bins": sketch.max_bins,
        "observe_ns": observe_wall / n * 1e9,
        "quantiles": errors,
    }


def micro_costs(iterations: int = 200_000) -> dict:
    """ns per observe / inc / record_audit on warmed instruments."""
    sketch = QuantileSketch()
    start = time.perf_counter()
    for i in range(iterations):
        sketch.observe(0.001 + (i & 1023) * 1e-6)
    observe_ns = (time.perf_counter() - start) / iterations * 1e9

    counter = WindowedCounter()
    start = time.perf_counter()
    for i in range(iterations):
        counter.inc(now=i * 0.01)
    inc_ns = (time.perf_counter() - start) / iterations * 1e9

    hub = TelemetryHub()
    audits = max(iterations // 10, 1)
    start = time.perf_counter()
    for i in range(audits):
        hub.record_audit(seconds=0.002, status="accepted", samples=20,
                         now=i * 0.05)
    record_audit_ns = (time.perf_counter() - start) / audits * 1e9
    return {"sketch_observe_ns": observe_ns,
            "windowed_counter_inc_ns": inc_ns,
            "hub_record_audit_ns": record_audit_ns}


def make_engine(encryption_key, tee_keys, zones, *,
                telemetry: TelemetryHub | None) -> AuditEngine:
    return AuditEngine(
        PoaVerifier(FRAME),
        tee_key_lookup=lambda d: tee_keys[d].public_key,
        encryption_key=encryption_key,
        zones_provider=lambda: zones,
        telemetry=telemetry)


def run_ab(encryption_key, tee_keys, zones, submissions, *,
           repetitions: int) -> tuple[float, float, float]:
    """Best batch wall time without vs. with a telemetry hub attached."""
    best_off = best_on = float("inf")
    recorded = 0.0
    for _ in range(repetitions):
        engine = make_engine(encryption_key, tee_keys, zones, telemetry=None)
        result = engine.audit_batch(submissions, record_event=False)
        best_off = min(best_off, result.wall_time_s)

        hub = TelemetryHub()
        engine = make_engine(encryption_key, tee_keys, zones, telemetry=hub)
        result = engine.audit_batch(submissions, record_event=False)
        best_on = min(best_on, result.wall_time_s)
        recorded = hub.counter("audit.submissions").cumulative
    return best_off, best_on, recorded


def run_benchmark(n_submissions: int = 50, samples: int = 20,
                  key_bits: int = 512, repetitions: int = 5,
                  accuracy_n: int = ACCURACY_N) -> tuple[str, dict]:
    accuracy = sketch_accuracy(n=accuracy_n)
    micro = micro_costs()

    encryption_key, tee_keys, zones, submissions = build_workload(
        n_submissions=n_submissions, samples=samples, key_bits=key_bits)
    best_off, best_on, recorded = run_ab(
        encryption_key, tee_keys, zones, submissions,
        repetitions=repetitions)
    enabled_cost = best_on / best_off - 1.0

    p50 = accuracy["quantiles"]["p50"]
    p99 = accuracy["quantiles"]["p99"]
    lines = [
        f"Streaming telemetry — {n_submissions} submissions × {samples} "
        f"samples, RSA-{key_bits} (best of {repetitions}, interleaved)",
        "",
        f"sketch accuracy ({accuracy['observations']:,} obs, "
        f"alpha={accuracy['alpha']:g}):",
        f"  p50 rel. error              : {p50['relative_error']:.5f}",
        f"  p99 rel. error              : {p99['relative_error']:.5f}",
        f"  bins used                   : {accuracy['bins']} "
        f"(max {accuracy['max_bins']})",
        "",
        f"sketch observe                : {micro['sketch_observe_ns']:,.0f} ns",
        f"windowed counter inc          : "
        f"{micro['windowed_counter_inc_ns']:,.0f} ns",
        f"hub record_audit              : "
        f"{micro['hub_record_audit_ns']:,.0f} ns",
        "",
        f"batch wall, telemetry off     : {best_off:.3f} s",
        f"batch wall, telemetry on      : {best_on:.3f} s "
        f"({recorded:.0f} intakes recorded)",
        f"enabled overhead (measured)   : {enabled_cost:+.2%} "
        f"(budget {ENABLED_BUDGET:.0%})",
    ]
    payload = {
        "benchmark": "timeseries",
        "config": {"submissions": n_submissions, "samples": samples,
                   "key_bits": key_bits, "repetitions": repetitions},
        "sketch_accuracy": accuracy,
        "micro_costs_ns": micro,
        "batch_wall_disabled_s": best_off,
        "batch_wall_enabled_s": best_on,
        "intakes_recorded": recorded,
        "enabled_overhead_measured": enabled_cost,
        "enabled_overhead_budget": ENABLED_BUDGET,
    }
    return "\n".join(lines), payload


def test_timeseries_overhead(emit):
    """Pytest entry point: accuracy bound + enabled-path budget."""
    text, payload = run_benchmark(repetitions=3)
    emit(text)
    write_bench_json("timeseries", payload)
    accuracy = payload["sketch_accuracy"]
    assert accuracy["bins"] <= accuracy["max_bins"]
    for entry in accuracy["quantiles"].values():
        assert entry["relative_error"] <= accuracy["alpha"]
    assert payload["intakes_recorded"] > 0
    assert payload["enabled_overhead_measured"] < ENABLED_BUDGET


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--submissions", type=int, default=50)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--key-bits", type=int, default=512)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--accuracy-n", type=int, default=ACCURACY_N)
    args = parser.parse_args()
    text, payload = run_benchmark(
        n_submissions=args.submissions, samples=args.samples,
        key_bits=args.key_bits, repetitions=args.repetitions,
        accuracy_n=args.accuracy_n)
    print(text)
    path = write_bench_json("timeseries", payload)
    print(f"\nmachine-readable result -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
