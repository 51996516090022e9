"""Observability overhead: what tracing costs when it is off (and on).

The ``repro.obs`` tracer is wired into every hot path — SMC dispatch, TA
signing, stage verification, batch audit — so its *disabled* cost has to
be provably negligible.  Two measurements establish that on the
``bench_server_throughput`` workload:

* **noop microbenchmark** — the cost of one disabled span site
  (``get_tracer()`` lookup + no-op context manager), multiplied by the
  number of span sites a batch audit crosses, expressed as a fraction of
  the batch wall time.  This bounds the disabled overhead analytically.
* **interleaved A/B** — the same ``AuditEngine.audit_batch`` run with the
  default noop tracer vs. a live ``Tracer``, best-of interleaved, which
  shows what *enabled* tracing costs end to end.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``)
or under pytest via ``test_obs_overhead``, which asserts the estimated
disabled overhead stays under the 2% budget.
"""

from __future__ import annotations

import argparse
import time

from _emit import write_bench_json
from bench_server_throughput import build_workload, make_engine
from repro.obs import Tracer, get_tracer, use_tracer

DISABLED_BUDGET = 0.02  # acceptance: disabled-tracer cost < 2%


def noop_span_cost(iterations: int = 100_000) -> float:
    """Seconds per disabled span site: tracer lookup + no-op context."""
    start = time.perf_counter()
    for _ in range(iterations):
        with get_tracer().span("bench.noop", probe=1):
            pass
    return (time.perf_counter() - start) / iterations


def span_sites_per_batch(n_submissions: int) -> int:
    """Span sites one ``audit_batch`` crosses with screening on.

    One ``audit_batch`` root, then per submission: one ``audit.submission``
    span and the six verification-stage spans of the staged pipeline.
    """
    return 1 + n_submissions * (1 + 6)


def run_ab(encryption_key, tee_keys, zones, submissions, *,
           repetitions: int) -> tuple[float, float, int]:
    """Best wall time disabled vs. enabled, interleaved per round."""
    best_off = best_on = float("inf")
    spans = 0
    for _ in range(repetitions):
        engine = make_engine(encryption_key, tee_keys, zones)
        result = engine.audit_batch(submissions, record_event=False)
        best_off = min(best_off, result.wall_time_s)

        tracer = Tracer()
        with use_tracer(tracer):
            engine = make_engine(encryption_key, tee_keys, zones)
            result = engine.audit_batch(submissions, record_event=False)
        best_on = min(best_on, result.wall_time_s)
        spans = len(tracer.spans)
    return best_off, best_on, spans


def run_benchmark(n_submissions: int = 50, samples: int = 20,
                  key_bits: int = 512,
                  repetitions: int = 5) -> tuple[str, dict]:
    encryption_key, tee_keys, zones, submissions = build_workload(
        n_submissions=n_submissions, samples=samples, key_bits=key_bits)

    per_site = noop_span_cost()
    sites = span_sites_per_batch(n_submissions)
    best_off, best_on, spans = run_ab(
        encryption_key, tee_keys, zones, submissions,
        repetitions=repetitions)
    est_disabled = per_site * sites / best_off
    enabled_cost = best_on / best_off - 1.0

    lines = [
        f"Tracing overhead — {n_submissions} submissions × {samples} "
        f"samples, RSA-{key_bits} (best of {repetitions}, interleaved)",
        "",
        f"noop span site                : {per_site * 1e9:,.0f} ns",
        f"span sites per batch          : {sites}",
        f"batch wall, tracer disabled   : {best_off:.3f} s",
        f"batch wall, tracer enabled    : {best_on:.3f} s "
        f"({spans} spans captured)",
        "",
        f"disabled overhead (estimated) : {est_disabled:.4%} "
        f"(budget {DISABLED_BUDGET:.0%})",
        f"enabled overhead (measured)   : {enabled_cost:+.2%}",
    ]
    payload = {
        "benchmark": "obs_overhead",
        "config": {"submissions": n_submissions, "samples": samples,
                   "key_bits": key_bits, "repetitions": repetitions},
        "noop_span_cost_ns": per_site * 1e9,
        "span_sites_per_batch": sites,
        "batch_wall_disabled_s": best_off,
        "batch_wall_enabled_s": best_on,
        "spans_captured": spans,
        "disabled_overhead_estimated": est_disabled,
        "disabled_overhead_budget": DISABLED_BUDGET,
        "enabled_overhead_measured": enabled_cost,
    }
    return "\n".join(lines), payload


def test_obs_overhead(emit):
    """Pytest entry point: asserts the disabled cost stays in budget."""
    text, payload = run_benchmark(repetitions=3)
    emit(text)
    write_bench_json("obs_overhead", payload)
    assert payload["disabled_overhead_estimated"] < DISABLED_BUDGET
    assert payload["spans_captured"] > 0


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
    path = write_bench_json("obs_overhead", payload)
    print(f"\nmachine-readable result -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
