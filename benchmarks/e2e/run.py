#!/usr/bin/env python3
"""End-to-end auditor benchmark: four workloads, one command.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload steady-rsa20 --seed 1 \
        --seconds 10 --trace 0

``--workload all`` runs the four in turn; ``--trace 1`` (or bare
``--trace``) reports the per-layer metrics instead of the end-to-end
ones; ``--smoke`` shrinks every workload to a few arrivals;
``--write-baseline`` runs all four untraced and traced and writes
``benchmarks/e2e/baseline.json``.  See ``benchmarks/e2e/README.md``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed; 2 means the program under test could
not be imported (no ``src/`` beside this checkout).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3
#: Restart recovers this many prefilled stores.  Traced, the stores
#: alternate reference and traced in Thue-Morse order (ABBA BAAB ...),
#: which cancels slow drift.
REPLAY_ORDER = tuple(bin(i).count("1") % 2 == 1 for i in range(16))

END_TO_END_UNITS = {
    "setup_s": "s",
    "audit_capacity_sps": "1/s",
    "verdict_latency_p50_ms": "ms",
    "verdict_latency_p99_ms": "ms",
    "drone_prepare_p50_ms": "ms",
    "uplink_bytes_per_flight": "bytes",
    "honest_goodput_ratio": "ratio",
}


def import_program():
    """Import the checkout's ``repro`` package, or exit 2 without a result."""
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test from {SRC}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def per_layer_units() -> dict[str, str]:
    from probe import AUDITOR_LAYERS, DRONE_LAYERS, OTHER
    units = {}
    for layer in (*DRONE_LAYERS, *AUDITOR_LAYERS):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units[f"{OTHER}.self_s"] = "s"
    units[f"{OTHER}.share"] = "ratio"
    units.update({
        "drone.busy_s": "s",
        "auditor.busy_s": "s",
        "crypto.rsa.drone_private_ops_per_flight": "count",
        "crypto.rsa.auditor_private_ops_per_submission": "count",
        "server.admission.denied_ratio": "ratio",
        "server.store.dedup_ratio": "ratio",
        "server.engine.payload_cache_hit_ratio": "ratio",
        "geo.proximity.candidates_per_query": "count",
        "server.service.intake_wait.p99_ms": "ms",
        "server.service.queue_wait.p50_ms": "ms",
        "server.service.queue_wait.p99_ms": "ms",
        "server.service.queue_depth_max": "count",
        "server.service.drain.batch_mean": "count",
        "trace_overhead_ratio": "ratio",
    })
    return units


# --- one workload ------------------------------------------------------------

def _interleave(passes) -> None:
    """Advance (generator, probe) passes in alternating wall-time slices."""
    done = object()
    live = list(passes)
    while live:
        for item in list(live):
            loop, probe = item
            if _installed(probe, lambda: next(loop, done)) is done:
                live.remove(item)


def _service_counters(service) -> dict[str, float]:
    stats = service.stats
    admission = service.admission
    decided = (admission.stats.admitted + admission.stats.denied
               if admission is not None else 0)
    hits = sum(e.payload_cache_hits for e in service.engines)
    lookups = hits + sum(e.payload_cache_misses for e in service.engines)
    queries = sum(e.zone_index_stats.queries for e in service.engines)
    candidates = sum(e.zone_index_stats.candidates for e in service.engines)
    stored = stats.accepted + stats.deduplicated
    return {
        "server.admission.denied_ratio":
            admission.stats.denied / decided if decided else 0.0,
        "server.store.dedup_ratio":
            stats.deduplicated / stored if stored else 0.0,
        "server.engine.payload_cache_hit_ratio":
            hits / lookups if lookups else 0.0,
        "geo.proximity.candidates_per_query":
            candidates / queries if queries else 0.0,
    }


def per_layer_metrics(traced: list, references: list, probe,
                      profile) -> dict[str, float]:
    """Per-layer values from the traced passes (and their references)."""
    from probe import DRONE_LAYERS, OTHER
    busy = profile["busy_s"]
    values: dict[str, float] = {}
    for layer, entry in profile["layers"].items():
        base = busy["drone"] if layer in DRONE_LAYERS else busy["auditor"]
        if layer != OTHER:
            values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.share"] = entry["self_s"] / base if base else 0.0
    values["drone.busy_s"] = busy["drone"]
    values["auditor.busy_s"] = busy["auditor"]
    first, last = traced[0], traced[-1]
    flights = sum(len(p.prepare_s) for p in traced)
    verdicts = sum(p.verdicts for p in traced)
    values["crypto.rsa.drone_private_ops_per_flight"] = (
        probe.private_ops["drone"] / flights if flights else 0.0)
    values["crypto.rsa.auditor_private_ops_per_submission"] = (
        probe.private_ops["auditor"] / verdicts if verdicts else 0.0)
    values.update(_service_counters(last.service))
    values["server.service.intake_wait.p99_ms"] = 1e3 * percentile(
        first.intake_waits_s, 0.99)
    values["server.service.queue_wait.p50_ms"] = 1e3 * percentile(
        first.queue_waits_s, 0.50)
    values["server.service.queue_wait.p99_ms"] = 1e3 * percentile(
        first.queue_waits_s, 0.99)
    values["server.service.queue_depth_max"] = first.queue_depth_max
    values["server.service.drain.batch_mean"] = (
        verdicts / profile["drains"] if profile["drains"] else 0.0)
    values["trace_overhead_ratio"] = (
        sum(p.busy_s for p in traced) / sum(p.busy_s for p in references)
        - 1.0)
    return values


def end_to_end_metrics(setup_s: float, result, gated) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "audit_capacity_sps": result.verdicts / result.busy_s,
        "verdict_latency_p50_ms": 1e3 * percentile(result.latencies_s, 0.50),
        "verdict_latency_p99_ms": 1e3 * percentile(result.latencies_s, 0.99),
        "drone_prepare_p50_ms": 1e3 * statistics.median(result.prepare_s),
        "uplink_bytes_per_flight": statistics.fmean(result.wire_bytes),
        "honest_goodput_ratio": gated.honest_goodput_ratio,
    }


def _open_loop_arrivals(workload, primary, seed: int, count: int) -> list:
    """Honest uploads at the workload's instants, merged with hostile ones."""
    import workloads as wl

    instants = wl.schedule(workload, count)
    arrivals = wl.honest_arrivals(workload, primary, seed, instants)
    if workload.adversary_rate_hz or workload.flood_burst_per_s:
        duration = max(3.0, math.ceil(instants[-1] - wl.T0))
        arrivals = wl.merge(arrivals, wl.hostile_arrivals(
            workload, primary, seed, duration))
    return arrivals


def _open_loop_passes(primary, spare, arrivals, speed,
                      probe) -> tuple[list, list]:
    """Drive the open loop; traced: reference and traced in alternation."""
    import driver

    reference = driver.PassResult(service=primary.service)
    if probe is None:
        for _ in driver.open_loop(reference, arrivals, speed):
            pass
        return [reference], []
    traced = driver.PassResult(service=spare.service)
    _interleave([(driver.open_loop(reference, arrivals, speed), None),
                 (driver.open_loop(traced, arrivals, speed, probe), probe)])
    return [traced], [reference]


def _restart_replays(workload, primary, zones, seed: int, count: int, speed,
                     probe, work_dir: pathlib.Path) -> tuple[list, list]:
    """Prefill ``count`` submissions over one store per ``REPLAY_ORDER``
    entry, close them unaudited, then reopen and recover each.

    Each store starts as a copy of the freshly registered deployment and
    holds every ``len(REPLAY_ORDER)``-th arrival, so all see the same
    mix.  Replaying many small stores lets host-speed references run
    between recoveries and gives the latency percentiles one sample per
    store.  Traced, the stores alternate
    reference and traced in ``REPLAY_ORDER`` (``recover()`` is one call,
    so the two cannot alternate inside it), and a traced store's prefill
    is traced too, for its drone-side spans.
    Returns ``(traced?, pass)`` per store and those drone-side spans.
    """
    import driver
    import workloads as wl
    from probe import Probe, drone_trees

    count = max(count, 2 * len(REPLAY_ORDER))
    adversaries = round(count * workload.adversary_share)
    arrivals = wl.merge(
        wl.honest_arrivals(workload, primary, seed,
                           wl.schedule(workload, count - adversaries)),
        wl.adversary_prefill(workload, primary, seed, adversaries))
    primary.service.close()
    order = REPLAY_ORDER if probe is not None else (False,) * len(
        REPLAY_ORDER)
    prefill_probe = None
    if probe is not None:
        prefill_probe = Probe()
        # Drone-side RSA ops land in the run's counters.
        prefill_probe.private_ops = probe.private_ops
    stores = []
    for index, traced_pass in enumerate(order):
        path = str(work_dir / f"replay-{index}.db")
        shutil.copyfile(primary.store_path, path)
        service = wl.open_service(workload, path, primary.encryption_key,
                                  zones)
        active = prefill_probe if traced_pass else None
        try:
            stores.append((traced_pass, path, _installed(
                active, lambda: driver.prefill(
                    service, arrivals[index::len(order)], speed, active))))
        finally:
            service.close()
    replays = []
    for traced_pass, path, filled in stores:
        active = probe if traced_pass else None
        replays.append((traced_pass, _installed(
            active, lambda: driver.restart_pass(
                workload, path, primary.encryption_key, zones, filled,
                speed, active))))
    drone_spans = (drone_trees(prefill_probe.tracer.spans)
                   if prefill_probe is not None else [])
    return replays, drone_spans


def _installed(probe, work):
    """Run ``work()`` with ``probe`` installed (when there is one)."""
    if probe is None:
        return work()
    probe.install()
    try:
        return work()
    finally:
        probe.uninstall()


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: pathlib.Path) -> dict:
    """Set up, drive, gate and measure one workload; returns its report."""
    import driver
    import workloads as wl
    from hostspeed import HostSpeed
    from probe import Probe, layer_profile, write_spans

    workload = wl.WORKLOADS[name]
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    speed = HostSpeed()
    deployments = []
    passes = []
    try:
        harness_start = time.perf_counter()
        zones = wl.build_zones(workload, seed, smoke)
        harness_s = time.perf_counter() - harness_start

        setup_times = []
        for rep in range(2 if smoke else SETUP_REPEATS):
            path = (str(work_dir / f"store-{rep}.db") if workload.durable
                    else ":memory:")
            deployment, elapsed = speed.timed_call(
                lambda: wl.deploy(workload, seed, path, zones, smoke))
            deployments.append(deployment)
            setup_times.append(elapsed)
        setup_s = statistics.median(setup_times)

        # A traced open loop runs a reference and a traced pass over the
        # same arrivals; they share the budget.
        count = wl.arrival_count(
            workload, seconds / 2 if trace and not workload.restart
            else seconds, smoke)
        probe = Probe() if trace else None
        if not workload.restart:
            started = time.perf_counter()
            arrivals = _open_loop_arrivals(workload, deployments[0], seed,
                                           count)
            harness_s += time.perf_counter() - started
        started = time.perf_counter()
        drone_spans = []
        if workload.restart:
            # The prefill is harness work, but it is where the drone side
            # runs, so it is timed with the rest.
            replays, drone_spans = _restart_replays(
                workload, deployments[0], zones, seed, count, speed, probe,
                work_dir)
            checked = [p for _, p in replays]
            references = [p for traced, p in replays if not traced]
            reported = ([p for traced, p in replays if traced] if trace
                        else [driver.pooled(checked)])
        else:
            reported, references = _open_loop_passes(
                deployments[0], deployments[1], arrivals, speed, probe)
            checked = reported
        passes = [*checked, *references]
        measured_s = time.perf_counter() - started
        result = reported[-1]
        gated = driver.gate(checked, deployments[0].encryption_key, zones)
        trace_details = {}
        if trace:
            spans = drone_spans + list(probe.tracer.spans)
            profile = layer_profile(spans)
            metrics = per_layer_metrics(reported, references, probe, profile)
            units = per_layer_units()
            trace_details = {
                "spans_written": write_spans(
                    spans, out_dir / f"spans-{name}.jsonl",
                    {flight: seq for p in reported
                     for flight, seq in p.seq_of_flight.items()}),
                "layer_self_sum_s": profile["drone_glue_s"] + sum(
                    e["self_s"] for e in profile["layers"].values()),
                "root_busy_s": sum(profile["busy_s"].values()),
            }
        else:
            metrics = end_to_end_metrics(setup_s, result, gated)
            units = END_TO_END_UNITS
    finally:
        for owner in (*deployments, *passes):
            owner.service.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    return {
        "correct": gated.failed == 0,
        "attempted": gated.attempted,
        "failed": gated.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()},
        "details": {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke,
            "offered_rate_hz": workload.rate_hz,
            "arrivals": len(result.intakes),
            "latency_samples": len(result.latencies_s),
            "verdicts": result.verdicts,
            "virtual_s": result.virtual_s,
            "auditor_busy_s": result.busy_s,
            "recovery_s": result.busy_s if workload.restart else None,
            "harness_s": harness_s,
            "measured_s": measured_s,
            "setup_runs_s": setup_times,
            # Wall time is about this many times the reported times.
            "host_slowdown": speed.run_slowdown(),
            "host_references": len(speed.costs),
            "false_accepts": gated.false_accepts,
            "honest_submitted": gated.honest_submitted,
            "conformance_rows": gated.conformance_rows,
            "conformance_mismatches": gated.conformance_mismatches,
            "failures": gated.failures[:20],
            **trace_details,
        },
    }


# --- command line ------------------------------------------------------------

def result_line(report: dict) -> dict:
    """The driver-facing result: exactly the four contract keys."""
    return {key: report[key]
            for key in ("correct", "attempted", "failed", "metrics")}


def print_report(report: dict) -> None:
    details = report["details"]
    name = details["workload"]
    for metric, entry in report["metrics"].items():
        print(f"{name:16s} {metric:48s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{name:16s} attempted={report['attempted']} "
          f"failed={report['failed']} "
          f"false_accepts={details['false_accepts']} "
          f"conformance={details['conformance_rows']} rows/"
          f"{details['conformance_mismatches']} mismatches "
          f"latency_samples={details['latency_samples']} "
          f"harness_s={details['harness_s']:.2f} "
          f"measured_s={details['measured_s']:.2f}")
    for failure in details["failures"]:
        print(f"{name:16s} FAIL {failure}", file=sys.stderr)


def combine(reports: list[dict]) -> dict:
    """One result for ``--workload all``: metrics keyed ``<workload>.<name>``."""
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {f"{r['details']['workload']}.{key}": entry
                    for r in reports for key, entry in r["metrics"].items()},
    }


def write_baseline(path: pathlib.Path, seed: int, seconds: float,
                   out_dir: pathlib.Path, names) -> bool:
    sys.path.insert(0, str(HERE.parent))
    from _emit import bench_meta
    baseline = {"meta": bench_meta(), "seed": seed, "seconds": seconds,
                "workloads": {}}
    ok = True
    for trace in (False, True):
        for name in names:
            report = run_workload(name, seed=seed, seconds=seconds,
                                  trace=trace, smoke=False, out_dir=out_dir)
            print_report(report)
            ok &= report["correct"]
            entry = baseline["workloads"].setdefault(name, {})
            entry["traced" if trace else "untraced"] = {
                **result_line(report), "details": report["details"]}
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured budget per workload; sizes the "
                             "arrival count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="a few arrivals per workload (shape checks)")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out",
                        help="directory for result JSON, spans and stores")
    parser.add_argument("--write-baseline", action="store_true",
                        help="run all workloads untraced and traced and "
                             "write benchmarks/e2e/baseline.json")
    args = parser.parse_args(argv)
    import_program()
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of "
                     f"{', '.join(wl.WORKLOADS)} or 'all'")
    args.out.mkdir(parents=True, exist_ok=True)
    if args.write_baseline:
        ok = write_baseline(HERE / "baseline.json", args.seed, args.seconds,
                            args.out, names)
        return 0 if ok else 1

    reports = []
    for name in names:
        report = run_workload(name, seed=args.seed, seconds=args.seconds,
                              trace=bool(args.trace), smoke=args.smoke,
                              out_dir=args.out)
        print_report(report)
        (args.out / f"result-{name}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=2) + "\n")
        reports.append(report)
    final = result_line(reports[0]) if len(reports) == 1 else combine(reports)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
