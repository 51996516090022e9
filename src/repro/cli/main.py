"""``alidrone`` — reproduce the paper's artefacts from the command line.

Subcommands:

* ``fig6``      — the airport field study (Fig. 6 headline + series)
* ``fig8``      — the residential field study (Fig. 8 a/b/c)
* ``table2``      — Table II (CPU / power / memory)
* ``simulate``    — a random scenario end to end through the verifier
* ``attacks``     — demonstrate that every forgery strategy is rejected
* ``audit-batch`` — run a synthetic submission fleet through the batch
  audit engine and report per-stage timing + throughput
* ``serve``       — drive the persistent sharded auditor service for N
  virtual ticks of Poisson fleet traffic (one-shot service smoke)
* ``metrics``     — export a metrics snapshot as JSON or Prometheus
  text exposition (``--prometheus``)
* ``dash``        — live windowed-telemetry dashboard over a chaos or
  attack run (``chaos``/``attack`` also take ``--dash`` /
  ``--rollup-jsonl`` directly)

All subcommands are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Sequence


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.analysis.figures import fig6_cumulative_samples
    from repro.analysis.report import render_series
    from repro.workloads import build_airport_scenario, run_policy

    scenario = build_airport_scenario(seed=args.seed)
    fixed = run_policy(scenario, "fixed", 1.0, key_bits=args.key_bits,
                       seed=args.seed)
    adaptive = run_policy(scenario, "adaptive", key_bits=args.key_bits,
                          seed=args.seed)
    print("Fig. 6 — airport scenario")
    print(f"  1 Hz fix-rate : {fixed.sample_count} samples (paper: 649)")
    print(f"  adaptive      : {adaptive.sample_count} samples (paper: 14)")
    print(render_series("  adaptive series:",
                        fig6_cumulative_samples(adaptive),
                        "dist-to-NFZ (ft)", "total #samples"))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.analysis.figures import (
        fig8a_nearest_distance,
        fig8b_instantaneous_rate,
    )
    from repro.analysis.report import render_series
    from repro.core.sufficiency import count_insufficient_pairs
    from repro.workloads import build_residential_scenario, run_policy

    scenario = build_residential_scenario(seed=args.seed)
    print("Fig. 8 — residential scenario (94 NFZs, r = 20 ft)")
    print(render_series("  (a) nearest NFZ distance:",
                        fig8a_nearest_distance(scenario, step_s=5.0),
                        "time (s)", "distance (ft)"))
    paper = {2.0: 39, 3.0: 9, 5.0: 1}
    print("  (c) insufficient PoA pairs:")
    for rate in (2.0, 3.0, 5.0):
        run = run_policy(scenario, "fixed", rate, key_bits=args.key_bits,
                         seed=args.seed)
        count = count_insufficient_pairs(
            [entry.sample for entry in run.result.poa], scenario.zones,
            scenario.frame)
        print(f"      {rate:g} Hz fix-rate: {count:3d}  (paper: {paper[rate]})")
    run = run_policy(scenario, "adaptive", key_bits=args.key_bits,
                     seed=args.seed)
    count = count_insufficient_pairs(
        [entry.sample for entry in run.result.poa], scenario.zones,
        scenario.frame)
    print(f"      adaptive      : {count:3d}  (paper: 1)")
    print(render_series("  (b) adaptive instantaneous rate:",
                        fig8b_instantaneous_rate(run), "time (s)",
                        "rate (Hz)"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table2
    from repro.analysis.tables import compute_table2

    rows = compute_table2(seed=args.seed,
                          include_scenarios=not args.fixed_only)
    print(render_table2(rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.core.sufficiency import count_insufficient_pairs
    from repro.core.verification import PoaVerifier
    from repro.obs import Tracer, use_tracer, write_spans_jsonl
    from repro.workloads import (
        build_national_scenario,
        build_random_scenario,
        run_policy,
    )

    if args.scenario == "national":
        scenario = build_national_scenario(seed=args.seed,
                                           n_zones=args.zones,
                                           corridor_length_m=args.corridor_m)
    else:
        scenario = build_random_scenario(seed=args.seed, n_zones=args.zones)
    print(f"scenario: {scenario.description}")
    print(f"  flight duration : {scenario.duration:.0f} s")
    tracing = use_tracer(Tracer()) if args.trace else nullcontext(None)
    with tracing as tracer:
        root = (tracer.span("simulate", seed=args.seed, zones=args.zones)
                if tracer is not None else nullcontext(None))
        with root:
            run = run_policy(scenario, args.policy, args.rate,
                             key_bits=args.key_bits, seed=args.seed)
            if tracer is not None:
                # The audit leg of the trace: the staged pipeline attaches
                # one child span per verification stage under "audit".
                with tracer.span("audit"):
                    PoaVerifier(scenario.frame).verify(
                        run.result.poa, run.device.tee_public_key,
                        scenario.zones)
    samples = [entry.sample for entry in run.result.poa]
    insufficient = count_insufficient_pairs(samples, scenario.zones,
                                            scenario.frame)
    verified = run.result.poa.verify_all(run.device.tee_public_key)
    print(f"  policy          : {run.policy_label}")
    print(f"  signed samples  : {run.sample_count}")
    print(f"  signatures OK   : {verified}")
    print(f"  insufficient    : {insufficient}")
    print(f"  verdict         : "
          f"{'compliant' if verified and insufficient == 0 else 'NOT PROVEN'}")
    if args.trace:
        path = write_spans_jsonl(args.trace, tracer.spans)
        print(f"  trace           : {len(tracer.spans)} spans -> {path}")
    return 0 if verified and insufficient == 0 else 1


def _cmd_attacks(args: argparse.Namespace) -> int:
    import importlib.util
    import pathlib

    # The attack walkthrough lives in examples/; reuse it when present,
    # otherwise run the minimal inline version.
    example = (pathlib.Path(__file__).resolve().parents[3] / "examples"
               / "rogue_drone_audit.py")
    if example.exists():
        spec = importlib.util.spec_from_file_location("rogue_demo", example)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        return 0
    print("examples/rogue_drone_audit.py not found", file=sys.stderr)
    return 2


def _build_audit_fleet(*, seed: int, key_bits: int, submissions: int,
                       samples: int, drones: int, zones: int = 1,
                       scheme: str = "rsa-v15"):
    """A synthetic fleet: an auditor server plus signed, encrypted PoAs.

    The shared workload builder behind ``audit-batch`` and the synthetic
    arm of ``metrics``.  Returns ``(server, submissions, drone_list, t0)``
    — everything deterministic from ``seed``.  ``scheme`` selects the
    sample-authentication backend every flight is signed under.
    """
    import random as random_module

    from repro.core.nfz import NoFlyZone
    from repro.core.poa import ProofOfAlibi, SignedSample, encrypt_poa
    from repro.core.protocol import DroneRegistrationRequest, PoaSubmission
    from repro.core.samples import GpsSample
    from repro.crypto.rsa import generate_rsa_keypair
    from repro.crypto.schemes import authenticate_payloads
    from repro.errors import ConfigurationError
    from repro.geo.geodesy import GeoPoint, LocalFrame
    from repro.server.auditor import AliDroneServer

    if drones < 1:
        raise ConfigurationError(f"--drones must be >= 1, got {drones}")
    if samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {samples}")
    rng = random_module.Random(seed)
    frame = LocalFrame(GeoPoint(40.10, -88.22))
    server = AliDroneServer(frame, rng=random_module.Random(seed + 1),
                            encryption_key_bits=key_bits)
    center = frame.to_geo(0.0, 0.0)
    server.zones.register(NoFlyZone(center.lat, center.lon, 50.0),
                          proof_of_ownership="synthetic")
    # Optional NFZ-database scale-up: extra zones laid out well away from
    # every synthetic trace so verdicts stay unchanged while the engine's
    # zone index has real work to prune.
    for i in range(1, zones):
        point = frame.to_geo(-600.0 - 150.0 * (i // 21),
                             ((i % 21) - 10) * 200.0)
        server.zones.register(NoFlyZone(point.lat, point.lon, 50.0),
                              proof_of_ownership="synthetic")

    drone_list = []
    for i in range(drones):
        tee_key = generate_rsa_keypair(key_bits,
                                       rng=random_module.Random(1000 + i))
        operator_key = generate_rsa_keypair(key_bits,
                                            rng=random_module.Random(2000 + i))
        drone_id = server.register_drone(DroneRegistrationRequest(
            operator_public_key=operator_key.public_key,
            tee_public_key=tee_key.public_key, operator_name=f"op-{i}"))
        drone_list.append((drone_id, tee_key))

    t0 = 1_700_000_000.0
    built = []
    for j in range(submissions):
        drone_id, tee_key = drone_list[j % len(drone_list)]
        start = t0 + 1000.0 * j
        payloads = []
        for k in range(samples):
            point = frame.to_geo(200.0 + 20.0 * k + rng.uniform(0, 5.0),
                                 10.0 * (j % 7))
            sample = GpsSample(lat=point.lat, lon=point.lon, t=start + k)
            payloads.append(sample.to_signed_payload())
        blobs, finalizer = authenticate_payloads(tee_key, payloads, scheme,
                                                 rng=rng)
        poa = ProofOfAlibi(
            (SignedSample(payload=payload, signature=blob, scheme=scheme)
             for payload, blob in zip(payloads, blobs)),
            scheme=scheme, finalizer=finalizer)
        records = encrypt_poa(poa, server.public_encryption_key, rng=rng)
        built.append(PoaSubmission(
            drone_id=drone_id, flight_id=f"flight-{j}", records=records,
            claimed_start=start, claimed_end=start + samples - 1,
            scheme=scheme, finalizer=finalizer))
    return server, built, drone_list, t0


def _cmd_audit_batch(args: argparse.Namespace) -> int:
    from repro.core.verification import VerificationStatus

    server, submissions, drones, t0 = _build_audit_fleet(
        seed=args.seed, key_bits=args.key_bits,
        submissions=args.submissions, samples=args.samples,
        drones=args.drones, zones=args.zones, scheme=args.scheme)

    from contextlib import nullcontext

    from repro.obs import (
        Tracer,
        use_tracer,
        write_metrics_json,
        write_spans_jsonl,
    )

    tracing = use_tracer(Tracer()) if args.trace else nullcontext(None)
    with tracing as tracer:
        result = server.receive_poa_batch(submissions, now=t0)
    counts: dict[str, int] = {}
    for outcome in result.outcomes:
        status = (outcome.report.status.value if outcome.report is not None
                  else "intake_error")
        counts[status] = counts.get(status, 0) + 1

    metrics = server.engine.metrics
    if args.json:
        payload = {
            "batch_size": result.batch_size,
            "samples_per_submission": args.samples,
            "drones": len(drones),
            "wall_time_s": result.wall_time_s,
            "submissions_per_second": result.submissions_per_second,
            "status_counts": counts,
            "outcomes": [
                {"flight_id": o.submission.flight_id,
                 "drone_id": o.submission.drone_id,
                 "status": (o.report.status.value if o.report is not None
                            else "intake_error"),
                 "sample_count": (o.report.sample_count
                                  if o.report is not None else 0),
                 "message": (o.report.message if o.report is not None
                             else str(o.error))}
                for o in result.outcomes],
            "stage_timing": {
                stage: {"runs": metrics.runs(stage),
                        "samples": metrics.total_samples(stage),
                        "total_seconds": metrics.total_seconds(stage),
                        "mean_seconds": metrics.timing(stage).mean,
                        "std_seconds": metrics.timing(stage).std}
                for stage in metrics.stages()},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"audit-batch: {result.batch_size} submissions, "
              f"{args.samples} samples each, {len(drones)} drones")
        for status in sorted(counts):
            print(f"  {status:<15} {counts[status]}")
        print(f"  wall time       {result.wall_time_s:.3f} s")
        print(f"  throughput      {result.submissions_per_second:.1f} "
              "submissions/s")
        print("per-stage timing:")
        for line in metrics.format().splitlines():
            print(f"  {line}")
    if args.metrics_json:
        path = write_metrics_json(args.metrics_json,
                                  server.metrics_snapshot())
        print(f"metrics snapshot -> {path}", file=sys.stderr)
    if args.trace:
        path = write_spans_jsonl(args.trace, tracer.spans)
        print(f"{len(tracer.spans)} spans -> {path}", file=sys.stderr)
    accepted = counts.get(VerificationStatus.ACCEPTED.value, 0)
    return 0 if accepted == result.batch_size else 1


def _live_session(args: argparse.Namespace, title: str,
                  stream=None):
    """Build the optional telemetry session behind ``--dash`` and
    ``--rollup-jsonl`` (None when neither flag was given)."""
    from repro.obs.dash import LiveTelemetrySession

    dash = getattr(args, "dash", False)
    rollup = getattr(args, "rollup_jsonl", None)
    if not dash and not rollup:
        return None
    sink = stream if stream is not None else sys.stderr
    interactive = dash and sink.isatty()
    return LiveTelemetrySession(
        rollup_path=rollup,
        stream=sink if dash else None,
        live=interactive, color=interactive,
        title=title)


def _telemetry_epilogue(session, file=sys.stderr) -> dict:
    """Close a live session and print its one-line summary."""
    summary = session.close()
    fired = summary["alerts_fired"]
    firing = summary["alerts_firing"]
    print(f"telemetry: {summary['ticks']} tick(s), "
          f"{summary['rules_evaluated']} rule(s), "
          f"{len(fired)} alert(s) fired"
          + (f" [firing: {', '.join(firing)}]" if firing else "")
          + (f", rollups -> {session.writer.path}"
             if session.writer is not None else ""),
          file=file)
    return summary


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import record_cell_telemetry, run_matrix
    from repro.faults.plan import builtin_plans
    from repro.workloads import build_random_scenario, build_violation_scenario

    available = builtin_plans(args.seed)
    if args.plans:
        unknown = [name for name in args.plans if name not in available]
        if unknown:
            print(f"alidrone: unknown fault plan(s): {', '.join(unknown)}; "
                  f"available: {', '.join(sorted(available))}",
                  file=sys.stderr)
            return 2
        plans = [available[name] for name in args.plans]
    else:
        plans = list(available.values())

    scenarios = []
    for name in args.scenarios:
        if name == "compliant":
            scenarios.append((build_random_scenario(
                seed=args.seed, n_zones=args.zones), False))
        else:
            scenarios.append((build_violation_scenario(seed=args.seed), True))

    session = _live_session(args, "alidrone chaos")
    on_cell = None
    if session is not None:
        def on_cell(cell):
            session.tick(lambda hub, now:
                         record_cell_telemetry(hub, cell, now=now))

    report = run_matrix(scenarios, plans, seed=args.seed,
                        key_bits=args.chaos_key_bits,
                        liveness_budget_s=args.budget_s,
                        on_cell=on_cell)
    if session is not None:
        _telemetry_epilogue(session)
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"chaos report -> {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"chaos: {len(report.cells)} cells "
              f"({len(scenarios)} scenario(s) x {len(plans)} plan(s))")
        for cell in report.cells:
            flags = []
            if cell.violation:
                flags.append("violation")
            if cell.degraded_decisions:
                flags.append(f"degraded x{cell.degraded_decisions}")
            if cell.retransmissions:
                flags.append(f"rexmit x{cell.retransmissions}")
            note = f"  [{', '.join(flags)}]" if flags else ""
            print(f"  {cell.scenario:<16} {cell.plan:<15} "
                  f"{cell.status:<15} "
                  f"recov {cell.recovery_latency_s:6.2f}s{note}")
        inv = payload["invariants"]
        print(f"  false accepts     : {len(inv['false_accepts'])}")
        print(f"  liveness failures : {len(inv['liveness_failures'])}")
        print(f"  no-op path same   : {inv['noop_path_identical']}")
        print(f"  verdict           : {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.adversary import AttackStats, run_matrix
    from repro.adversary.matrix import record_cell_telemetry
    from repro.conformance import run_differential
    from repro.obs.adapters import attack_stats_snapshot
    from repro.obs.export import write_metrics_json
    from repro.workloads.synthetic import build_violation_variants

    session = _live_session(args, "alidrone attack")
    on_cell = None
    if session is not None:
        def on_cell(cell):
            session.tick(lambda hub, now:
                         record_cell_telemetry(hub, cell, now=now))

    stats = AttackStats()
    matrix = run_matrix(
        scenarios=build_violation_variants(args.seed),
        seed=args.seed, key_bits=args.attack_key_bits, stats=stats,
        scheme=args.scheme, on_cell=on_cell)
    if session is not None:
        _telemetry_epilogue(session)
    conformance = run_differential(
        trajectories=args.trajectories, seed=args.seed,
        key_bits=args.attack_key_bits, scheme=args.scheme)
    payload = {
        "matrix": matrix.to_dict(),
        "conformance": conformance.to_dict(),
        "ok": matrix.ok and conformance.ok,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"attack report -> {args.out}", file=sys.stderr)
    if args.metrics_json:
        path = write_metrics_json(args.metrics_json,
                                  attack_stats_snapshot(stats))
        print(f"metrics snapshot -> {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"attack matrix: {len(matrix.cells)} cells "
              f"({len(matrix.config['attacks'])} attack(s) x "
              f"{len(matrix.config['scenarios'])} scenario(s), "
              f"scheme {matrix.config['scheme']})")
        for cell in matrix.cells:
            mark = "ok" if cell.expected_ok else \
                f"UNEXPECTED (wanted {', '.join(sorted(cell.expected))})"
            print(f"  {cell.attack:<22} {cell.scenario:<22} "
                  f"{cell.result.outcome:<22} {mark}")
        inv = matrix.invariants
        conf = conformance
        print(f"  false accepts       : {len(inv['false_accepts'])}")
        print(f"  unexpected outcomes : {len(inv['unexpected_outcomes'])}")
        print(f"  control failures    : {len(inv['control_failures'])}")
        print(f"  conformance         : {conf.honest_agreements}"
              f"/{conf.honest_trials} honest, "
              f"{conf.mutated_agreements}/{conf.mutated_trials} mutated, "
              f"{conf.index_agreements}/{conf.index_trials} index-equiv")
        print(f"  verdict             : "
              f"{'OK' if payload['ok'] else 'FAILED'}")
    return 0 if payload["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """One-shot drive of the persistent auditor service.

    Builds a Poisson fleet, then steps the virtual clock one second per
    tick: due arrivals go through the bounded/token-bucket intake, each
    tick's queue is drained through the shard engines, and a telemetry
    rollup is evaluated against the builtin monitor rules.  Prints a
    JSON summary (``--json``) or a prose digest; exit 0 iff the store is
    fully audited with no intake errors and no page-severity alerts.
    """
    import random as random_module

    from repro.core.nfz import NoFlyZone
    from repro.core.protocol import DroneRegistrationRequest
    from repro.crypto.rsa import generate_rsa_keypair
    from repro.geo.geodesy import GeoPoint, LocalFrame
    from repro.obs.hub import TelemetryHub, flatten_rollup
    from repro.obs.monitor import MonitorEngine, builtin_rules
    from repro.server.admission import POLICY_FIFO, AdmissionScheduler
    from repro.server.service import AuditorService
    from repro.server.store import INTAKE_ERROR_STATUS
    from repro.sim.clock import DEFAULT_EPOCH
    from repro.workloads.fleet import poisson_arrivals, provision_fleet

    frame = LocalFrame(GeoPoint(40.1000, -88.2200))
    encryption_key = generate_rsa_keypair(
        args.key_bits, rng=random_module.Random(args.seed + 77))
    hub = TelemetryHub(window_s=max(float(args.ticks), 1.0))
    monitor = MonitorEngine(builtin_rules())
    admission = (AdmissionScheduler(POLICY_FIFO,
                                    rate_per_s=args.admission_rate,
                                    burst=args.admission_burst)
                 if args.admission_rate is not None else None)
    service = AuditorService(
        frame, args.store, shards=args.shards,
        queue_capacity=args.queue_capacity, admission=admission,
        encryption_key=encryption_key, telemetry=hub)
    center = frame.to_geo(0.0, 0.0)
    service.register_zone(NoFlyZone(center.lat, center.lon, 50.0))

    def register(operator_public, tee_public, name):
        # A durable --store already holds the fleet on a re-run; reuse
        # the issued ids instead of tripping the uniqueness constraint.
        existing = service.store.find_drone_by_tee(tee_public)
        if existing is not None:
            return existing.drone_id
        return service.register_drone(DroneRegistrationRequest(
            operator_public_key=operator_public, tee_public_key=tee_public,
            operator_name=name))

    fleet = provision_fleet(register, drones=args.drones,
                            key_bits=args.key_bits, seed=args.seed,
                            regions=args.regions)
    replayed = service.recover(now=DEFAULT_EPOCH)
    arrivals = poisson_arrivals(
        fleet, service.public_encryption_key, frame=frame, seed=args.seed,
        rate_hz=args.rate, duration_s=float(args.ticks),
        samples=args.samples, scheme=args.scheme)

    alerts = []
    cursor = 0
    for tick in range(1, args.ticks + 1):
        now = DEFAULT_EPOCH + float(tick)
        while cursor < len(arrivals) and arrivals[cursor].at <= now:
            arrival = arrivals[cursor]
            service.submit(arrival.submission, now=arrival.at,
                           region=arrival.region)
            cursor += 1
        service.drain(now=now)
        for alert in monitor.evaluate(flatten_rollup(hub.rollup(now)), now):
            alerts.append({"rule": alert.rule, "severity": alert.severity,
                           "t": alert.fired_at})
    end = DEFAULT_EPOCH + float(args.ticks)
    service.drain(now=end)

    status_counts: dict[str, int] = {}
    for _stored, verdict in service.audited_submissions():
        status_counts[verdict.status] = status_counts.get(verdict.status,
                                                          0) + 1
    intake_summary = hub.sketch("audit.intake.seconds").summary(end)
    store_summary = hub.sketch("service.store.seconds").summary(end)
    stats = service.stats.to_dict()
    payload = {
        "ticks": args.ticks,
        "rate_hz": args.rate,
        "scheme": args.scheme,
        "shards": args.shards,
        "drones": args.drones,
        "samples_per_submission": args.samples,
        "queue_capacity": args.queue_capacity,
        "admission_rate_per_s": args.admission_rate,
        "arrivals": len(arrivals),
        "replayed_on_start": replayed,
        "stats": stats,
        "status_counts": status_counts,
        "queue_depth_final": service.queue_depth,
        "store": {"path": service.store.path,
                  "zones": len(service.zones),
                  "submissions": service.store.submission_count(),
                  "verdicts": service.store.verdict_count(),
                  "pending": service.store.pending_count()},
        "intake_p99_s": intake_summary.get("p99"),
        "store_p99_s": store_summary.get("p99"),
        "payload_cache": {
            "hits": sum(e.payload_cache_hits for e in service.engines),
            "misses": sum(e.payload_cache_misses for e in service.engines)},
        "alerts": alerts,
    }
    ok = (service.store.pending_count() == 0
          and service.queue_depth == 0
          and stats["intake_errors"] == 0
          and status_counts.get(INTAKE_ERROR_STATUS, 0) == 0
          and not any(a["severity"] == "page" for a in alerts))
    payload["ok"] = ok
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"serve: {args.ticks} tick(s), {len(arrivals)} arrival(s), "
              f"{args.shards} shard(s)")
        print(f"  accepted        {stats['accepted']}")
        print(f"  deduplicated    {stats['deduplicated']}")
        print(f"  shed            {stats['shed']} "
              f"(rate {stats['shed_rate_limited']}, "
              f"queue {stats['shed_queue_full']})")
        print(f"  audited         {stats['audited']} "
              f"(per shard {stats['per_shard_audited']})")
        for status in sorted(status_counts):
            print(f"    {status:<15} {status_counts[status]}")
        if payload["intake_p99_s"] is not None:
            print(f"  intake p99      {payload['intake_p99_s'] * 1e3:.2f} ms")
        if payload["store_p99_s"] is not None:
            print(f"  store p99       {payload['store_p99_s'] * 1e3:.2f} ms")
        print(f"  alerts          {len(alerts)}")
        print(f"  verdict         {'OK' if ok else 'FAILED'}")
    service.close()
    return 0 if ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Hostile-traffic fleet simulation with invariant checking.

    Runs a :class:`repro.fleetsim.FleetMix` of interleaved honest,
    chaos-degraded, adversarial, and flooding traffic against the
    persistent auditor service behind the selected admission policy.
    Prints the deterministic fleet report (plus a non-deterministic
    ``timing`` block) as JSON (``--json``) or a prose digest; exit 0
    iff every fleet invariant held (zero false accepts, honest
    liveness, flood containment, exactly-once verdicts).
    """
    from repro.fleetsim import FleetMix, FleetSimulator

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    mix = FleetMix(drones=args.drones, flooders=args.flooders,
                   duration_s=float(args.duration),
                   honest_rate_hz=args.honest_rate,
                   chaos_rate_hz=args.chaos_rate,
                   adversary_rate_hz=args.attack_rate,
                   flood_burst_per_s=args.flood_burst,
                   flood_period_s=args.flood_period,
                   samples=args.samples, regions=args.regions,
                   schemes=schemes, seed=args.seed,
                   key_bits=args.key_bits)
    simulator = FleetSimulator(
        mix, store=args.store, shards=args.shards,
        queue_capacity=args.queue_capacity, policy=args.policy,
        admission_rate_per_s=args.admission_rate,
        admission_burst=args.admission_burst,
        max_honest_shed=args.max_honest_shed)
    result = simulator.run()
    report = result.report
    payload = report.to_dict()
    payload["timing"] = result.timing
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"fleet: {args.drones} drone(s), {report.events_total} "
              f"event(s), policy {report.policy}")
        for name in sorted(report.classes):
            stats = report.classes[name]
            print(f"  {name:<10} submitted {stats.submitted:>6}  "
                  f"accepted {stats.accepted:>6}  dedup "
                  f"{stats.deduplicated:>6}  shed {stats.shed:>6}")
        print(f"  honest shed ratio  {report.honest_shed_ratio:.3f}")
        print(f"  flood turned away  {report.flood_turned_away_ratio:.3f}")
        print(f"  false accepts      {len(report.false_accepts)}")
        for name in sorted(report.invariants):
            held = "ok" if report.invariants[name] else "BREACHED"
            print(f"    {name:<26} {held}")
        print(f"  verdict            {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_disclosure(args: argparse.Namespace) -> int:
    """Selective-disclosure differential sweep (decision equivalence).

    Sweeps honest and non-compliant Merkle-committed flights through the
    honest disclosure policy plus four adversarial disclosure policies,
    checking that honest verdicts are decision-identical to full-trace
    verdicts and that no disclosure ever converts a full-trace REJECT
    into an ACCEPT.  Exit 0 iff every invariant held.
    """
    from repro.privacy.differential import run_disclosure_differential

    report = run_disclosure_differential(
        trajectories=args.trajectories, seed=args.seed,
        key_bits=args.key_bits, max_zones=args.zones)
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"disclosure report -> {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"disclosure differential: {report.trajectories} trajectories")
        print(f"  honest decision matches : "
              f"{report.honest_decision_matches}/{report.honest_trials} "
              f"({report.honest_accepts} accepted)")
        print(f"  rejects preserved       : "
              f"{report.bad_rejects_preserved}/{report.bad_trials}")
        for policy, outcome in report.adversarial_outcomes.items():
            print(f"  {policy:<24}: {outcome['trials']} trial(s), "
                  f"{outcome['false_accepts']} false accept(s)")
        print(f"  revealed samples        : {report.revealed_samples}"
              f"/{report.total_samples}")
        print(f"  bandwidth reduction     : "
              f"{report.bandwidth_reduction:.2f}x vs rsa-v15 full trace")
        print(f"  verdict                 : "
              f"{'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.prom import to_prometheus, validate_exposition

    if args.from_json:
        with open(args.from_json) as fh:
            snapshot = json.load(fh)
        if not isinstance(snapshot, dict):
            print("alidrone: metrics JSON must be an object of "
                  "{name: snapshot} entries", file=sys.stderr)
            return 2
    else:
        # A tiny synthetic batch, just enough to populate every adapter.
        server, submissions, _drones, t0 = _build_audit_fleet(
            seed=args.seed, key_bits=args.key_bits,
            submissions=4, samples=4, drones=2)
        server.receive_poa_batch(submissions, now=t0)
        snapshot = server.metrics_snapshot()

    if args.prometheus:
        text = to_prometheus(snapshot)
        problems = validate_exposition(text)
        if problems:
            for problem in problems:
                print(f"alidrone: exposition: {problem}", file=sys.stderr)
            return 1
        sys.stdout.write(text)
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.dash import LiveTelemetrySession

    interactive = not args.plain and sys.stdout.isatty()
    session = LiveTelemetrySession(
        rollup_path=args.rollup_jsonl,
        stream=sys.stdout, live=interactive, color=interactive,
        title=f"alidrone dash [{args.run}]")

    if args.run == "chaos":
        from repro.faults.chaos import record_cell_telemetry, run_matrix
        from repro.faults.plan import builtin_plans
        from repro.workloads import (
            build_random_scenario,
            build_violation_scenario,
        )

        available = builtin_plans(args.seed)
        if args.plans:
            unknown = [name for name in args.plans if name not in available]
            if unknown:
                print(f"alidrone: unknown fault plan(s): "
                      f"{', '.join(unknown)}; available: "
                      f"{', '.join(sorted(available))}", file=sys.stderr)
                return 2
            plans = [available[name] for name in args.plans]
        else:
            plans = list(available.values())
        scenarios = [(build_random_scenario(seed=args.seed, n_zones=4),
                      False),
                     (build_violation_scenario(seed=args.seed), True)]
        report = run_matrix(
            scenarios, plans, seed=args.seed, key_bits=512,
            on_cell=lambda cell: session.tick(
                lambda hub, now: record_cell_telemetry(hub, cell, now=now)))
        ok = report.ok
    else:
        from repro.adversary.matrix import record_cell_telemetry, run_matrix

        report = run_matrix(
            seed=args.seed, key_bits=512,
            on_cell=lambda cell: session.tick(
                lambda hub, now: record_cell_telemetry(hub, cell, now=now)))
        ok = report.ok

    summary = _telemetry_epilogue(session, file=sys.stdout)
    page_alerts = [alert for alert in summary["alerts_fired"]
                   if alert["severity"] == "page"]
    print(f"verdict: {'OK' if ok and not page_alerts else 'FAILED'}")
    return 0 if ok and not page_alerts else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.workloads import (
        build_airport_scenario,
        build_residential_scenario,
    )
    from repro.workloads.export import scenario_to_geojson_str

    builders = {"airport": build_airport_scenario,
                "residential": build_residential_scenario}
    scenario = builders[args.scenario](seed=args.seed)
    text = scenario_to_geojson_str(scenario, track_step_s=args.step)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.scenario} scenario "
              f"({len(scenario.zones)} zones) to {args.out}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.calibration import calibrate_local_cost_model
    from repro.analysis.report import render_table2
    from repro.analysis.tables import compute_table2
    from repro.perf.costs import RASPBERRY_PI_3

    model = calibrate_local_cost_model(repetitions=args.repetitions,
                                       seed=args.seed)
    print("local per-operation costs (vs the Table-II-calibrated Pi):")
    for bits in sorted(model.sign_seconds):
        local = model.sign_seconds[bits]
        pi = RASPBERRY_PI_3.sign_cost(bits)
        print(f"  RSA-{bits} sign : {local * 1e3:8.2f} ms   "
              f"(Pi: {pi * 1e3:.1f} ms, {pi / local:.0f}x slower)")
    print(f"  SMC round trip : {model.smc_round_trip_seconds * 1e6:8.1f} us")
    print(f"  max sustainable rate @2048b: "
          f"{model.sustainable_rate_hz(2048):.0f} Hz "
          f"(Pi: {RASPBERRY_PI_3.sustainable_rate_hz(2048):.1f} Hz)")
    print("\nTable II re-predicted for THIS machine:")
    print(render_table2(compute_table2(costs=model, seed=args.seed,
                                       include_scenarios=False)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="alidrone",
        description="AliDrone (ICDCS 2018) reproduction toolkit")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (default 0)")
    parser.add_argument("--key-bits", type=int, default=1024,
                        choices=(512, 1024, 2048),
                        help="TEE sign key size (default 1024)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig6", help="airport field study").set_defaults(
        handler=_cmd_fig6)
    sub.add_parser("fig8", help="residential field study").set_defaults(
        handler=_cmd_fig8)
    table2 = sub.add_parser("table2", help="CPU/power/memory table")
    table2.add_argument("--fixed-only", action="store_true",
                        help="skip the slower field-study rows")
    table2.set_defaults(handler=_cmd_table2)

    simulate = sub.add_parser("simulate",
                              help="random scenario through the verifier")
    simulate.add_argument("--zones", type=int, default=12)
    simulate.add_argument("--scenario", choices=("random", "national"),
                          default="random",
                          help="zone layout: routed random field, or the "
                               "national-scale packed corridor")
    simulate.add_argument("--corridor-m", type=float, default=4_000.0,
                          help="national corridor length in metres "
                               "(default 4000)")
    simulate.add_argument("--policy", choices=("adaptive", "fixed"),
                          default="adaptive")
    simulate.add_argument("--rate", type=float, default=None,
                          help="fix-rate policy rate in Hz")
    simulate.add_argument("--trace", metavar="PATH", default=None,
                          help="write an end-to-end span trace (JSONL) "
                               "covering the flight and its audit")
    simulate.set_defaults(handler=_cmd_simulate)

    sub.add_parser("attacks", help="forgery-attack walkthrough").set_defaults(
        handler=_cmd_attacks)

    audit_batch = sub.add_parser(
        "audit-batch",
        help="run a synthetic fleet through the batch audit engine")
    audit_batch.add_argument("--submissions", type=int, default=50,
                             help="batch size (default 50)")
    audit_batch.add_argument("--samples", type=int, default=20,
                             help="samples per PoA (default 20)")
    audit_batch.add_argument("--drones", type=int, default=5,
                             help="fleet size (default 5)")
    audit_batch.add_argument("--zones", type=int, default=1,
                             help="NFZ database size; zones beyond the "
                                  "first sit far from the traces "
                                  "(default 1)")
    audit_batch.add_argument("--scheme", default="rsa-v15",
                             choices=("rsa-v15", "rsa-batch", "hash-chain",
                                      "merkle-disclosure"),
                             help="sample-authentication scheme the fleet "
                                  "signs under (default rsa-v15)")
    audit_batch.add_argument("--json", action="store_true",
                             help="print the batch result as JSON instead "
                                  "of prose (exit non-zero on rejection)")
    audit_batch.add_argument("--metrics-json", metavar="PATH", default=None,
                             help="write a metrics-registry snapshot (JSON)")
    audit_batch.add_argument("--trace", metavar="PATH", default=None,
                             help="write the audit span trace (JSONL)")
    audit_batch.set_defaults(handler=_cmd_audit_batch)

    chaos = sub.add_parser(
        "chaos",
        help="fault-matrix sweep with safety/liveness invariant checks")
    chaos.add_argument("--scenarios", nargs="+",
                       choices=("compliant", "violation"),
                       default=["compliant", "violation"],
                       help="scenario kinds to sweep (default: both)")
    chaos.add_argument("--plans", nargs="+", default=None, metavar="PLAN",
                       help="fault plans to run (default: all builtin)")
    chaos.add_argument("--zones", type=int, default=6,
                       help="zones in the compliant scenario (default 6)")
    chaos.add_argument("--chaos-key-bits", type=int, default=512,
                       choices=(512, 1024, 2048),
                       help="key size for chaos runs (default 512: the "
                            "matrix provisions a device per cell)")
    chaos.add_argument("--budget-s", type=float, default=300.0,
                       help="virtual-time liveness budget per cell")
    chaos.add_argument("--out", metavar="PATH", default=None,
                       help="write the chaos report as JSON")
    chaos.add_argument("--json", action="store_true",
                       help="print the report as JSON instead of prose")
    chaos.add_argument("--dash", action="store_true",
                       help="render the live telemetry dashboard to "
                            "stderr while the sweep runs")
    chaos.add_argument("--rollup-jsonl", metavar="PATH", default=None,
                       help="append one windowed-telemetry rollup JSON "
                            "line per completed cell")
    chaos.set_defaults(handler=_cmd_chaos)

    attack = sub.add_parser(
        "attack",
        help="adversary matrix sweep + differential conformance harness")
    attack.add_argument("--trajectories", type=int, default=200,
                        help="randomized conformance trajectories "
                             "(default 200)")
    attack.add_argument("--scheme", default="rsa-v15",
                        choices=("rsa-v15", "rsa-batch", "hash-chain",
                                 "merkle-disclosure"),
                        help="sample-authentication scheme the genuine "
                             "flights are flown under (default rsa-v15)")
    attack.add_argument("--attack-key-bits", type=int, default=512,
                        choices=(512, 1024, 2048),
                        help="key size for attack runs (default 512: the "
                             "matrix provisions devices and signs per "
                             "sample)")
    attack.add_argument("--out", metavar="PATH", default=None,
                        help="write the attack report as JSON")
    attack.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of prose")
    attack.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="write an adversary.* metrics snapshot (JSON)")
    attack.add_argument("--dash", action="store_true",
                        help="render the live telemetry dashboard to "
                             "stderr while the matrix runs")
    attack.add_argument("--rollup-jsonl", metavar="PATH", default=None,
                        help="append one windowed-telemetry rollup JSON "
                             "line per completed cell")
    attack.set_defaults(handler=_cmd_attack)

    serve = sub.add_parser(
        "serve",
        help="drive the persistent sharded auditor service for N ticks "
             "of Poisson fleet traffic")
    serve.add_argument("--ticks", type=int, default=30,
                       help="virtual seconds to run (default 30)")
    serve.add_argument("--rate", type=float, default=2.0,
                       help="Poisson arrival rate, submissions/s "
                            "(default 2.0)")
    serve.add_argument("--drones", type=int, default=8,
                       help="fleet size (default 8)")
    serve.add_argument("--samples", type=int, default=6,
                       help="samples per submission (default 6)")
    serve.add_argument("--shards", type=int, default=2,
                       help="audit shards (default 2)")
    serve.add_argument("--regions", type=int, default=4,
                       help="zone-regions the fleet spans (default 4)")
    serve.add_argument("--queue-capacity", type=int, default=4096,
                       help="intake queue bound (default 4096)")
    serve.add_argument("--admission-rate", type=float, default=None,
                       help="token-bucket refill, submissions/s "
                            "(default: admission guard off)")
    serve.add_argument("--admission-burst", type=float, default=32.0,
                       help="token-bucket burst (default 32)")
    serve.add_argument("--scheme", default="rsa-v15",
                       choices=("rsa-v15", "rsa-batch", "hash-chain",
                                "merkle-disclosure"),
                       help="sample-authentication scheme the fleet "
                            "signs under (default rsa-v15)")
    serve.add_argument("--store", metavar="PATH", default=":memory:",
                       help="FlightStore database path "
                            "(default in-memory)")
    serve.add_argument("--key-bits", type=int, default=512,
                       choices=(512, 1024, 2048),
                       help="fleet/service key size (default 512)")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload seed (default 0)")
    serve.add_argument("--json", action="store_true",
                       help="print the run summary as JSON")
    serve.set_defaults(handler=_cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="hostile-traffic fleet simulation: honest + chaos + "
             "adversary + flood classes through the admission-scheduled "
             "auditor service")
    fleet.add_argument("--drones", type=int, default=12,
                       help="honest fleet size (default 12)")
    fleet.add_argument("--flooders", type=int, default=2,
                       help="flooding drones (default 2)")
    fleet.add_argument("--duration", type=float, default=60.0,
                       help="virtual seconds to run (default 60)")
    fleet.add_argument("--honest-rate", type=float, default=2.0,
                       help="honest Poisson rate, submissions/s "
                            "(default 2.0)")
    fleet.add_argument("--chaos-rate", type=float, default=0.0,
                       help="chaos-degraded Poisson rate "
                            "(default 0: class off)")
    fleet.add_argument("--attack-rate", type=float, default=0.0,
                       help="adversary Poisson rate (default 0: class off)")
    fleet.add_argument("--flood-burst", type=int, default=0,
                       help="flood submissions per storm-second "
                            "(default 0: class off)")
    fleet.add_argument("--flood-period", type=float, default=10.0,
                       help="flood storm cycle length, seconds; first "
                            "half is on (default 10)")
    fleet.add_argument("--samples", type=int, default=4,
                       help="samples per submission (default 4)")
    fleet.add_argument("--regions", type=int, default=4,
                       help="zone-regions the fleet spans (default 4)")
    fleet.add_argument("--schemes", default="rsa-v15",
                       help="comma list of authentication schemes "
                            "assigned round-robin over the fleet "
                            "(default rsa-v15)")
    fleet.add_argument("--policy", default="none",
                       choices=("none", "fifo", "fair-share", "hybrid"),
                       help="admission policy (default none: queue bound "
                            "only)")
    fleet.add_argument("--admission-rate", type=float, default=None,
                       help="global admission rate, submissions/s "
                            "(required for any policy but none)")
    fleet.add_argument("--admission-burst", type=float, default=64.0,
                       help="global admission burst (default 64)")
    fleet.add_argument("--max-honest-shed", type=float, default=0.2,
                       help="honest shed-ratio bound the liveness "
                            "invariant asserts (default 0.2)")
    fleet.add_argument("--shards", type=int, default=2,
                       help="audit shards (default 2)")
    fleet.add_argument("--queue-capacity", type=int, default=4096,
                       help="intake queue bound (default 4096)")
    fleet.add_argument("--store", metavar="PATH", default=":memory:",
                       help="FlightStore database path "
                            "(default in-memory)")
    fleet.add_argument("--key-bits", type=int, default=512,
                       choices=(512, 1024, 2048),
                       help="fleet/service key size (default 512)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="workload seed (default 0)")
    fleet.add_argument("--json", action="store_true",
                       help="print the run summary as JSON")
    fleet.set_defaults(handler=_cmd_fleet)

    disclosure = sub.add_parser(
        "disclosure",
        help="selective-disclosure differential sweep (decision "
             "equivalence + zero false accepts)")
    disclosure.add_argument("--trajectories", type=int, default=200,
                            help="randomized flights to sweep "
                                 "(default 200)")
    disclosure.add_argument("--zones", type=int, default=12,
                            help="max zones per trial (default 12)")
    disclosure.add_argument("--seed", type=int, default=0,
                            help="sweep seed (default 0)")
    disclosure.add_argument("--key-bits", type=int, default=512,
                            dest="key_bits",
                            help="TEE RSA modulus size (default 512)")
    disclosure.add_argument("--out", metavar="PATH", default=None,
                            help="write the disclosure report as JSON")
    disclosure.add_argument("--json", action="store_true",
                            help="print the report as JSON instead of "
                                 "prose")
    disclosure.set_defaults(handler=_cmd_disclosure)

    metrics = sub.add_parser(
        "metrics",
        help="export a metrics snapshot (JSON or Prometheus exposition)")
    metrics.add_argument("--prometheus", action="store_true",
                         help="emit Prometheus text exposition instead "
                              "of JSON")
    metrics.add_argument("--from-json", metavar="PATH", default=None,
                         help="render a previously written metrics "
                              "snapshot (e.g. audit-batch --metrics-json) "
                              "instead of running a synthetic batch")
    metrics.set_defaults(handler=_cmd_metrics)

    dash = sub.add_parser(
        "dash",
        help="live telemetry dashboard over a chaos or attack run")
    dash.add_argument("--run", choices=("chaos", "attack"),
                      default="chaos",
                      help="which harness to drive (default chaos)")
    dash.add_argument("--plans", nargs="+", default=None, metavar="PLAN",
                      help="fault plans for --run chaos "
                           "(default: all builtin)")
    dash.add_argument("--plain", action="store_true",
                      help="append plain-text frames (no ANSI clears), "
                           "for logs and CI")
    dash.add_argument("--rollup-jsonl", metavar="PATH", default=None,
                      help="also append rollup JSON lines")
    dash.set_defaults(handler=_cmd_dash)

    export = sub.add_parser("export",
                            help="dump a scenario as GeoJSON")
    export.add_argument("--scenario", choices=("airport", "residential"),
                        default="residential")
    export.add_argument("--out", default="-",
                        help="output path, or '-' for stdout")
    export.add_argument("--step", type=float, default=2.0,
                        help="track sampling step in seconds")
    export.set_defaults(handler=_cmd_export)

    calibrate = sub.add_parser(
        "calibrate", help="measure this machine's op costs; re-predict "
                          "Table II locally")
    calibrate.add_argument("--repetitions", type=int, default=25)
    calibrate.set_defaults(handler=_cmd_calibrate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Domain errors (bad combinations of options, unroutable scenarios)
    print a one-line message and exit 2 instead of dumping a traceback.
    """
    from repro.errors import AliDroneError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except AliDroneError as exc:
        print(f"alidrone: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
