"""Checks on the end-to-end benchmark itself.

Run with ``PYTHONPATH=src:benchmarks python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random

import pytest

import run

run.import_program()

import check_result  # noqa: E402
import driver  # noqa: E402
import workloads as wl  # noqa: E402
from repro.crypto.rsa import generate_rsa_keypair  # noqa: E402
from repro.crypto.schemes import scheme_ids  # noqa: E402
from repro.workloads.fleet import (build_flight_submission,  # noqa: E402
                                   provision_fleet)

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json")
    .read_text())
#: Metrics fixed by the inputs alone: equal seeds must reproduce them.
DETERMINISTIC = ("uplink_bytes_per_flight", "honest_goodput_ratio",
                 "crypto.rsa.drone_private_ops_per_flight",
                 "crypto.rsa.auditor_private_ops_per_submission",
                 "server.admission.denied_ratio", "server.store.dedup_ratio",
                 "server.engine.payload_cache_hit_ratio")


def smoke_reports(out_dir: pathlib.Path, seed: int = 3) -> dict:
    """Every workload at smoke size, untraced and traced."""
    return {(name, trace): run.run_workload(
                name, seed=seed, seconds=1.0, trace=trace, smoke=True,
                out_dir=out_dir)
            for name in wl.WORKLOADS for trace in (False, True)}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return smoke_reports(tmp_path_factory.mktemp("smoke"))


@pytest.mark.parametrize("scheme", scheme_ids())
def test_drone_builder_matches_fleet_builder(scheme):
    drone = provision_fleet(lambda *_: "drone-000001", drones=1, seed=4)[0]
    auditor = generate_rsa_keypair(512, rng=random.Random(8))
    ours, upload = wl.prepare_flight(
        drone, auditor.public_key, flight_index=3, samples=5,
        start=wl.T0, rng=random.Random(11), scheme=scheme)
    reference = build_flight_submission(
        drone, auditor.public_key, frame=wl.FRAME, flight_index=3,
        samples=5, start=wl.T0, rng=random.Random(11),
        hash_name=wl.HASH_NAME, scheme=scheme)
    assert ours == reference
    assert upload.wire_bytes == sum(len(f) for f in upload.frames)

    # The uplink round-trips: what the auditor rebuilds is what was built.
    class Capture:
        def submit(self, submission, **_):
            self.submission = submission

    capture = Capture()
    driver.intake(capture, upload, wl.T0, "region-0")
    assert capture.submission == reference


def test_smoke_runs_every_workload_with_gates_passing(smoke):
    assert {name for name, _ in smoke} == set(wl.WORKLOADS)
    for (name, trace), report in smoke.items():
        details = report["details"]
        assert report["correct"], (name, trace, details["failures"])
        assert report["failed"] == 0
        assert report["attempted"] >= 1
        assert details["false_accepts"] == 0
        assert details["conformance_rows"] >= 1
        assert details["conformance_mismatches"] == 0


def test_smoke_results_conform_to_benchmark_json(smoke):
    for report in smoke.values():
        assert check_result.check(run.result_line(report), BENCHMARK) == []


def test_same_seed_runs_repeat_deterministic_metrics(smoke, tmp_path):
    again = smoke_reports(tmp_path)
    for key, report in smoke.items():
        for metric in DETERMINISTIC:
            if metric in report["metrics"]:
                assert (report["metrics"][metric]
                        == again[key]["metrics"][metric]), (key, metric)


def test_traced_self_times_sum_to_root_busy_time(smoke):
    for (name, trace), report in smoke.items():
        if not trace:
            continue
        details = report["details"]
        assert details["layer_self_sum_s"] == pytest.approx(
            details["root_busy_s"], rel=1e-6), name
        metrics = report["metrics"]
        assert metrics["auditor.busy_s"]["value"] > 0.0, name
        assert details["spans_written"] > 0, name


def test_checker_rejects_a_result_missing_a_metric(smoke):
    report = next(iter(smoke.values()))
    line = run.result_line(report)
    assert check_result.check(line, BENCHMARK) == []
    broken = copy.deepcopy(line)
    broken["metrics"].pop(next(iter(broken["metrics"])))
    assert any("missing" in problem
               for problem in check_result.check(broken, BENCHMARK))
    renamed = copy.deepcopy(line)
    renamed["metrics"]["bogus_metric"] = {"value": 1.0, "unit": "s"}
    assert check_result.check(renamed, BENCHMARK)


def test_committed_baseline_conforms():
    path = pathlib.Path(__file__).with_name("baseline.json")
    baseline = json.loads(path.read_text())
    assert check_result.check(baseline, BENCHMARK) == []
    steady = baseline["workloads"]["steady-rsa20"]["traced"]["metrics"]
    assert steady["crypto.rsa.auditor_private_ops_per_submission"][
        "value"] == 20
