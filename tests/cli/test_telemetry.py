"""Tests for the CLI telemetry surfaces and their schema checker.

Covers ``simulate --trace``, ``audit-batch --json/--metrics-json/--trace``,
and ``check_telemetry_output.py`` — the script the CI smoke job runs
against the same artefacts.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.cli.main import main
from repro.obs import read_spans_jsonl, to_prometheus, validate_exposition

_CHECKER_PATH = pathlib.Path(__file__).parent / "check_telemetry_output.py"
_spec = importlib.util.spec_from_file_location("check_telemetry_output",
                                               _CHECKER_PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

STAGE_NAMES = ["signature", "decode", "ordering", "feasibility",
               "sufficiency"]


@pytest.fixture()
def traced_simulate(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    code = main(["--seed", "1", "--key-bits", "512", "simulate",
                 "--zones", "4", str("--trace"), str(path)])
    out = capsys.readouterr().out
    return code, out, path


@pytest.fixture()
def audit_batch_artifacts(tmp_path, capsys):
    audit_json = tmp_path / "audit.json"
    metrics_json = tmp_path / "metrics.json"
    trace = tmp_path / "audit-trace.jsonl"
    code = main(["--key-bits", "512", "audit-batch",
                 "--submissions", "4", "--samples", "6", "--drones", "2",
                 "--json", "--metrics-json", str(metrics_json),
                 "--trace", str(trace)])
    out = capsys.readouterr().out
    audit_json.write_text(out)
    return code, audit_json, metrics_json, trace


class TestSimulateTrace:
    def test_writes_connected_trace(self, traced_simulate):
        code, out, path = traced_simulate
        assert code == 0
        assert "trace           :" in out
        spans = read_spans_jsonl(path)
        assert spans
        assert len({span.trace_id for span in spans}) == 1
        names = {span.name for span in spans}
        assert {"simulate", "flight", "tee.gps_sampler_ta.sign",
                "audit", *STAGE_NAMES} <= names

    def test_passes_schema_checker(self, traced_simulate):
        _, _, path = traced_simulate
        assert checker.check_trace(str(path)) == []

    def test_no_trace_flag_writes_nothing(self, tmp_path, capsys):
        code = main(["--seed", "1", "--key-bits", "512", "simulate",
                     "--zones", "4"])
        assert code == 0
        assert "trace           :" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestAuditBatchJson:
    def test_json_document_and_exit_code(self, audit_batch_artifacts):
        code, audit_json, _, _ = audit_batch_artifacts
        assert code == 0
        document = json.loads(audit_json.read_text())
        assert document["batch_size"] == 4
        assert len(document["outcomes"]) == 4
        assert document["status_counts"] == {"accepted": 4}
        # The pipeline stages plus the engine's decrypt accounting.
        assert set(STAGE_NAMES) <= set(document["stage_timing"])

    def test_rejected_batch_exits_nonzero(self, capsys):
        # One-sample PoAs cannot prove continuous absence: insufficient.
        code = main(["--key-bits", "512", "audit-batch",
                     "--submissions", "2", "--samples", "1",
                     "--drones", "1", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["status_counts"] == {"insufficient": 2}

    def test_metrics_snapshot_written(self, audit_batch_artifacts):
        _, audit_json, metrics_json, _ = audit_batch_artifacts
        rollup = json.loads(metrics_json.read_text())
        assert rollup["t"] == 1_700_000_000.0
        assert rollup["counters"]["audit.submissions"]["cumulative"] == 4
        assert rollup["quantiles"]["audit.intake.seconds"]["count"] == 4
        assert rollup["stages"]["signature"]["runs"] == 4
        assert rollup["gauges"]["server.registered_drones"] == 2
        assert rollup["events"]["kind"]["batch_audited"] == 1
        assert rollup["events"]["kind"]["poa_received"] == 4
        # One per-stage timing document: the rollup's stages section and
        # the --json stage_timing carry the same stages and counts.
        stage_timing = json.loads(audit_json.read_text())["stage_timing"]
        assert list(rollup["stages"]) == sorted(stage_timing)
        for stage, entry in stage_timing.items():
            assert set(entry) == set(rollup["stages"][stage])
            assert entry["runs"] == rollup["stages"][stage]["runs"]
            assert entry["samples"] == rollup["stages"][stage]["samples"]
        assert validate_exposition(to_prometheus(rollup)) == []

    def test_trace_covers_batch(self, audit_batch_artifacts):
        _, _, _, trace = audit_batch_artifacts
        spans = read_spans_jsonl(trace)
        names = [span.name for span in spans]
        assert "server.receive_poa_batch" in names
        assert "audit_batch" in names
        assert names.count("audit.submission") == 4
        assert "crypto" not in names

    def test_artifacts_pass_schema_checker(self, audit_batch_artifacts):
        _, audit_json, metrics_json, trace = audit_batch_artifacts
        assert checker.main(["--trace", str(trace),
                             "--audit-json", str(audit_json),
                             "--metrics-json", str(metrics_json)]) == 0


class TestChecker:
    def test_rejects_malformed_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"span_id": "s1"}\n')
        problems = checker.check_trace(str(bad))
        assert any("missing fields" in p for p in problems)

    def test_rejects_dangling_parent(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        row = {"name": "x", "span_id": "s1", "trace_id": "t1",
               "parent_id": "ghost", "start_s": 0.0, "end_s": 1.0,
               "duration_s": 1.0, "status": "ok", "attributes": {}}
        bad.write_text(json.dumps(row) + "\n")
        problems = checker.check_trace(str(bad))
        assert any("not in file" in p for p in problems)
        assert any("no root span" in p for p in problems)

    def test_rejects_inconsistent_audit_counts(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "batch_size": 2, "samples_per_submission": 1, "drones": 1,
            "wall_time_s": 0.1,
            "submissions_per_second": 20.0,
            "status_counts": {"accepted": 1},
            "outcomes": [], "stage_timing": {"signature": {
                "runs": 1, "samples": 1, "total_seconds": 0.1,
                "mean_seconds": 0.1, "std_seconds": 0.0}}}))
        problems = checker.check_audit_json(str(bad))
        assert any("outcomes" in p for p in problems)
        assert any("sum to batch_size" in p for p in problems)

    def test_rejects_untyped_metric(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": {"value": 1}}))
        assert any("missing fields" in p
                   for p in checker.check_metrics_json(str(bad)))
        rollup = {"t": 0.0, "window_s": 60.0,
                  "counters": {"audit.submissions": {"value": 1}},
                  "quantiles": {"lat": {}}, "gauges": {"g": "high"}}
        bad.write_text(json.dumps(rollup))
        problems = checker.check_metrics_json(str(bad))
        assert any("counter 'audit.submissions'" in p for p in problems)
        assert any("quantile 'lat' missing count" in p for p in problems)
        assert any("gauge 'g'" in p for p in problems)
        assert any("stages is empty" in p for p in problems)

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "metrics.json"
        good.write_text(json.dumps(
            {"t": 0.0, "window_s": 60.0, "quantiles": {}, "gauges": {},
             "counters": {"m": {"total": 1, "rate": 0.1,
                                "cumulative": 1}}}))
        assert checker.main(["--metrics-json", str(good)]) == 0
        assert "1 file(s) ok" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert checker.main(["--metrics-json", str(bad)]) == 1


def test_checker_script_is_executable_standalone():
    """CI runs the checker as a plain script; it must not import repro."""
    source = (pathlib.Path(__file__).parent
              / "check_telemetry_output.py").read_text()
    assert "import repro" not in source
    assert "from repro" not in source
