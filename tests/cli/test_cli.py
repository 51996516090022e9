"""Tests for the ``alidrone`` CLI."""

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_options(self):
        args = build_parser().parse_args(["--seed", "7", "--key-bits", "512",
                                          "fig6"])
        assert args.seed == 7
        assert args.key_bits == 512

    def test_invalid_key_bits_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--key-bits", "333", "fig6"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.zones == 12
        assert args.policy == "adaptive"


class TestCommands:
    def test_simulate_compliant_exit_code(self, capsys):
        code = main(["--seed", "1", "--key-bits", "512", "simulate",
                     "--zones", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict         : compliant" in out
        assert "signatures OK   : True" in out

    def test_simulate_reports_pipeline_verdict(self, capsys):
        """The verdict line and exit code are the pipeline's report on the
        same flight, whatever that report says."""
        from repro.core.verification import PoaVerifier
        from repro.workloads import build_random_scenario, run_policy

        code = main(["--seed", "2", "--key-bits", "512", "simulate",
                     "--policy", "fixed", "--rate", "5"])
        out = capsys.readouterr().out
        scenario = build_random_scenario(seed=2, n_zones=12)
        run = run_policy(scenario, "fixed", 5.0, key_bits=512, seed=2)
        report = PoaVerifier(scenario.frame).verify(
            run.result.poa, run.device.tee_public_key, scenario.zones)
        verdict = ("compliant" if report.compliant
                   else f"NOT PROVEN ({report.reason.value})")
        assert f"verdict         : {verdict}\n" in out
        assert code == (0 if report.compliant else 1)

    def test_simulate_fixed_policy(self, capsys):
        code = main(["--seed", "1", "--key-bits", "512", "simulate",
                     "--zones", "4", "--policy", "fixed", "--rate", "2"])
        assert code == 0
        assert "fixed-2hz" in capsys.readouterr().out

    def test_table2_fixed_only(self, capsys):
        code = main(["--key-bits", "512", "table2", "--fixed-only"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fixed 2 Hz" in out
        assert "Memory: 3.27 MB" in out
        # The 2048/5Hz "-" cell renders.
        assert "-" in out

    def test_fig6(self, capsys):
        code = main(["--key-bits", "512", "fig6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "649 samples (paper: 649)" in out
        assert "adaptive series:" in out

    @pytest.mark.slow
    def test_fig8(self, capsys):
        code = main(["--key-bits", "512", "fig8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "insufficient PoA pairs" in out
        assert "(paper: 39)" in out


class TestAttacksCommand:
    @pytest.mark.slow
    def test_attacks_walkthrough_runs(self, capsys):
        code = main(["attacks"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("VIOLATION") >= 5


class TestExportAndCalibrate:
    def test_export_to_stdout(self, capsys):
        code = main(["export", "--scenario", "airport", "--step", "30"])
        out = capsys.readouterr().out
        assert code == 0
        import json
        document = json.loads(out)
        assert document["type"] == "FeatureCollection"

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "res.geojson"
        code = main(["export", "--scenario", "residential", "--out",
                     str(target), "--step", "20"])
        assert code == 0
        import json
        document = json.loads(target.read_text())
        centers = [f for f in document["features"]
                   if f["properties"]["kind"] == "nfz-center"]
        assert len(centers) == 94

    def test_calibrate_prints_local_table(self, capsys):
        code = main(["calibrate", "--repetitions", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RSA-1024 sign" in out
        assert "Table II re-predicted" in out
        assert "Fixed 5 Hz" in out


class TestChaosCommand:
    def test_smoke_sweep_writes_valid_report(self, tmp_path, capsys):
        """A tiny sweep passes its invariants and the schema checker."""
        import json
        import pathlib
        import sys

        from repro.obs import read_rollups_jsonl
        from repro.obs.prom import to_prometheus, validate_exposition

        target = tmp_path / "chaos.json"
        rollups = tmp_path / "rollups.jsonl"
        code = main(["--seed", "1", "chaos", "--scenarios", "compliant",
                     "violation", "--plans", "baseline", "lossy30",
                     "--zones", "3", "--out", str(target),
                     "--rollup-jsonl", str(rollups)])
        out = capsys.readouterr().out
        assert code == 0
        assert "false accepts" in out
        assert "verdict" in out and "OK" in out
        report = json.loads(target.read_text())
        assert report["ok"] is True
        assert len(report["cells"]) == 4
        assert report["invariants"]["false_accepts"] == []

        sys.path.insert(0, str(pathlib.Path(__file__).parent))
        try:
            from check_chaos_output import check_chaos
        finally:
            sys.path.pop(0)
        assert check_chaos(str(target)) == []
        # Each rollup line is the one metrics document the exporter reads.
        text = to_prometheus(read_rollups_jsonl(rollups)[-1])
        assert "alidrone_rules_evaluated" in text
        assert validate_exposition(text) == []

    def test_json_output_mode(self, capsys):
        import json

        code = main(["--seed", "2", "chaos", "--scenarios", "compliant",
                     "--plans", "baseline", "--zones", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"config", "cells", "invariants", "ok"}

    def test_unknown_plan_rejected(self, capsys):
        code = main(["chaos", "--plans", "not-a-plan"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown fault plan" in captured.err


class TestAttackCommand:
    def test_small_sweep_writes_valid_report(self, tmp_path, capsys):
        """A reduced-trajectory sweep passes invariants and the checker."""
        import json
        import pathlib
        import sys

        target = tmp_path / "attack.json"
        metrics = tmp_path / "metrics.json"
        code = main(["--seed", "3", "attack", "--trajectories", "12",
                     "--out", str(target), "--metrics-json", str(metrics)])
        out = capsys.readouterr().out
        assert code == 0
        assert "attack matrix: 57 cells" in out
        assert "false accepts       : 0" in out
        assert "verdict" in out and "OK" in out

        report = json.loads(target.read_text())
        assert report["ok"] is True
        assert report["conformance"]["trajectories"] == 12

        from repro.obs.prom import to_prometheus, validate_exposition

        rollup = json.loads(metrics.read_text())
        assert rollup["adversary"]["attacks_run"] == 57
        assert rollup["adversary"]["false_accepts"] == 0
        text = to_prometheus(rollup)
        assert "alidrone_adversary_attacks_run 57.0" in text
        assert validate_exposition(text) == []

        sys.path.insert(0, str(pathlib.Path(__file__).parent))
        try:
            from check_attack_output import check_attack
        finally:
            sys.path.pop(0)
        assert check_attack(str(target), min_attacks=8, min_scenarios=3,
                            min_trajectories=12) == []


class TestErrorHandling:
    def test_fixed_policy_without_rate_exits_cleanly(self, capsys):
        code = main(["--key-bits", "512", "simulate", "--zones", "4",
                     "--policy", "fixed"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err
        assert "Traceback" not in captured.err

    def test_audit_batch_rejects_empty_fleet_or_flight(self, capsys):
        for flag in ("--drones", "--samples"):
            for value in ("0", "-1"):
                code = main(["--key-bits", "512", "audit-batch",
                             "--submissions", "2", flag, value])
                err = capsys.readouterr().err
                assert code == 2
                assert err.startswith(f"alidrone: error: {flag} must be")
                assert "Traceback" not in err


class TestDisclosureCommand:
    def test_sweep_writes_validated_report(self, tmp_path, capsys):
        out = tmp_path / "disclosure.json"
        code = main(["disclosure", "--trajectories", "9", "--zones", "4",
                     "--out", str(out)])
        assert code == 0
        prose = capsys.readouterr().out
        assert "verdict" in prose and "OK" in prose

        import json

        from tests.cli.check_disclosure_output import check_disclosure
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert check_disclosure(str(out), min_trajectories=9) == []

    def test_json_mode_prints_report(self, capsys):
        code = main(["disclosure", "--trajectories", "6", "--zones", "3",
                     "--json"])
        assert code == 0
        import json
        doc = json.loads(capsys.readouterr().out)
        assert doc["trajectories"] == 6
        assert doc["adversarial_false_accepts"] == 0
