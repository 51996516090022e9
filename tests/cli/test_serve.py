"""Tests for ``alidrone serve`` and its CI schema checker.

``serve`` is the one-shot driver of the persistent auditor service: a
Poisson fleet over a virtual clock, sharded draining, a durable store
and monitor-rule evaluation per tick.  The suite runs the real CLI
entrypoint (``main``) and validates its JSON with the same
``check_service_output.py`` script the CI smoke job uses.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.cli.main import main

_CHECKER_PATH = pathlib.Path(__file__).parent / "check_service_output.py"
_spec = importlib.util.spec_from_file_location("check_service_output",
                                               _CHECKER_PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def run_serve(capsys, *extra):
    argv = ["serve", "--ticks", "12", "--rate", "2.0", "--drones", "4",
            "--samples", "3", "--shards", "2", "--json", *extra]
    code = main(argv)
    return code, capsys.readouterr().out


class TestServeJson:
    def test_clean_run_passes_checker(self, tmp_path, capsys):
        code, out = run_serve(capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["stats"]["audited"] > 0
        assert doc["stats"]["audited"] == doc["stats"]["accepted"]
        assert doc["store"]["pending"] == 0
        assert len(doc["stats"]["per_shard_audited"]) == 2
        path = tmp_path / "serve.json"
        path.write_text(out)
        assert checker.check_serve(str(path)) == []
        assert checker.main(["--serve", str(path),
                             "--min-audited", "5"]) == 0

    def test_deterministic_across_runs(self, capsys):
        _, first = run_serve(capsys)
        _, second = run_serve(capsys)
        a, b = json.loads(first), json.loads(second)
        # Only the wall-clock latency observations vary run to run.
        for doc in (a, b):
            del doc["intake_p99_s"], doc["store_p99_s"]
        assert a == b

    def test_admission_limit_sheds_and_still_exits_zero(self, capsys):
        code, out = run_serve(capsys, "--rate", "6.0",
                              "--admission-rate", "1.0",
                              "--admission-burst", "2.0")
        assert code == 0
        doc = json.loads(out)
        stats = doc["stats"]
        assert stats["shed_rate_limited"] > 0
        assert stats["submitted"] == (stats["accepted"]
                                      + stats["deduplicated"]
                                      + stats["shed"])
        # Shedding is back-pressure, not failure: the run is still ok.
        assert doc["ok"] is True

    def test_prose_mode(self, capsys):
        code = main(["serve", "--ticks", "8", "--drones", "3",
                     "--samples", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serve: 8 tick(s)" in out
        assert "verdict         OK" in out


class TestServeDurableStore:
    def test_rerun_on_same_store_dedups_everything(self, tmp_path, capsys):
        store = tmp_path / "flights.db"
        args = ("--store", str(store), "--ticks", "10", "--drones", "3",
                "--samples", "3")
        code, out = run_serve(capsys, *args)
        first = json.loads(out)
        assert code == 0
        assert first["stats"]["deduplicated"] == 0
        submissions = first["store"]["submissions"]
        assert submissions == first["stats"]["accepted"]

        # Same seed, same store: every arrival is a retransmission.
        code, out = run_serve(capsys, *args)
        second = json.loads(out)
        assert code == 0
        assert second["stats"]["accepted"] == 0
        assert second["stats"]["deduplicated"] == first["stats"]["accepted"]
        assert second["store"]["submissions"] == submissions
        assert second["store"]["pending"] == 0
        # The zone registered again on the re-run is the stored one.
        assert first["store"]["zones"] == second["store"]["zones"] == 1

    def test_store_of_another_seed_is_refused(self, tmp_path, capsys):
        """The store holds the seed-0 auditor key; a seed-9 run derives
        another key and must stop with a one-line error."""
        store = tmp_path / "flights.db"
        args = ("--store", str(store), "--ticks", "4", "--drones", "2",
                "--samples", "3")
        code, _ = run_serve(capsys, *args)
        assert code == 0
        code = main(["serve", "--json", *args, "--seed", "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("alidrone: error:")
        assert "encryption key" in captured.err

    def test_store_that_is_not_a_database_is_refused(self, tmp_path, capsys):
        notes = tmp_path / "notes.txt"
        notes.write_text("shopping list\n" * 40)
        code = main(["serve", "--json", "--store", str(notes)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("alidrone: error:")
        assert "not a flight store" in captured.err

    def test_store_path_reported(self, tmp_path, capsys):
        store = tmp_path / "flights.db"
        _, out = run_serve(capsys, "--store", str(store))
        assert json.loads(out)["store"]["path"] == str(store)


class TestServiceChecker:
    def test_checker_is_stdlib_only(self):
        source = _CHECKER_PATH.read_text()
        assert "import repro" not in source
        assert "from repro" not in source

    def test_rejects_broken_accounting(self, tmp_path, capsys):
        _, out = run_serve(capsys)
        doc = json.loads(out)
        doc["stats"]["accepted"] += 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        problems = checker.check_serve(str(path))
        assert problems
        assert any("submitted" in p for p in problems)

    def test_rejects_pending_store_and_page_alerts(self, tmp_path, capsys):
        _, out = run_serve(capsys)
        doc = json.loads(out)
        doc["store"]["pending"] = 2
        doc["alerts"] = [{"rule": "verifier_error_rate",
                         "severity": "page", "t": 0.0}]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        problems = checker.check_serve(str(path))
        assert any("unaudited" in p for p in problems)
        assert any("page-severity" in p for p in problems)

    def test_rejects_missing_fields_and_low_volume(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert checker.check_serve(str(path))

        _, out = run_serve(capsys)
        ok_path = tmp_path / "ok.json"
        ok_path.write_text(out)
        with pytest.raises(SystemExit):
            checker.main([])  # nothing to check
        assert checker.main(["--serve", str(ok_path),
                             "--min-audited", "10000"]) == 1
