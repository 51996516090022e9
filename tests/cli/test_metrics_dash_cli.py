"""CLI tests for the `alidrone metrics` and `alidrone dash` subcommands."""

import json

import pytest

from repro.cli.main import main
from repro.obs.hub import TelemetryHub, read_rollups_jsonl
from repro.obs.prom import validate_exposition


STAGES = ("crypto", "decode", "disclosure", "feasibility", "ordering",
          "signature", "sufficiency")

#: Every name the ``{name: {"type": ...}}`` snapshot of
#: ``alidrone --key-bits 512 metrics`` printed before the rollup became
#: the one metrics document, with the count it printed (None marks a
#: wall-clock timing) and the rollup path that now carries it.  A
#: histogram's ``count``/``sum``/``mean``/``std`` fields are listed as
#: ``<name>:<field>``.
SNAPSHOT_TO_ROLLUP = {
    **{name: (path, count) for stage in STAGES for name, path, count in (
        (f"audit.{stage}.runs", ("stages", stage, "runs"), 4),
        (f"audit.{stage}.samples", ("stages", stage, "samples"),
         12 if stage in ("disclosure", "feasibility", "sufficiency")
         else 16),
        (f"audit.{stage}.total_seconds",
         ("stages", stage, "total_seconds"), None),
        (f"audit.{stage}.seconds:count", ("stages", stage, "runs"), 4),
        (f"audit.{stage}.seconds:sum",
         ("stages", stage, "total_seconds"), None),
        (f"audit.{stage}.seconds:mean",
         ("stages", stage, "mean_seconds"), None),
        (f"audit.{stage}.seconds:std",
         ("stages", stage, "std_seconds"), None))},
    "audit.zone_index.builds": (("gauges", "audit.zone_index.builds"), 1),
    "audit.zone_index.cache_hits": (
        ("gauges", "audit.zone_index.cache_hits"), 0),
    "audit.zone_index.candidates": (("zone_index", "candidates"), 0),
    "audit.zone_index.cutoff_exits": (("zone_index", "cutoff_exits"), 12),
    "audit.zone_index.mean_candidates_per_query": (
        ("zone_index", "mean_candidates_per_query"), 0),
    "audit.zone_index.mean_rings_per_query": (
        ("zone_index", "mean_rings_per_query"), 0),
    "audit.zone_index.queries": (("zone_index", "queries"), 12),
    "audit.zone_index.rings": (("zone_index", "rings"), 0),
    "server.events.kind.batch_audited": (
        ("events", "kind", "batch_audited"), 1),
    "server.events.kind.drone_registered": (
        ("events", "kind", "drone_registered"), 2),
    "server.events.kind.poa_received": (("events", "kind", "poa_received"), 4),
    "server.events.kind.service_drained": (
        ("events", "kind", "service_drained"), 1),
    "server.events.total": (("events", "total"), 8),
    "server.registered_drones": (("gauges", "server.registered_drones"), 2),
    "server.retained_submissions": (
        ("gauges", "server.retained_submissions"), 4),
}


@pytest.mark.slow
class TestMetricsCommand:
    def test_json_output(self, capsys):
        code = main(["--key-bits", "512", "metrics"])
        assert code == 0
        rollup = json.loads(capsys.readouterr().out)
        assert {"t", "window_s", "counters", "quantiles", "gauges",
                "stages", "zone_index", "events"} <= set(rollup)
        assert rollup["counters"]["audit.submissions"]["cumulative"] == 4
        # Deterministic export: keys arrive sorted.
        assert list(rollup) == sorted(rollup)

    def test_every_snapshot_name_maps_into_the_rollup(self, capsys):
        assert main(["--key-bits", "512", "metrics"]) == 0
        rollup = json.loads(capsys.readouterr().out)
        # The snapshot printed 43 names.
        assert len({name.partition(":")[0]
                    for name in SNAPSHOT_TO_ROLLUP}) == 43
        for name, (path, count) in SNAPSHOT_TO_ROLLUP.items():
            value = rollup
            for key in path:
                value = value[key]
            if count is None:
                assert isinstance(value, float) and value >= 0.0, name
            else:
                assert value == count, name

    def test_prometheus_output_validates(self, capsys):
        code = main(["--key-bits", "512", "metrics", "--prometheus"])
        assert code == 0
        text = capsys.readouterr().out
        assert validate_exposition(text) == []
        assert "# TYPE alidrone_" in text

    def test_from_json_round_trip(self, tmp_path, capsys):
        hub = TelemetryHub()
        hub.mark("hits", now=1.0, amount=3)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(hub.rollup(1.0)))
        code = main(["metrics", "--prometheus", "--from-json", str(path)])
        assert code == 0
        assert "alidrone_hits_total 3.0" in capsys.readouterr().out
        assert main(["metrics", "--from-json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == hub.rollup(1.0)

    def test_from_json_rejects_non_dict(self, tmp_path, capsys):
        """Anything but one rollup object exits 2 with one line."""
        path = tmp_path / "bad.json"
        for text in ("[1, 2]", "not json",
                     '{"hits": {"type": "counter", "value": 3}}',
                     '{"counters": {"hits": {"total": 1}}, '
                     '"quantiles": {}, "gauges": {}}'):
            path.write_text(text)
            assert main(["metrics", "--from-json", str(path)]) == 2, text
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("alidrone:"), text
        missing = tmp_path / "missing.json"
        assert main(["metrics", "--from-json", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("alidrone: error:")


@pytest.mark.slow
class TestDashCommand:
    def test_chaos_dash_honest_run(self, tmp_path, capsys):
        rollups = tmp_path / "rollups.jsonl"
        code = main(["--seed", "1", "dash", "--run", "chaos",
                     "--plans", "baseline", "--plain",
                     "--rollup-jsonl", str(rollups)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out
        assert "alerts (0 firing)" in out
        lines = read_rollups_jsonl(rollups)
        assert lines
        assert all(not line["alerts_fired"] for line in lines)
        # A rollup line is the same document the exporter renders.
        last = tmp_path / "last.json"
        last.write_text(json.dumps(lines[-1]))
        assert main(["metrics", "--prometheus", "--from-json",
                     str(last)]) == 0
        text = capsys.readouterr().out
        assert validate_exposition(text) == []
        assert "alidrone_audit_submissions_total" in text

    def test_unknown_plan_rejected(self):
        assert main(["dash", "--run", "chaos",
                     "--plans", "nonesuch", "--plain"]) == 2
