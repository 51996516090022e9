"""Tests for repro.obs.prom: exposition rendering and grammar checking."""

from repro.obs.prom import (
    prometheus_name,
    to_prometheus,
    validate_exposition,
)


class TestPrometheusName:
    def test_dots_map_to_underscores_under_prefix(self):
        assert (prometheus_name("audit.intake.seconds")
                == "alidrone_audit_intake_seconds")

    def test_hostile_characters_sanitized(self):
        name = prometheus_name("weird metric-name!")
        assert name == "alidrone_weird_metric_name_"

    def test_custom_prefix(self):
        assert prometheus_name("x", prefix="p_") == "p_x"


def rollup(**sections):
    """A minimal rollup document with the given sections filled in."""
    document = {"t": 5.0, "window_s": 60.0, "counters": {},
                "quantiles": {}, "gauges": {}}
    document.update(sections)
    return document


class TestToPrometheus:
    def test_counter_and_gauge(self):
        text = to_prometheus(rollup(
            counters={"hits": {"total": 2.0, "rate": 0.1,
                               "cumulative": 5.0}},
            gauges={"depth": 2.5}))
        assert "# TYPE alidrone_hits_total counter" in text
        assert "alidrone_hits_total 5.0" in text
        assert "# TYPE alidrone_depth gauge" in text
        assert "alidrone_depth 2.5" in text
        assert validate_exposition(text) == []

    def test_histogram_becomes_summary(self):
        text = to_prometheus(rollup(quantiles={
            "lat": {"count": 4, "sum": 1.0, "mean": 0.25, "min": 0.1,
                    "max": 0.5, "p50": 0.2, "p90": 0.4, "p95": 0.45,
                    "p99": 0.5},
            "idle": {"count": 0}}))
        assert "# TYPE alidrone_lat summary" in text
        assert 'alidrone_lat{quantile="0.5"} 0.2' in text
        assert 'alidrone_lat{quantile="0.99"} 0.5' in text
        assert "alidrone_lat_sum 1.0" in text
        assert "alidrone_lat_count 4.0" in text
        assert "alidrone_idle_count 0.0" in text
        assert "alidrone_lat_mean" not in text
        assert validate_exposition(text) == []

    def test_unknown_type_with_value_is_untyped(self):
        """Numbers under any other top-level key are untyped samples
        named by their dotted path."""
        text = to_prometheus(rollup(
            stages={"decode": {"runs": 3, "mean_seconds": 0.5}},
            rules_evaluated=7))
        assert "# TYPE alidrone_stages_decode_runs untyped" in text
        assert "alidrone_stages_decode_runs 3.0" in text
        assert "alidrone_stages_decode_mean_seconds 0.5" in text
        assert "alidrone_rules_evaluated 7.0" in text
        assert validate_exposition(text) == []

    def test_unknown_type_without_value_skipped(self):
        """Strings, lists, booleans, ``t`` and ``window_s`` are skipped."""
        assert to_prometheus(rollup(
            alerts_firing=["queue_backlog"], alerts_fired=[{"value": 1.0}],
            note={"label": "x", "ok": True})) == ""

    def test_nan_and_inf_render(self):
        text = to_prometheus(rollup(gauges={
            "a": float("nan"), "b": float("inf"), "c": float("-inf")}))
        assert "alidrone_a NaN" in text
        assert "alidrone_b +Inf" in text
        assert "alidrone_c -Inf" in text
        assert validate_exposition(text) == []

    def test_output_sorted_and_deterministic(self):
        document = rollup(gauges={"z": 1.0, "a": 2.0},
                          extra={"m": 3})
        text = to_prometheus(document)
        assert text.index("alidrone_a") < text.index("alidrone_extra_m")
        assert text.index("alidrone_extra_m") < text.index("alidrone_z")
        assert text == to_prometheus(dict(reversed(list(document.items()))))

    def test_one_family_per_name(self):
        """Names that sanitize alike render once: the first instrument
        (counters, sketches, gauges, then sections) claims the name."""
        text = to_prometheus(rollup(
            quantiles={"lat": {"count": 1, "sum": 2.0}},
            gauges={"lat.sum": 9.0, "depth": 1.0},
            x={"depth": 4}, **{"x.depth": 5}))
        assert text.count("# TYPE alidrone_lat_sum") == 0
        assert "alidrone_lat_sum 2.0" in text
        assert text.count("# TYPE alidrone_x_depth untyped") == 1
        assert "alidrone_x_depth 4.0" in text
        assert validate_exposition(text) == []


class TestValidateExposition:
    def test_undeclared_sample_flagged(self):
        problems = validate_exposition("mystery 1.0\n")
        assert any("no TYPE declaration" in p for p in problems)

    def test_malformed_sample_flagged(self):
        text = "# TYPE m counter\nm one_point_zero\n"
        assert any("unparseable value" in p
                   for p in validate_exposition(text))

    def test_unknown_type_flagged(self):
        assert any("unknown type" in p
                   for p in validate_exposition("# TYPE m widget\n"))

    def test_blank_line_flagged(self):
        text = "# TYPE m counter\n\nm 1.0\n"
        assert any("blank line" in p for p in validate_exposition(text))

    def test_summary_children_resolve_to_family(self):
        text = ("# TYPE m summary\n"
                'm{quantile="0.5"} 1.0\n'
                "m_sum 2.0\n"
                "m_count 2.0\n")
        assert validate_exposition(text) == []
