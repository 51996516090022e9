"""Tests for repro.perf.meter: StageMetrics accumulation."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.meter import StageMetrics


@pytest.fixture()
def metrics():
    m = StageMetrics()
    m.record("signature", 0.010, 8)
    m.record("signature", 0.030, 8)
    m.record("decode", 0.001, 8)
    return m


class TestStageMetrics:
    def test_stages_in_first_recorded_order(self, metrics):
        assert metrics.stages() == ["signature", "decode"]
        assert list(metrics) == ["signature", "decode"]
        assert len(metrics) == 2

    def test_totals(self, metrics):
        assert metrics.runs("signature") == 2
        assert metrics.total_seconds("signature") == pytest.approx(0.040)
        assert metrics.total_samples("signature") == 16
        assert metrics.runs("never-ran") == 0
        assert metrics.total_seconds("never-ran") == 0.0

    def test_timing_distribution(self, metrics):
        timing = metrics.timing("signature")
        assert timing.mean == pytest.approx(0.020)
        assert timing.std == pytest.approx(0.010)
        assert timing.n == 2
        with pytest.raises(ConfigurationError):
            metrics.timing("never-ran")

    def test_summary_covers_all_stages(self, metrics):
        summary = metrics.summary()
        assert set(summary) == {"signature", "decode"}
        assert summary["decode"].mean == pytest.approx(0.001)

    def test_format_mentions_every_stage(self, metrics):
        text = metrics.format(digits=3)
        assert "signature" in text and "decode" in text
        assert "runs=2" in text


class TestStageMetricsEdgeCases:
    def test_timing_unknown_stage_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            StageMetrics().timing("signature")

    def test_format_with_zero_sample_stages(self):
        metrics = StageMetrics()
        metrics.record("screen", 0.004, 0)
        text = metrics.format(digits=3)
        assert "screen" in text
        assert "samples=0" in text
        assert metrics.total_samples("screen") == 0

    def test_format_empty_metrics_is_empty(self):
        assert StageMetrics().format() == ""
