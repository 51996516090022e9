"""Tests for repro.obs.export: JSONL round-trips and tree rendering."""

import json

import pytest

from repro.obs import (
    Span,
    TelemetryHub,
    Tracer,
    format_tree,
    read_rollup_json,
    read_spans_jsonl,
    spans_to_jsonl,
    write_metrics_json,
    write_spans_jsonl,
)


@pytest.fixture()
def spans():
    tracer = Tracer()
    with tracer.span("flight", policy="adaptive"):
        with tracer.span("sampling.auth_sample"):
            pass
        with tracer.span("net.stream.push", sequence=0):
            pass
    return tracer.spans


class TestJsonl:
    def test_one_object_per_line(self, spans):
        lines = spans_to_jsonl(spans).splitlines()
        assert len(lines) == len(spans)
        for line in lines:
            row = json.loads(line)
            assert {"name", "span_id", "trace_id", "parent_id",
                    "start_s", "end_s", "duration_s",
                    "status", "attributes"} <= set(row)

    def test_file_round_trip(self, spans, tmp_path):
        path = write_spans_jsonl(tmp_path / "trace.jsonl", spans)
        assert read_spans_jsonl(path) == spans

    def test_empty_export_writes_empty_file(self, tmp_path):
        path = write_spans_jsonl(tmp_path / "trace.jsonl", [])
        assert path.read_text() == ""
        assert read_spans_jsonl(path) == []


class TestFormatTree:
    def test_indents_children_under_parent(self, spans):
        text = format_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert "  - flight" in text
        assert "    - sampling.auth_sample" in text
        assert "policy='adaptive'" in text

    def test_children_ordered_by_start_time(self, spans):
        text = format_tree(spans)
        assert text.index("sampling.auth_sample") < \
            text.index("net.stream.push")

    def test_orphan_parent_promoted_to_root(self):
        orphan = Span(name="lost", span_id="s9", trace_id="t1",
                      parent_id="missing", start_s=0.0, end_s=2.0)
        text = format_tree([orphan])
        assert "- lost 2.000s" in text

    def test_error_status_marked(self):
        span = Span(name="boom", span_id="s1", trace_id="t1",
                    parent_id=None, start_s=0.0, end_s=0.001,
                    status="error")
        assert "!error" in format_tree([span])

    def test_open_span_rendered_as_open(self):
        span = Span(name="pending", span_id="s1", trace_id="t1",
                    parent_id=None, start_s=0.0)
        assert "(open)" in format_tree([span])


class TestMetricsJson:
    def test_writes_snapshot(self, tmp_path):
        hub = TelemetryHub()
        hub.mark("audit.batches", now=1.0, amount=3)
        hub.add_section("events", lambda: {"total": 2})
        path = write_metrics_json(tmp_path / "metrics.json", hub.rollup(1.0))
        parsed = json.loads(path.read_text())
        assert parsed == json.loads(json.dumps(hub.rollup(1.0)))
        assert parsed["counters"]["audit.batches"]["cumulative"] == 3
        assert read_rollup_json(path) == parsed
