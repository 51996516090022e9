"""Tests for repro.obs.trace: spans, tracers, and the global hook."""

import pytest

from repro.obs import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class FakeClock:
    """A deterministic monotonic clock that ticks on every read."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture()
def tracer():
    return Tracer(clock=FakeClock())


class TestSpanLifecycle:
    def test_root_span_opens_new_trace(self, tracer):
        span = tracer.start_span("root")
        assert span.parent_id is None
        assert span.trace_id
        assert span.end_s is None and span.duration_s is None

    def test_nested_spans_share_trace_and_link_parent(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None

    def test_sibling_roots_get_distinct_traces(self, tracer):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_end_span_records_duration_and_retains(self, tracer):
        span = tracer.start_span("op")
        tracer.end_span(span)
        assert span.duration_s == pytest.approx(1.0)
        assert tracer.spans == [span]
        assert len(tracer) == 1

    def test_end_span_pops_open_children(self, tracer):
        outer = tracer.start_span("outer")
        tracer.start_span("leaked-child")
        tracer.end_span(outer)
        assert tracer.current_span is None

    def test_exception_marks_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert tracer.spans[-1].status == "error"
        assert tracer.current_span is None

    def test_attributes_via_kwargs_and_setter(self, tracer):
        with tracer.span("op", command="GetGPSAuth") as span:
            span.set_attribute("samples", 8)
        assert span.attributes == {"command": "GetGPSAuth", "samples": 8}

    def test_span_dict_round_trip(self, tracer):
        with tracer.span("op", key_bits=512) as span:
            pass
        clone = Span.from_dict(span.to_dict())
        assert clone == span


class TestTracerIdentity:
    def test_span_ids_unique_across_tracers(self):
        a, b = Tracer(), Tracer()
        span_a = a.end_span(a.start_span("x"))
        span_b = b.end_span(b.start_span("x"))
        assert span_a.span_id != span_b.span_id
        assert span_a.trace_id != span_b.trace_id

    def test_clear_drops_finished_spans(self, tracer):
        tracer.end_span(tracer.start_span("x"))
        tracer.clear()
        assert len(tracer) == 0


class TestGlobalTracer:
    def test_default_is_noop(self):
        tracer = get_tracer()
        assert isinstance(tracer, NoopTracer)
        assert not tracer.enabled

    def test_truthiness_means_tracing_live(self):
        # An empty-but-real tracer must not read as False in guards.
        assert bool(Tracer())
        assert not bool(NOOP_TRACER)

    def test_noop_costs_nothing_and_collects_nothing(self):
        with NOOP_TRACER.span("op", a=1) as span:
            span.set_attribute("b", 2)
        assert len(NOOP_TRACER) == 0
        assert NOOP_TRACER.spans == ()

    def test_use_tracer_scopes_and_restores(self):
        before = get_tracer()
        with use_tracer() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before

    def test_use_tracer_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(RuntimeError):
            with use_tracer():
                raise RuntimeError
        assert get_tracer() is before

    def test_set_tracer_returns_previous(self):
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert get_tracer() is mine
        finally:
            assert set_tracer(previous) is mine
