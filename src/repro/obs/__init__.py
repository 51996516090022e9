"""``repro.obs`` — the unified telemetry layer.

End-to-end tracing and the streaming fleet-scale layer: windowed
time-series instruments (:mod:`repro.obs.timeseries`), the rollup hub
(:mod:`repro.obs.hub`, the one instrument API, whose rollup is the one
metrics document), SLO monitor rules (:mod:`repro.obs.monitor`),
Prometheus exposition of a rollup (:mod:`repro.obs.prom`), and the live
terminal dashboard (:mod:`repro.obs.dash`).  See ``docs/OBSERVABILITY.md``
for the API walkthrough, alert-rule catalogue, and exporter formats.
"""

from repro.obs.dash import Dashboard, LiveTelemetrySession, sparkline
from repro.obs.export import (
    format_tree,
    read_spans_jsonl,
    spans_to_jsonl,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.hub import (
    RollupWriter,
    TelemetryHub,
    flatten_rollup,
    read_rollup_json,
    read_rollups_jsonl,
)
from repro.obs.monitor import (
    Alert,
    MonitorEngine,
    MonitorRule,
    builtin_rules,
)
from repro.obs.prom import to_prometheus, validate_exposition
from repro.obs.timeseries import (
    QuantileSketch,
    WindowedCounter,
    WindowedRate,
    WindowedSketch,
)
from repro.obs.trace import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "NOOP_TRACER",
    "Alert",
    "Dashboard",
    "LiveTelemetrySession",
    "MonitorEngine",
    "MonitorRule",
    "NoopTracer",
    "QuantileSketch",
    "RollupWriter",
    "Span",
    "TelemetryHub",
    "Tracer",
    "WindowedCounter",
    "WindowedRate",
    "WindowedSketch",
    "builtin_rules",
    "flatten_rollup",
    "format_tree",
    "get_tracer",
    "read_rollup_json",
    "read_rollups_jsonl",
    "read_spans_jsonl",
    "set_tracer",
    "spans_to_jsonl",
    "sparkline",
    "to_prometheus",
    "use_tracer",
    "validate_exposition",
    "write_metrics_json",
    "write_spans_jsonl",
]
