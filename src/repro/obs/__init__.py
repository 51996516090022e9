"""``repro.obs`` — the unified telemetry layer.

End-to-end tracing, metrics snapshots of the live accumulators
(:mod:`repro.obs.adapters`), and the streaming fleet-scale layer:
windowed time-series instruments (:mod:`repro.obs.timeseries`), the
rollup hub (:mod:`repro.obs.hub`, the one instrument API),
SLO monitor rules (:mod:`repro.obs.monitor`), Prometheus exposition
(:mod:`repro.obs.prom`), and the live terminal dashboard
(:mod:`repro.obs.dash`).  See ``docs/OBSERVABILITY.md`` for the API
walkthrough, alert-rule catalogue, and exporter formats.
"""

from repro.obs.adapters import (
    attack_stats_snapshot,
    event_log_snapshot,
    fault_stats_snapshot,
    link_stats_snapshot,
    retry_stats_snapshot,
    smc_stats_snapshot,
    stage_metrics_snapshot,
    zone_index_stats_snapshot,
)
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
    "attack_stats_snapshot",
    "builtin_rules",
    "event_log_snapshot",
    "fault_stats_snapshot",
    "flatten_rollup",
    "format_tree",
    "get_tracer",
    "link_stats_snapshot",
    "read_rollups_jsonl",
    "read_spans_jsonl",
    "retry_stats_snapshot",
    "set_tracer",
    "smc_stats_snapshot",
    "spans_to_jsonl",
    "sparkline",
    "stage_metrics_snapshot",
    "to_prometheus",
    "use_tracer",
    "validate_exposition",
    "write_metrics_json",
    "write_spans_jsonl",
    "zone_index_stats_snapshot",
]
