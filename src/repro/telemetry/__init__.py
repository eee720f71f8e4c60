"""Telemetry: unified metrics registry, trace spans, and stat polling.

One observability layer for the whole reproduction (see
``docs/OBSERVABILITY.md`` for the metric catalog):

* :class:`MetricsRegistry` — counters / gauges / histograms with labels,
  timestamped on the virtual clock; :class:`NullRegistry` is the
  near-zero-overhead default that still backs the legacy stats views.
* :class:`Tracer` — nested spans following one packet uid from arrival
  through pipeline tables to monitor stage advances and violations,
  serialized as JSONL.
* :class:`StatsPoller` — periodic gauge sampling on a virtual-time
  interval (the Ryu ``bandwidth_monitor`` pattern, minus gevent).
* :func:`render_prometheus` / :func:`render_json` — snapshot exposition.
"""

from .exposition import render_json, render_prometheus
from .metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_HISTOGRAM,
    NullRegistry,
    StatsView,
)
from .poller import StatsPoller
from .tracing import (
    NULL_TRACER,
    TRACE_SAMPLE_EVERY,
    NullTracer,
    Span,
    SpanWriter,
    Tracer,
    dump_spans,
    load_spans,
    save_spans,
    uid_sampled,
    validate_spans,
)

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_HISTOGRAM",
    "NullRegistry",
    "StatsView",
    "StatsPoller",
    "NULL_TRACER",
    "TRACE_SAMPLE_EVERY",
    "NullTracer",
    "Span",
    "SpanWriter",
    "Tracer",
    "dump_spans",
    "load_spans",
    "save_spans",
    "uid_sampled",
    "validate_spans",
    "render_json",
    "render_prometheus",
    "snapshot_digest",
]


def snapshot_digest(registry: MetricsRegistry, limit: int = 8) -> str:
    """One-line counter digest for benchmark output footers."""
    parts = []
    for family in registry.families():
        if family.kind != "counter":
            continue
        total = sum(cell.value for cell in family.cells.values())  # type: ignore[union-attr]
        if total:
            short = family.name.replace("repro_", "", 1)
            value = int(total) if total == int(total) else round(total, 6)
            parts.append(f"{short}={value}")
    shown = parts[:limit]
    suffix = f" (+{len(parts) - limit} more)" if len(parts) > limit else ""
    return f"telemetry: {', '.join(shown) or 'no samples'}{suffix}"
