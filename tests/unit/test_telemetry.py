"""Unit tests: the telemetry subsystem (registry, exposition, tracing,
poller) and the stats views layered on top of it.

The renderers are pinned: regenerate the goldens deliberately with
``python -m tests.regen_telemetry_goldens``.
"""

import io
import os

import pytest

from repro.core import Bind, EventKind, EventPattern, FieldEq, Monitor, Observe, PropertySpec, Var
from repro.core.postcards import PostcardCollector, PostcardMonitor
from repro.packet import ethernet
from repro.switch.events import PacketArrival
from repro.switch.switch import ProcessingMode
from repro.telemetry import (
    NULL_HISTOGRAM,
    MetricsRegistry,
    NullRegistry,
    Span,
    StatsPoller,
    Tracer,
    dump_spans,
    load_spans,
    render_json,
    render_prometheus,
    snapshot_digest,
    validate_spans,
)
from repro.telemetry.metrics import COUNT_BUCKETS, LATENCY_BUCKETS, Histogram
from tests.regen_telemetry_goldens import GOLDEN, build_scenario_registry


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fp:
        return fp.read()


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_labeled_cells_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels={"k": "a"})
        b = registry.counter("x_total", labels={"k": "b"})
        assert a is not b
        assert registry.counter("x_total", labels={"k": "a"}) is a

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_gauge_watermark_survives_drops(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(7)
        g.set(2)
        g.inc(1)
        g.dec(3)
        assert g.value == 0
        assert g.high_watermark == 7

    def test_histogram_buckets_and_extremes(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            h.observe(value)
        assert h.count == 3
        assert h.sum == 55.5
        assert (h.min, h.max) == (0.5, 50.0)
        assert h.cumulative() == [(1.0, 1), (10.0, 2), (float("inf"), 3)]

    @pytest.mark.parametrize("bounds", [COUNT_BUCKETS, LATENCY_BUCKETS])
    def test_bucket_lookup_is_the_linear_le_scan(self, bounds):
        """The bisected lookup picks the bucket the definition does: the
        first bound >= value, else +Inf — on every bound, every midpoint,
        below the first and above the last."""
        def linear(value):
            for i, bound in enumerate(bounds):
                if value <= bound:
                    return i
            return len(bounds)

        values = list(bounds) + [bounds[0] / 2, -1.0, 0.0, bounds[-1] * 2]
        values += [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
        for value in values:
            h = Histogram(bounds)
            h.observe(value)
            assert h.bucket_counts.index(1) == linear(value), value

    def test_snapshot_carries_virtual_time(self):
        registry = MetricsRegistry(time_fn=lambda: 42.0)
        registry.counter("x_total").inc()
        snap = registry.snapshot()
        assert snap["time"] == 42.0
        assert [m["name"] for m in snap["metrics"]] == ["x_total"]


class TestNullRegistry:
    def test_disabled_but_cells_still_count(self):
        registry = NullRegistry()
        assert registry.enabled is False
        c = registry.counter("x_total")
        c.inc(5)
        assert c.value == 5
        assert registry.counter("x_total") is c

    def test_histograms_are_shared_noop(self):
        registry = NullRegistry()
        h = registry.histogram("h")
        assert h is NULL_HISTOGRAM
        h.observe(1.0)
        assert h.count == 0

    def test_snapshot_is_empty(self):
        registry = NullRegistry()
        registry.counter("x_total").inc()
        assert registry.snapshot()["metrics"] == []


class TestExpositionGoldens:
    def test_prometheus_text_matches_golden(self):
        snapshot = build_scenario_registry().snapshot()
        assert render_prometheus(snapshot) == golden("snapshot.prom")

    def test_json_matches_golden(self):
        snapshot = build_scenario_registry().snapshot()
        assert render_json(snapshot) + "\n" == golden("snapshot.json")

    def test_json_is_deterministic(self):
        a = render_json(build_scenario_registry().snapshot())
        b = render_json(build_scenario_registry().snapshot())
        assert a == b

    def test_digest_names_top_counters(self):
        digest = snapshot_digest(build_scenario_registry())
        assert digest.startswith("telemetry: ")
        assert "monitor_events_total=86" in digest


class TestPrometheusEscaping:
    """Label values and help text follow the text-exposition spec."""

    def render(self, label_value, help_text="help"):
        registry = MetricsRegistry()
        registry.counter("x_total", help_text,
                         labels={"k": label_value}).inc(1)
        return render_prometheus(registry.snapshot())

    def test_double_quote_escaped(self):
        assert 'x_total{k="say \\"hi\\""} 1' in self.render('say "hi"')

    def test_newline_escaped(self):
        text = self.render("line1\nline2")
        assert 'x_total{k="line1\\nline2"} 1' in text
        # The sample must stay on one physical line.
        assert all(line.startswith(("#", "x_total"))
                   for line in text.strip().splitlines())

    def test_backslash_escaped(self):
        assert 'x_total{k="a\\\\b"} 1' in self.render("a\\b")

    def test_backslash_before_quote_does_not_unescape(self):
        # Adversarial: a literal backslash-then-quote must render as
        # escaped-backslash escaped-quote, not as an escaped quote alone.
        assert 'x_total{k="a\\\\\\"b"} 1' in self.render('a\\"b')

    def test_help_newline_and_backslash_escaped(self):
        text = self.render("v", help_text="first\nsecond \\ third")
        assert "# HELP x_total first\\nsecond \\\\ third" in text

    def test_gauge_peak_gets_its_own_type_line(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth", "queue depth")
        g.set(9)
        g.set(4)
        text = render_prometheus(registry.snapshot())
        lines = text.strip().splitlines()
        assert "# TYPE depth gauge" in lines
        assert "# TYPE depth_peak gauge" in lines
        # All depth_peak samples come after their TYPE header.
        assert lines.index("# TYPE depth_peak gauge") \
            < lines.index("depth_peak 9")

    def test_labeled_gauge_peaks_grouped_under_one_header(self):
        registry = MetricsRegistry()
        registry.gauge("depth", labels={"q": "a"}).set(1)
        registry.gauge("depth", labels={"q": "b"}).set(2)
        lines = render_prometheus(registry.snapshot()).strip().splitlines()
        assert lines.count("# TYPE depth_peak gauge") == 1
        header = lines.index("# TYPE depth_peak gauge")
        assert lines[header + 1] == 'depth_peak{q="a"} 1'
        assert lines[header + 2] == 'depth_peak{q="b"} 2'


class TestStatsPoller:
    def test_samples_on_interval(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        poller = StatsPoller(registry, interval=1.0)
        g.set(3)
        assert poller.advance_to(2.5) == 2
        g.set(8)
        poller.advance_to(3.0)
        times = [s["time"] for s in poller.samples]
        assert times == [1.0, 2.0, 3.0]
        assert poller.samples[0]["values"]["depth"] == 3
        assert poller.samples[-1]["values"]["depth"] == 8


ECHO = PropertySpec(
    name="echo", description="response to a request",
    stages=(
        Observe("request", EventPattern(
            kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
        Observe("response", EventPattern(
            kind=EventKind.ARRIVAL,
            guards=(FieldEq("eth.dst", Var("S")),))),
    ),
    key_vars=("S",),
)


def drive_split(registry=None, pairs=5, lag=1.0):
    monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=lag,
                      registry=registry)
    monitor.add_property(ECHO)
    t = 0.0
    for i in range(pairs):
        monitor.observe(PacketArrival(
            switch_id="s", time=t, packet=ethernet(i + 1, 0xFFFF), in_port=1))
        t += 1e-4
    return monitor


class TestSplitModeStats:
    def test_peak_pending_ops_tracks_queue_depth(self):
        monitor = drive_split(pairs=5, lag=1.0)
        # All five create-ops are still queued: the watermark saw them all.
        assert monitor.stats.peak_pending_ops == 5
        monitor.advance_to(100.0)
        # Draining applies the ops but never lowers the recorded peak.
        assert monitor.stats.peak_pending_ops == 5
        assert monitor.stats.ops_applied == 5

    def test_candidates_examined_counts_scans(self):
        monitor = drive_split(pairs=3, lag=1e-9)
        monitor.advance_to(1.0)
        before = monitor.stats.candidates_examined
        # A response probes the waiting set: at least one candidate scanned.
        monitor.observe(PacketArrival(
            switch_id="s", time=2.0, packet=ethernet(0xEEEE, 1), in_port=2))
        monitor.advance_to(3.0)
        assert monitor.stats.candidates_examined > before

    def test_split_stats_agree_with_real_registry(self):
        default = drive_split(pairs=4, lag=1.0)
        instrumented = drive_split(registry=MetricsRegistry(), pairs=4,
                                   lag=1.0)
        assert (instrumented.stats.peak_pending_ops
                == default.stats.peak_pending_ops == 4)
        gauge = instrumented.registry.gauge("repro_monitor_pending_ops")
        assert gauge.high_watermark == 4


class TestPostcardMetrics:
    def test_collector_counters_flow_through_registry(self):
        registry = MetricsRegistry()
        collector = PostcardCollector(retention=1e9, registry=registry)
        pm = PostcardMonitor(collector, registry=registry)
        pm.add_property(ECHO)
        pm.observe(PacketArrival(
            switch_id="s", time=0.0, packet=ethernet(1, 0xFFFF), in_port=1))
        pm.observe(PacketArrival(
            switch_id="s", time=1.0, packet=ethernet(2, 1), in_port=2))
        # Three cards: the request's create, the response's advance to the
        # violation, and the response's own create (it binds S too).
        assert collector.postcards_received == 3
        received = registry.counter("repro_postcards_received_total")
        assert received.value == 3
        assert registry.counter("repro_postcards_bytes_total").value > 0


class TestTracer:
    def test_root_spans_adopt_same_uid_children(self):
        tracer = Tracer()
        root = tracer.start("switch.receive", 0.0, uid=7, root=True)
        child = tracer.start("monitor.observe", 0.1, uid=7)
        assert child.parent_id == root.span_id
        tracer.end(child, 0.2)
        tracer.end(root, 0.3)
        assert validate_spans(tracer.spans) == []

    def test_close_all_ends_open_spans(self):
        tracer = Tracer()
        tracer.start("a", 0.0)
        tracer.start("b", 1.0)
        assert tracer.close_all(5.0) == 2
        assert all(s.end == 5.0 for s in tracer.spans)
        assert validate_spans(tracer.spans) == []

    def test_validate_flags_unclosed_span(self):
        tracer = Tracer()
        tracer.start("a", 0.0)
        problems = validate_spans(tracer.spans)
        assert problems and "never closed" in problems[0]

    def test_validate_flags_missing_parent(self):
        span = Span(span_id=2, parent_id=99, name="orphan", start=0.0)
        span.end = 1.0
        assert any("parent" in p for p in validate_spans([span]))

    def test_spans_roundtrip_jsonl(self):
        tracer = Tracer()
        root = tracer.start("switch.receive", 0.0, uid=3, root=True,
                            switch="s1")
        tracer.event("monitor.advance", 0.1, uid=3, stage="learn")
        tracer.end(root, 0.2, forwarded=True)
        buf = io.StringIO()
        assert dump_spans(tracer.spans, buf) == 2
        buf.seek(0)
        loaded = load_spans(buf)
        assert [s.name for s in loaded] == ["switch.receive",
                                            "monitor.advance"]
        assert loaded[0].attrs["switch"] == "s1"
        assert loaded[0].attrs["forwarded"] is True
        assert loaded[1].parent_id == loaded[0].span_id
        assert validate_spans(loaded) == []
