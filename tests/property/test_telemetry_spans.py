"""Property-based tests: trace-span trees stay well-formed.

Random event streams through a traced monitor must always yield a valid
span forest: ids strictly increase, every parent exists and precedes its
child, every span is closed.  ``validate_spans`` is the single contract
that ``repro stats --trace-out`` relies on; these tests prove it holds on
arbitrary inputs, not just the hand-written smoke traces.

Root spans are opened by whoever observes a batch
(``Monitor.observe_batch``, ``ShardedMonitor.observe_batch``); the
oracle here opens them by hand around the rootless tap ``observe`` and
the two must agree span for span.
"""

import functools
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Bind,
    EventKind,
    EventPattern,
    FieldEq,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from repro.fabric import ShardedMonitor
from repro.switch.switch import ProcessingMode
from repro.telemetry import (
    Tracer,
    dump_spans,
    load_spans,
    validate_spans,
)
from tests.workloads import event_streams

#: packet events only: every root span is keyed by a packet uid
packet_streams = functools.partial(
    event_streams, max_events=40, kinds=("arrival", "egress"))


def traced_property():
    return PropertySpec(
        name="echo", description="",
        stages=(
            Observe("request", EventPattern(
                kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
            Observe("response", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.dst", Var("S")),)), within=3.0),
        ),
        key_vars=("S",),
    )


def replay(events, mode=ProcessingMode.INLINE):
    tracer = Tracer()
    monitor = Monitor(mode=mode, split_lag=0.5, tracer=tracer)
    monitor.add_property(traced_property())
    monitor.observe_batch(events)
    if events:
        monitor.advance_to(events[-1].time + 10.0)
    tracer.close_all(monitor.now)
    return tracer


def replay_rooted_by_hand(events, mode=ProcessingMode.INLINE):
    """The oracle: one root per event (named after its type, keyed by
    the packet uid, carrying the switch id, closed at the monitor's
    time) opened around the tap entry point."""
    tracer = Tracer()
    monitor = Monitor(mode=mode, split_lag=0.5, tracer=tracer)
    monitor.add_property(traced_property())
    for event in events:
        root = tracer.start(
            type(event).__name__, event.time, uid=event.packet.uid,
            root=True, switch=event.switch_id)
        monitor.observe(event)
        tracer.end(root, monitor.now)
    monitor.advance_to(events[-1].time + 10.0)
    tracer.close_all(monitor.now)
    return tracer


def span_dicts(tracer):
    return [span.to_dict() for span in tracer.spans]


class TestSpanWellFormedness:
    @settings(max_examples=60, deadline=None)
    @given(packet_streams())
    def test_inline_replay_spans_validate(self, events):
        tracer = replay(events)
        assert validate_spans(tracer.spans) == []

    @settings(max_examples=40, deadline=None)
    @given(packet_streams())
    def test_split_replay_spans_validate(self, events):
        # Split mode applies ops after the root span closed; the monitor's
        # deferred events must still land as well-formed spans.
        tracer = replay(events, mode=ProcessingMode.SPLIT)
        assert validate_spans(tracer.spans) == []

    @settings(max_examples=40, deadline=None)
    @given(packet_streams())
    def test_every_monitor_span_nests_under_a_root(self, events):
        tracer = replay(events)
        roots = {s.span_id for s in tracer.spans if s.parent_id is None}
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            if span.parent_id is None:
                continue
            assert span.parent_id in by_id
            assert by_id[span.parent_id].span_id in roots or (
                by_id[span.parent_id].parent_id is not None)

    @settings(max_examples=40, deadline=None)
    @given(packet_streams(), st.sampled_from(list(ProcessingMode)))
    def test_observer_roots_equal_hand_opened_roots(self, events, mode):
        assert span_dicts(replay(events, mode)) \
            == span_dicts(replay_rooted_by_hand(events, mode))

    @settings(max_examples=20, deadline=None)
    @given(packet_streams())
    def test_fabric_records_the_monitor_s_roots_and_nothing_else(
            self, events):
        # Sharded: arrival roots only (shard spans stay in the shards),
        # one per event, identical to the plain monitor's roots however
        # the events are batched.
        # (parentless ``monitor.*`` spans are uid-less timer events)
        roots = [dict(d, span_id=None) for d in span_dicts(replay(events))
                 if d["parent_id"] is None
                 and not d["name"].startswith("monitor.")]
        tracer = Tracer()
        fabric = ShardedMonitor([traced_property()], num_shards=2)
        fabric.tracer = tracer
        try:
            fabric.observe_batch(events[:3])
            for event in events[3:]:
                fabric.observe_batch((event,))
            assert [dict(d, span_id=None) for d in span_dicts(tracer)] \
                == roots
        finally:
            fabric.stop()

    @settings(max_examples=30, deadline=None)
    @given(packet_streams())
    def test_jsonl_roundtrip_preserves_validity(self, events):
        tracer = replay(events)
        buf = io.StringIO()
        dump_spans(tracer.spans, buf)
        buf.seek(0)
        loaded = load_spans(buf)
        assert len(loaded) == len(tracer.spans)
        assert validate_spans(loaded) == []
        assert [s.span_id for s in loaded] == sorted(
            s.span_id for s in tracer.spans)
