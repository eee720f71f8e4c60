"""Property-based tests: monitor-engine invariants.

The heavyweight one is checkpoint/restore: a fresh monitor restored from
``export_state`` is observationally the exporter — same violations,
counters and ledger on every suffix — which is what lets a replacement
fabric worker stand in for the one that died.  (That the hash-indexed
instance store changes no verdict is held by the match-strategy
differential: the reference walk finds its candidates by scanning.)
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Bind,
    EventKind,
    EventPattern,
    FieldEq,
    FieldNe,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from repro.core.degradation import EVICTION_POLICIES, DegradationPolicy
from repro.core.monitor import MonitorStats
from repro.netsim.scheduler import EventScheduler
from repro.packet import MACAddress, ethernet
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketEgress,
)

# A small universe of addresses keeps collisions (and thus instance
# interactions) frequent.
addr = st.integers(min_value=1, max_value=5)


@st.composite
def event_streams(draw, max_events=30):
    """Random time-ordered streams of arrivals/egresses/OOB events.

    Egress events sometimes reuse a previously-arrived packet (same uid),
    so same_packet stages — and the index's uid keys across refreshes —
    get exercised.
    """
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    seen_packets = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.001, max_value=2.0))
        kind = draw(st.sampled_from(["arrival", "egress", "oob"]))
        if kind == "oob":
            events.append(OutOfBandEvent(
                switch_id="s", time=t, oob_kind=OobKind.PORT_DOWN,
                port=draw(addr)))
            continue
        if kind == "egress" and seen_packets and draw(st.booleans()):
            packet = draw(st.sampled_from(seen_packets))  # identity reuse
        else:
            packet = ethernet(draw(addr), draw(addr))
        if kind == "arrival":
            events.append(PacketArrival(switch_id="s", time=t, packet=packet,
                                        in_port=draw(addr)))
            seen_packets.append(packet)
        else:
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, out_port=draw(addr),
                in_port=draw(addr), action=EgressAction.UNICAST))
    return events


def catalog_of_probe_properties():
    """A mix of property shapes: timed, negative-matching, OOB, identity."""
    return [
        PropertySpec(
            name="echo", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        ),
        PropertySpec(
            name="timed", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)), within=3.0),
            ),
            key_vars=("S",),
        ),
        PropertySpec(
            name="neg", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.src", Var("S")),
                            FieldNe("eth.dst", Var("D"))))),
            ),
            key_vars=("S",),
        ),
        PropertySpec(
            name="ident", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS, same_packet_as="a")),
            ),
            key_vars=("S",),
        ),
        PropertySpec(
            name="oobp", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("down", EventPattern(kind=EventKind.OOB,
                                             oob_kind=OobKind.PORT_DOWN)),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        ),
    ]


class TestEngineInvariants:
    @settings(max_examples=50, deadline=None)
    @given(event_streams())
    def test_no_live_instance_past_deadline(self, events):
        monitor = Monitor()
        for prop in catalog_of_probe_properties():
            monitor.add_property(prop)
        for event in events:
            monitor.observe(event)
            for name in ("echo", "timed", "neg", "ident", "oobp"):
                for inst in monitor.store(name).all():
                    if inst.deadline is not None:
                        assert inst.deadline > event.time - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(event_streams())
    def test_violation_times_monotone(self, events):
        monitor = Monitor()
        for prop in catalog_of_probe_properties():
            monitor.add_property(prop)
        for event in events:
            monitor.observe(event)
        times = [v.time for v in monitor.violations]
        assert times == sorted(times)

    @settings(max_examples=50, deadline=None)
    @given(event_streams())
    def test_stats_consistency(self, events):
        monitor = Monitor()
        for prop in catalog_of_probe_properties():
            monitor.add_property(prop)
        for event in events:
            monitor.observe(event)
        stats = monitor.stats
        assert stats.events == len(events)
        live = monitor.live_instances()
        retired = (stats.violations + stats.instances_expired
                   + stats.instances_discharged + stats.instances_cancelled)
        assert stats.instances_created == live + retired

    @settings(max_examples=40, deadline=None)
    @given(event_streams(), st.floats(min_value=0.0001, max_value=0.1))
    def test_split_mode_never_crashes_and_converges(self, events, lag):
        """Split mode may report different (lagged) verdicts, but it must
        never error and, given quiet time, drains all pending work."""
        from repro.switch.switch import ProcessingMode

        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=lag)
        for prop in catalog_of_probe_properties():
            monitor.add_property(prop)
        for event in events:
            monitor.observe(event)
        monitor.advance_to(events[-1].time + 100.0)
        assert monitor.pending_op_count() == 0

    @settings(max_examples=40, deadline=None)
    @given(event_streams())
    def test_split_with_huge_lag_sees_nothing(self, events):
        """With a lag longer than the trace, no state ever materializes in
        time, so no multi-stage violation can fire during the trace."""
        from repro.switch.switch import ProcessingMode

        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=1e6)
        for prop in catalog_of_probe_properties():
            monitor.add_property(prop)
        for event in events:
            monitor.observe(event)
        assert monitor.violations == []


def violation_prints(violations):
    return sorted(
        (v.property_name, round(v.time, 9), tuple(sorted(
            (k, str(val)) for k, val in v.bindings.items())))
        for v in violations)


class TestCheckpointRestore:
    """``restore_state(export_state(m))`` into a fresh monitor is ``m``."""

    #: None = unbounded; otherwise two instances per property, so the
    #: ledger (rejections, evictions) has something in it
    POLICIES = st.one_of(st.none(), st.sampled_from(EVICTION_POLICIES))

    @staticmethod
    def _monitor(eviction):
        monitor = Monitor(degradation=None if eviction is None else
                          DegradationPolicy(max_instances=2,
                                            eviction=eviction))
        for prop in catalog_of_probe_properties():
            monitor.add_property(prop)
        return monitor

    @staticmethod
    def _observables(monitor, violations_from=0, ledger_from=0):
        return (violation_prints(monitor.violations[violations_from:]),
                monitor.stats.export(),
                sorted((r.kind, r.prop, r.detail, r.time)
                       for r in monitor.ledger.records[ledger_from:]))

    @settings(max_examples=40, deadline=None)
    @given(event_streams(max_events=20), POLICIES)
    def test_restored_monitor_matches_on_every_suffix(self, events, eviction):
        original = self._monitor(eviction)
        cuts = []   # (pickled state, violations so far, ledger so far)
        for event in events:
            cuts.append((pickle.dumps(original.export_state()),
                         len(original.violations),
                         len(original.ledger.records)))
            original.observe(event)
        horizon = events[-1].time + 100.0
        original.advance_to(horizon)
        for k, (state, violations, sheds) in enumerate(cuts):
            restored = self._monitor(eviction)
            restored.restore_state(pickle.loads(state))
            restored.observe_batch(events[k:])
            restored.advance_to(horizon)
            assert self._observables(restored) \
                == self._observables(original, violations, sheds), k


class TestSchedulerProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0),
                    min_size=1, max_size=50))
    def test_events_fire_in_time_order(self, times):
        sched = EventScheduler()
        fired = []
        for when in times:
            sched.call_at(when, lambda w=when: fired.append(w))
        sched.run()
        assert fired == sorted(times)
        assert sched.clock.now() == max(times)
