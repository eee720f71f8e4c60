"""Property-based tests: monitor-engine invariants.

Invariants one monitor keeps on its own, on every stream: no live
instance outlives its deadline, violations come in time order, every
created instance is live or retired exactly once, and SPLIT mode drains.
That a monitor reports the reference walk's verdict under every
configuration — including restored from a checkpoint — is the
differential lattice's job (``test_lattice.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Monitor
from repro.netsim.scheduler import EventScheduler
from repro.switch.switch import ProcessingMode
from tests.workloads import event_streams, probe_catalog


PROBES = probe_catalog()


def probe_monitor(**kwargs):
    monitor = Monitor(**kwargs)
    for prop in PROBES:
        monitor.add_property(prop)
    return monitor


class TestEngineInvariants:
    @settings(max_examples=50, deadline=None)
    @given(event_streams(max_events=30))
    def test_no_live_instance_past_deadline(self, events):
        monitor = probe_monitor()
        for event in events:
            monitor.observe(event)
            for prop in PROBES:
                for inst in monitor.store(prop.name).all():
                    if inst.deadline is not None:
                        assert inst.deadline > event.time - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(event_streams(max_events=30))
    def test_violation_times_monotone(self, events):
        monitor = probe_monitor()
        for event in events:
            monitor.observe(event)
        times = [v.time for v in monitor.violations]
        assert times == sorted(times)

    @settings(max_examples=50, deadline=None)
    @given(event_streams(max_events=30))
    def test_stats_consistency(self, events):
        monitor = probe_monitor()
        for event in events:
            monitor.observe(event)
        stats = monitor.stats
        assert stats.events == len(events)
        live = monitor.live_instances()
        retired = (stats.violations + stats.instances_expired
                   + stats.instances_discharged + stats.instances_cancelled)
        assert stats.instances_created == live + retired

    @settings(max_examples=40, deadline=None)
    @given(event_streams(max_events=30),
           st.floats(min_value=0.0001, max_value=0.1))
    def test_split_mode_never_crashes_and_converges(self, events, lag):
        """Split mode may report different (lagged) verdicts, but it must
        never error and, given quiet time, drains all pending work."""
        monitor = probe_monitor(mode=ProcessingMode.SPLIT, split_lag=lag)
        for event in events:
            monitor.observe(event)
        monitor.advance_to(events[-1].time + 100.0)
        assert monitor.pending_op_count() == 0

    @settings(max_examples=40, deadline=None)
    @given(event_streams(max_events=30))
    def test_split_with_huge_lag_sees_nothing(self, events):
        """With a lag longer than the trace, no state ever materializes in
        time, so no multi-stage violation can fire during the trace."""
        monitor = probe_monitor(mode=ProcessingMode.SPLIT, split_lag=1e6)
        for event in events:
            monitor.observe(event)
        assert monitor.violations == []


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
