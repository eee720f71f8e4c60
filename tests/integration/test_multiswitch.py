"""Integration: monitors on multi-switch topologies.

The paper scopes itself to "properties that can be monitored using a
single switch" — these tests demonstrate that boundary concretely: each
switch carries its own monitor over its own event stream, violations are
attributed to the misbehaving switch, and a property can scope itself to
one switch via the ``switch`` metadata field.
"""

from dataclasses import replace

import pytest

from repro.apps import LearningSwitchApp, sometimes
from repro.core import (
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldEq,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from repro.netsim import Network, TraceRecorder
from repro.packet import MACAddress, ethernet
from repro.props import load_property
from repro.switch.pipeline import MissPolicy


def two_switch_chain(app_a=None, app_b=None):
    """h1 -- s1 -- s2 -- h2 (hosts on port 1, inter-switch link on port 2)."""
    net = Network()
    sa = net.add_switch("s1", num_ports=3, miss_policy=MissPolicy.CONTROLLER)
    sb = net.add_switch("s2", num_ports=3, miss_policy=MissPolicy.CONTROLLER)
    net.link(sa, 2, sb, 2)
    h1 = net.add_host("h1", MACAddress(1), __import__(
        "repro.packet", fromlist=["IPv4Address"]).IPv4Address("10.0.0.1"),
        sa, port=1)
    h2 = net.add_host("h2", MACAddress(2), __import__(
        "repro.packet", fromlist=["IPv4Address"]).IPv4Address("10.0.0.2"),
        sb, port=1)
    sa.set_app(app_a if app_a is not None else LearningSwitchApp())
    sb.set_app(app_b if app_b is not None else LearningSwitchApp())
    return net, sa, sb, h1, h2


class TestPerSwitchMonitors:
    def test_traffic_crosses_the_chain(self):
        net, sa, sb, h1, h2 = two_switch_chain()
        h1.send(ethernet(1, 2))
        net.run()
        assert len(h2.received) == 1

    def test_violation_attributed_to_the_buggy_switch(self):
        buggy = LearningSwitchApp(faults=sometimes("wrong_port", 1.0))
        net, sa, sb, h1, h2 = two_switch_chain(app_b=buggy)

        monitor_a = Monitor(scheduler=net.scheduler)
        monitor_a.add_property(
            replace(load_property("learned-unicast-port"), name="lu-a"))
        monitor_a.attach(sa)
        monitor_b = Monitor(scheduler=net.scheduler)
        monitor_b.add_property(
            replace(load_property("learned-unicast-port"), name="lu-b"))
        monitor_b.attach(sb)

        # Teach both switches where MAC 2 lives, then traffic back toward
        # it: s2 (buggy) misdelivers, s1 behaves.
        h2.send(ethernet(2, 1))
        net.run()
        h1.send(ethernet(1, 2))
        net.run()
        assert monitor_a.violations == []
        assert len(monitor_b.violations) >= 1

    def test_unscoped_property_false_alarms_across_switches(self):
        """WHY the paper scopes monitoring to a single switch: a monitor
        naively fed both switches' streams conflates their learning state
        (D learned on port p at s1 is unrelated to s2's ports) and
        false-alarms on two perfectly correct switches.  Scoping the
        property with the ``switch`` metadata field fixes it."""
        from repro.core import FieldNe

        def learned_unicast(name, switch_id=None):
            scope = ((FieldEq("switch", Const(switch_id)),)
                     if switch_id else ())
            return PropertySpec(
                name=name, description="",
                stages=(
                    Observe("learn", EventPattern(
                        kind=EventKind.ARRIVAL,
                        guards=scope,
                        binds=(Bind("D", "eth.src"), Bind("p", "in_port")))),
                    Observe("bad", EventPattern(
                        kind=EventKind.EGRESS,
                        guards=scope + (FieldEq("eth.dst", Var("D")),
                                        FieldNe("out_port", Var("p"))))),
                ),
                key_vars=("D",),
            )

        net, sa, sb, h1, h2 = two_switch_chain()  # both CORRECT
        monitor = Monitor(scheduler=net.scheduler)
        monitor.add_property(learned_unicast("lu-global"))
        monitor.add_property(learned_unicast("lu-s1", "s1"))
        monitor.add_property(learned_unicast("lu-s2", "s2"))
        monitor.attach(sa)
        monitor.attach(sb)

        h2.send(ethernet(2, 1))
        net.run()
        h1.send(ethernet(1, 2))
        net.run()

        by_prop = {}
        for violation in monitor.violations:
            by_prop.setdefault(violation.property_name, 0)
            by_prop[violation.property_name] += 1
        # The per-switch-scoped properties are clean (the switches ARE
        # correct); the naive network-wide one false-alarms.
        assert by_prop.get("lu-s1", 0) == 0
        assert by_prop.get("lu-s2", 0) == 0
        assert by_prop.get("lu-global", 0) >= 1

    def test_link_failure_cuts_the_chain(self):
        net, sa, sb, h1, h2 = two_switch_chain()
        link = net.links[0]
        h1.send(ethernet(1, 2))
        net.run()
        assert len(h2.received) == 1
        link.fail()
        h1.send(ethernet(1, 2))
        net.run()
        assert len(h2.received) == 1  # nothing new crossed

    def test_independent_event_streams(self):
        net, sa, sb, h1, h2 = two_switch_chain()
        rec_a, rec_b = TraceRecorder(), TraceRecorder()
        sa.add_tap(rec_a)
        sb.add_tap(rec_b)
        h1.send(ethernet(1, 2))
        net.run()
        assert all(e.switch_id == "s1" for e in rec_a.events)
        assert all(e.switch_id == "s2" for e in rec_b.events)
        assert len(rec_a.arrivals) == 1  # h1's frame
        assert len(rec_b.arrivals) == 1  # the forwarded copy
