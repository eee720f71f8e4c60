"""Integration: the paper's worked examples, end to end.

Each test wires a real app onto a simulated switch, attaches the monitor,
drives traffic (with or without injected faults), and checks that
violations appear exactly when the paper says they should:

* S1   — learning switch (Sec. 1);
* S2.1 — stateful firewall, three refinements (Sec. 2.1);
* S2.2 — NAT reverse translation (Sec. 2.2);
* S2.3 — ARP proxy reply-within-T (Sec. 2.3);
* S2.4 — link-down multiple match (Sec. 2.4).
"""

from dataclasses import replace

import pytest

from repro.apps import (
    ArpProxyApp,
    FaultPlan,
    LearningSwitchApp,
    NatApp,
    StatefulFirewallApp,
    always,
    sometimes,
)
from repro.core import Monitor
from repro.netsim import single_switch_network
from repro.packet import (
    IPv4Address,
    MACAddress,
    arp_reply,
    arp_request,
    ethernet,
    tcp_fin,
    tcp_packet,
)
from repro.props import (
    ArpKnowledge,
    catalog_predicates,
    load_property,
)
from repro.switch.pipeline import MissPolicy


def with_deadline(prop, T, **last_stage_changes):
    """The catalog property with its last stage's window set to T."""
    *earlier, last = prop.stages
    last = replace(last, within=T, **last_stage_changes)
    return replace(prop, stages=(*earlier, last))


def monitored_net(num_hosts, app, *props, taps_before=(), monitor_kwargs=None):
    net, sw, hosts = single_switch_network(
        num_hosts, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER}
    )
    sw.set_app(app)
    for tap in taps_before:
        sw.add_tap(tap)
    monitor = Monitor(scheduler=net.scheduler, **(monitor_kwargs or {}))
    for prop in props:
        monitor.add_property(prop)
    monitor.attach(sw)
    return net, sw, hosts, monitor


class TestLearningSwitchS1:
    def test_correct_switch_is_clean(self):
        net, sw, hosts, mon = monitored_net(
            3, LearningSwitchApp(), load_property("learned-unicast-port"),
            load_property("learned-no-flood")
        )
        hosts[0].send(ethernet(1, 2))
        net.run()
        hosts[1].send(ethernet(2, 1))
        net.run()
        hosts[2].send(ethernet(3, 1))
        net.run()
        assert mon.violations == []

    def test_wrong_port_fault_detected(self):
        net, sw, hosts, mon = monitored_net(
            3, LearningSwitchApp(faults=sometimes("wrong_port", 1.0)),
            load_property("learned-unicast-port"),
        )
        hosts[0].send(ethernet(1, 9))  # learn 1@port1
        net.run()
        hosts[1].send(ethernet(2, 1))  # misdelivered
        net.run()
        assert len(mon.violations) == 1
        v = mon.violations[0]
        assert v.bindings["D"] == MACAddress(1)
        assert v.bindings["p"] == 1

    def test_flood_known_fault_detected(self):
        net, sw, hosts, mon = monitored_net(
            3, LearningSwitchApp(faults=sometimes("flood_known", 1.0)),
            load_property("learned-no-flood"),
        )
        hosts[0].send(ethernet(1, 9))
        net.run()
        hosts[1].send(ethernet(2, 1))
        net.run()
        assert len(mon.violations) >= 1

    def test_initial_flood_is_not_a_violation(self):
        # Before D is learned, flooding to it is correct behaviour.
        net, sw, hosts, mon = monitored_net(
            3, LearningSwitchApp(), load_property("learned-no-flood")
        )
        hosts[0].send(ethernet(1, 2))  # 2 not yet learned: flood is fine
        net.run()
        assert mon.violations == []

    def test_host_move_is_tracked(self):
        # D re-learned on a new port: unicast to the new port is correct.
        net, sw, hosts, mon = monitored_net(
            3, LearningSwitchApp(), load_property("learned-unicast-port")
        )
        hosts[0].send(ethernet(1, 9))
        net.run()
        hosts[2].send(ethernet(1, 9))  # MAC 1 moves to port 3
        net.run()
        hosts[1].send(ethernet(2, 1))  # delivered to port 3: correct now
        net.run()
        assert mon.violations == []


class TestFirewallS21:
    def _out(self, sport=10000):
        return tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", sport, 80)

    def _back(self, sport=10000):
        return tcp_packet(2, 1, "198.51.100.1", "10.0.0.1", 80, sport)

    def test_correct_firewall_clean(self):
        net, sw, hosts, mon = monitored_net(
            2, StatefulFirewallApp(), load_property("firewall-basic")
        )
        hosts[0].send(self._out())
        net.run()
        hosts[1].send(self._back())
        net.run()
        assert mon.violations == []

    def test_drop_valid_detected_by_basic(self):
        net, sw, hosts, mon = monitored_net(
            2, StatefulFirewallApp(faults=sometimes("drop_valid", 1.0)),
            load_property("firewall-basic"),
        )
        hosts[0].send(self._out())
        net.run()
        hosts[1].send(self._back())
        net.run()
        assert len(mon.violations) == 1
        assert str(mon.violations[0].bindings["A"]) == "10.0.0.1"

    def test_basic_property_is_unsound_about_expiry(self):
        # The paper's point: without the timeout refinement, a correct
        # firewall expiring stale state looks like a violator.
        net, sw, hosts, mon = monitored_net(
            2, StatefulFirewallApp(state_timeout=5.0),
            load_property("firewall-basic")
        )
        hosts[0].send(self._out())
        hosts[1].send_at(10.0, self._back())  # correctly dropped: stale
        net.run()
        assert len(mon.violations) == 1  # false alarm from the naive property

    def test_timed_property_tolerates_expiry(self):
        net, sw, hosts, mon = monitored_net(
            2, StatefulFirewallApp(state_timeout=5.0),
            with_deadline(load_property("firewall-timed"), 5.0)
        )
        hosts[0].send(self._out())
        hosts[1].send_at(10.0, self._back())
        net.run()
        assert mon.violations == []

    def test_timed_property_catches_early_expiry_bug(self):
        net, sw, hosts, mon = monitored_net(
            2,
            StatefulFirewallApp(state_timeout=10.0,
                                faults=always("early_expiry")),
            with_deadline(load_property("firewall-timed"), 10.0),
        )
        hosts[0].send(self._out())
        hosts[1].send_at(7.0, self._back())  # inside advertised window
        net.run()
        assert len(mon.violations) == 1

    def test_close_property_tolerates_post_close_drop(self):
        net, sw, hosts, mon = monitored_net(
            2, StatefulFirewallApp(), load_property("firewall-with-close")
        )
        hosts[0].send(self._out())
        hosts[0].send_at(1.0, tcp_fin(1, 2, "10.0.0.1", "198.51.100.1",
                                      10000, 80))
        hosts[1].send_at(2.0, self._back())  # correctly dropped post-close
        net.run()
        assert mon.violations == []

    def test_timed_property_false_alarms_post_close(self):
        # Without the obligation refinement, the legitimate post-close drop
        # still looks like a violation inside the window.
        net, sw, hosts, mon = monitored_net(
            2, StatefulFirewallApp(), load_property("firewall-timed")
        )
        hosts[0].send(self._out())
        hosts[0].send_at(1.0, tcp_fin(1, 2, "10.0.0.1", "198.51.100.1",
                                      10000, 80))
        hosts[1].send_at(2.0, self._back())
        net.run()
        assert len(mon.violations) == 1

    def test_ignore_close_detected_by_converse_property(self):
        net, sw, hosts, mon = monitored_net(
            2, StatefulFirewallApp(faults=always("ignore_close")),
            load_property("firewall-drops-after-close"),
        )
        hosts[0].send(self._out())
        hosts[0].send_at(1.0, tcp_fin(1, 2, "10.0.0.1", "198.51.100.1",
                                      10000, 80))
        hosts[1].send_at(2.0, self._back())  # wrongly forwarded
        net.run()
        assert len(mon.violations) == 1


class TestNatS22:
    def _nat(self, **kw):
        kw.setdefault("public_ip", IPv4Address("203.0.113.1"))
        return NatApp(**kw)

    def test_correct_nat_clean(self):
        net, sw, hosts, mon = monitored_net(
            2, self._nat(), load_property("nat-reverse-translation")
        )
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
        net.run()
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                 80, 40000))
        net.run()
        assert mon.violations == []

    def test_corrupt_reverse_port_detected(self):
        net, sw, hosts, mon = monitored_net(
            2, self._nat(faults=sometimes("corrupt_reverse", 1.0)),
            load_property("nat-reverse-translation"),
        )
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
        net.run()
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                 80, 40000))
        net.run()
        assert len(mon.violations) == 1
        v = mon.violations[0]
        assert v.bindings["P"] == 5555
        assert v.bindings["A2"] == IPv4Address("203.0.113.1")

    def test_corrupt_reverse_ip_detected(self):
        net, sw, hosts, mon = monitored_net(
            2, self._nat(faults=sometimes("corrupt_reverse_ip", 1.0)),
            load_property("nat-reverse-translation"),
        )
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
        net.run()
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                 80, 40000))
        net.run()
        assert len(mon.violations) == 1

    def test_unrelated_inbound_does_not_advance(self):
        net, sw, hosts, mon = monitored_net(
            2, self._nat(), load_property("nat-reverse-translation")
        )
        hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1", 5555, 80))
        net.run()
        # Inbound for a *different* public port: dropped by NAT, and must
        # not advance the instance (guards on A2/P2 fail).
        hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                 80, 49999))
        net.run()
        assert mon.violations == []

    def test_multiple_flows_tracked_independently(self):
        net, sw, hosts, mon = monitored_net(
            2, self._nat(faults=sometimes("corrupt_reverse", 1.0)),
            load_property("nat-reverse-translation"),
        )
        for i in range(3):
            hosts[0].send(tcp_packet(1, 2, "10.0.0.1", "198.51.100.1",
                                     5000 + i, 80))
        net.run()
        for i in range(3):
            hosts[1].send(tcp_packet(2, 1, "198.51.100.1", "203.0.113.1",
                                     80, 40000 + i))
        net.run()
        assert len(mon.violations) == 3


class TestArpProxyS23:
    def _setup(self, proxy_faults=None, refresh="never", T=1.0):
        app = ArpProxyApp(faults=proxy_faults)
        knowledge = ArpKnowledge()
        prop = with_deadline(
            load_property("arp-reply-within",
                          catalog_predicates(arp_knowledge=knowledge)),
            T, refresh=refresh)
        return monitored_net(3, app, prop, taps_before=(knowledge.observe,))

    def test_prompt_reply_is_clean(self):
        net, sw, hosts, mon = self._setup()
        hosts[2].send(arp_reply(3, "10.0.0.3", 1, "10.0.0.1"))  # teaches
        net.run()
        hosts[0].send(arp_request(1, "10.0.0.1", "10.0.0.3"))
        net.run(until=5.0)
        assert mon.violations == []

    def test_suppressed_reply_detected_by_timer(self):
        net, sw, hosts, mon = self._setup(
            proxy_faults=sometimes("suppress_reply", 1.0))
        hosts[2].send(arp_reply(3, "10.0.0.3", 1, "10.0.0.1"))
        net.run()
        hosts[0].send(arp_request(1, "10.0.0.1", "10.0.0.3"))
        net.run(until=5.0)
        assert len(mon.violations) == 1
        assert mon.violations[0].trigger is None  # fired by the timer

    def test_late_reply_detected(self):
        net, sw, hosts, mon = self._setup(
            proxy_faults=FaultPlan(values={"reply_delay": 3.0}), T=1.0)
        hosts[2].send(arp_reply(3, "10.0.0.3", 1, "10.0.0.1"))
        net.run()
        hosts[0].send(arp_request(1, "10.0.0.1", "10.0.0.3"))
        net.run(until=5.0)
        assert len(mon.violations) == 1

    def test_request_storm_caught_with_sound_refresh(self):
        # Requests every T-1: with refresh="never" the deadline holds.
        net, sw, hosts, mon = self._setup(
            proxy_faults=sometimes("suppress_reply", 1.0), T=2.0)
        hosts[2].send(arp_reply(3, "10.0.0.3", 1, "10.0.0.1"))
        net.run()
        for k in range(5):
            hosts[0].send_at(0.5 + k * 1.0,
                             arp_request(1, "10.0.0.1", "10.0.0.3"))
        net.run(until=10.0)
        assert len(mon.violations) >= 1
        assert mon.violations[0].time == pytest.approx(2.5, abs=0.01)

    def test_request_storm_missed_with_buggy_refresh(self):
        # The paper's warning: resetting on each repeated request hides a
        # never-answered storm for as long as it keeps arriving.
        net, sw, hosts, mon = self._setup(
            proxy_faults=sometimes("suppress_reply", 1.0),
            refresh="on_prior", T=2.0)
        hosts[2].send(arp_reply(3, "10.0.0.3", 1, "10.0.0.1"))
        net.run()
        for k in range(5):
            hosts[0].send_at(0.5 + k * 1.0,
                             arp_request(1, "10.0.0.1", "10.0.0.3"))
        net.run(until=6.0)
        assert mon.violations == []  # still hidden while the storm lasts
        net.run(until=10.0)
        assert len(mon.violations) == 1  # caught only after it stops


class TestMultipleMatchS24:
    def test_link_down_with_stale_forwarding(self):
        app = LearningSwitchApp(faults=always("keep_on_link_down"))
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("link-down-clears-learning")
        )
        hosts[0].send(ethernet(1, 9))
        hosts[1].send(ethernet(2, 9))
        net.run()
        sw.link_down(3)  # app (buggy) keeps its table
        hosts[1].send(ethernet(2, 1))  # unicast to stale D=1
        net.run()
        assert len(mon.violations) == 1
        assert mon.violations[0].bindings["D"] == MACAddress(1)

    def test_relearning_cancels(self):
        app = LearningSwitchApp(faults=always("keep_on_link_down"))
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("link-down-clears-learning")
        )
        hosts[0].send(ethernet(1, 9))
        net.run()
        sw.link_down(3)
        hosts[0].send(ethernet(1, 9))  # D=1 re-learned after the event
        net.run()
        hosts[1].send(ethernet(2, 1))
        net.run()
        assert mon.violations == []

    def test_correct_app_clean(self):
        net, sw, hosts, mon = monitored_net(
            3, LearningSwitchApp(), load_property("link-down-clears-learning")
        )
        hosts[0].send(ethernet(1, 9))
        net.run()
        sw.link_down(3)
        hosts[1].send(ethernet(2, 1))  # correctly flooded (not unicast)
        net.run()
        assert mon.violations == []
