"""Unit tests: topology wiring, trace recording, workloads."""

import pytest

from repro.netsim import (
    EventScheduler,
    Network,
    TraceRecorder,
    arp_request_storm,
    l2_pairs,
    poisson_arrivals,
    send_all,
    single_switch_network,
    tcp_conversations,
    udp_flows,
)
from repro.packet import IPv4Address, MACAddress, ethernet
from repro.switch.match import MatchSpec
from repro.switch.actions import Output


class TestTopology:
    def test_single_switch_network_shape(self):
        net, sw, hosts = single_switch_network(4)
        assert len(hosts) == 4
        assert hosts[0].mac == MACAddress(1)
        assert hosts[2].ip == IPv4Address("10.0.0.3")
        assert hosts[3].port == 4

    def test_host_send_delivers_through_switch(self):
        net, sw, hosts = single_switch_network(2)
        sw.install_rule(MatchSpec(eth__dst=MACAddress(2)), [Output(2)],
                        priority=200)
        hosts[0].send(ethernet(1, 2))
        net.run()
        assert len(hosts[1].received) == 1

    def test_send_at_schedules_future(self):
        net, sw, hosts = single_switch_network(2)
        hosts[0].send_at(5.0, ethernet(1, 2))
        net.run()
        assert net.now >= 5.0
        assert hosts[1].received[0].time >= 5.0

    def test_unattached_host_send_fails(self):
        from repro.netsim.topology import Host

        host = Host("h", MACAddress(1), IPv4Address("10.0.0.1"),
                    EventScheduler())
        with pytest.raises(RuntimeError):
            host.send(ethernet(1, 2))

    def test_on_receive_callback(self):
        net, sw, hosts = single_switch_network(2)
        got = []
        hosts[1].on_receive = lambda host, pkt: got.append(pkt)
        hosts[0].send(ethernet(1, 2))
        net.run()
        assert len(got) == 1

    def test_switch_link_carries_both_ways(self):
        net = Network()
        a = net.add_switch("a", num_ports=2)
        b = net.add_switch("b", num_ports=2)
        net.link(a, 2, b, 2)
        rec_a, rec_b = TraceRecorder(), TraceRecorder()
        a.add_tap(rec_a)
        b.add_tap(rec_b)
        a.receive(ethernet(1, 2), in_port=1)  # floods out port 2 -> link -> b
        net.run()
        assert len(rec_b.arrivals) == 1

    def test_link_failure_stops_traffic_and_emits_oob(self):
        net = Network()
        a = net.add_switch("a", num_ports=2)
        b = net.add_switch("b", num_ports=2)
        link = net.link(a, 2, b, 2)
        rec_b = TraceRecorder()
        b.add_tap(rec_b)
        link.fail()
        assert not a.ports[2] and not b.ports[2]
        link.restore()
        assert a.ports[2] and b.ports[2]

    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_switch("a")
        with pytest.raises(ValueError):
            net.add_switch("a")


class TestTraces:
    def test_recorder_filters_by_kind(self):
        net, sw, hosts = single_switch_network(2)
        rec = TraceRecorder()
        sw.add_tap(rec)
        hosts[0].send(ethernet(1, 2))
        net.run()
        assert len(rec.arrivals) == 1
        assert len(rec.egresses) == 1
        assert len(rec) == 2
        rec.clear()
        assert len(rec) == 0


class TestWorkloads:
    def test_l2_pairs_deterministic(self):
        w1 = l2_pairs(4, 20, seed=3)
        w2 = l2_pairs(4, 20, seed=3)
        assert [t.src_host for t in w1] == [t.src_host for t in w2]
        assert len(w1) == 20

    def test_l2_pairs_no_self_traffic(self):
        for item in l2_pairs(3, 50, seed=1):
            assert item.packet.eth.src != item.packet.eth.dst

    def test_tcp_conversations_structure(self):
        convs = tcp_conversations(3, packets_per_flow=2)
        # 1 SYN + 2 data packets per flow
        assert len(convs) == 9
        syns = [c for c in convs if c.packet.headers[2].is_syn]
        assert len(syns) == 3

    def test_tcp_conversations_close_fraction(self):
        convs = tcp_conversations(10, packets_per_flow=0, close_fraction=1.0)
        fins = [c for c in convs if c.packet.headers[2].is_fin]
        assert len(fins) == 10

    def test_udp_flows_distinct_ports(self):
        flows = udp_flows(10)
        ports = {f.packet.l4_sport for f in flows}
        assert len(ports) == 10

    def test_arp_storm_period(self):
        storm = arp_request_storm(1, IPv4Address("10.0.0.9"), count=5,
                                  period=4.0)
        times = [t.time for t in storm]
        assert times == [0.0, 4.0, 8.0, 12.0, 16.0]

    def test_poisson_deterministic_and_bounded(self):
        a = list(poisson_arrivals(100.0, 1.0, seed=5))
        b = list(poisson_arrivals(100.0, 1.0, seed=5))
        assert a == b
        assert all(0.0 <= t < 1.0 for t in a)
        assert 50 < len(a) < 200  # ~100 expected

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            list(poisson_arrivals(0.0, 1.0))

    def test_send_all_schedules(self):
        net, sw, hosts = single_switch_network(3)
        count = send_all(hosts, l2_pairs(3, 10, seed=2))
        assert count == 10
        net.run()
        assert sw.stats.arrivals == 10
