"""Integration: every Table 1 property detects its fault and stays quiet on
correct behaviour — the executable half of the Table 1 reproduction.
"""

from dataclasses import replace

import pytest

from repro.apps import (
    ArpProxyApp,
    BalanceMode,
    DhcpServerApp,
    DhcpSnooper,
    FaultPlan,
    LoadBalancerApp,
    PortKnockingApp,
    always,
    ftp_session,
    sometimes,
)
from repro.core import Monitor
from repro.netsim import single_switch_network
from repro.netsim.workload import send_all
from repro.packet import (
    DhcpMessageType,
    IPv4Address,
    MACAddress,
    arp_reply,
    arp_request,
    dhcp_packet,
    tcp_fin,
    tcp_packet,
    tcp_syn,
)
from repro.props import (
    ArpKnowledge,
    LeaseKnowledge,
    RoundRobinExpectation,
    catalog_predicates,
    load_property,
)
from repro.switch.pipeline import MissPolicy


def monitored_net(num_hosts, app, *props, taps_before=()):
    net, sw, hosts = single_switch_network(
        num_hosts, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER}
    )
    sw.set_app(app)
    for tap in taps_before:
        sw.add_tap(tap)
    monitor = Monitor(scheduler=net.scheduler)
    for prop in props:
        monitor.add_property(prop)
    monitor.attach(sw)
    return net, sw, hosts, monitor


class TestArpRows:
    def test_known_not_forwarded_fault(self):
        app = ArpProxyApp(faults=sometimes("forward_known", 1.0))
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("arp-known-not-forwarded"))
        hosts[2].send(arp_reply(3, "10.0.0.3", 1, "10.0.0.1"))
        net.run()
        hosts[0].send(arp_request(1, "10.0.0.1", "10.0.0.3"))
        net.run()
        assert len(mon.violations) >= 1

    def test_known_not_forwarded_clean(self):
        net, sw, hosts, mon = monitored_net(
            3, ArpProxyApp(), load_property("arp-known-not-forwarded"))
        hosts[2].send(arp_reply(3, "10.0.0.3", 1, "10.0.0.1"))
        net.run()
        hosts[0].send(arp_request(1, "10.0.0.1", "10.0.0.3"))
        net.run()
        assert mon.violations == []

    def test_unknown_forwarded_fault(self):
        knowledge = ArpKnowledge()
        app = ArpProxyApp(faults=sometimes("suppress_reply", 1.0))
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("arp-unknown-forwarded",
                             catalog_predicates(arp_knowledge=knowledge)),
            taps_before=(knowledge.observe,),
        )
        hosts[0].send(arp_request(1, "10.0.0.1", "10.0.0.99"))
        net.run(until=3.0)
        assert len(mon.violations) == 1

    def test_unknown_forwarded_clean(self):
        knowledge = ArpKnowledge()
        net, sw, hosts, mon = monitored_net(
            3, ArpProxyApp(), load_property("arp-unknown-forwarded",
                             catalog_predicates(arp_knowledge=knowledge)),
            taps_before=(knowledge.observe,),
        )
        hosts[0].send(arp_request(1, "10.0.0.1", "10.0.0.99"))
        net.run(until=3.0)
        assert mon.violations == []


class TestPortKnockingRows:
    def _pkt(self, dport, src="10.0.0.1"):
        return tcp_syn(1, 2, src, "10.0.0.9", 30000, dport)

    def _app(self, faults=None):
        return PortKnockingApp(knock_sequence=(7001, 7002),
                               protected_port=22, faults=faults)

    def test_invalidation_ignored_fault(self):
        net, sw, hosts, mon = monitored_net(
            2, self._app(always("ignore_wrong_guess")),
            load_property("knocking-invalidated"),
        )
        for dport in (7001, 9999, 7002, 22):
            hosts[0].send(self._pkt(dport))
        net.run()
        assert len(mon.violations) == 1

    def test_invalidation_respected_clean(self):
        net, sw, hosts, mon = monitored_net(
            2, self._app(),
            load_property("knocking-invalidated"),
        )
        for dport in (7001, 9999, 7002, 22):
            hosts[0].send(self._pkt(dport))
        net.run()
        assert mon.violations == []

    def test_never_open_fault(self):
        net, sw, hosts, mon = monitored_net(
            2, self._app(always("never_open")),
            load_property("knocking-recognized"),
        )
        for dport in (7001, 7002, 22):
            hosts[0].send(self._pkt(dport))
        net.run()
        assert len(mon.violations) == 1

    def test_recognition_clean(self):
        net, sw, hosts, mon = monitored_net(
            2, self._app(),
            load_property("knocking-recognized"),
        )
        for dport in (7001, 7002, 22):
            hosts[0].send(self._pkt(dport))
        net.run()
        assert mon.violations == []

    def test_recognition_not_owed_after_wrong_guess(self):
        # A strict gateway that denies after an intervening wrong guess is
        # correct: the unless pattern discharges the expectation.
        net, sw, hosts, mon = monitored_net(
            2, self._app(),
            load_property("knocking-recognized"),
        )
        for dport in (7001, 9999, 7002, 22):
            hosts[0].send(self._pkt(dport))
        net.run()
        assert mon.violations == []


class TestLoadBalancingRows:
    VIP = IPv4Address("10.0.0.100")

    def _app(self, mode=BalanceMode.HASH, faults=None):
        return LoadBalancerApp(vip=self.VIP, backend_ports=(2, 3, 4),
                               mode=mode, faults=faults)

    def _flow(self, sport, flags=None):
        kw = {} if flags is None else {"flags": flags}
        return tcp_syn(1, 0xFE, "10.0.0.1", self.VIP, sport, 8080) \
            if flags is None else tcp_packet(1, 0xFE, "10.0.0.1", self.VIP,
                                             sport, 8080, **kw)

    def test_hashed_port_fault(self):
        net, sw, hosts, mon = monitored_net(
            4, self._app(faults=sometimes("misroute_new", 1.0)),
            load_property("lb-hashed-port"),
        )
        hosts[0].send(self._flow(1000))
        net.run()
        assert len(mon.violations) == 1

    def test_hashed_port_clean(self):
        net, sw, hosts, mon = monitored_net(
            4, self._app(), load_property("lb-hashed-port"),
        )
        for sport in (1000, 1001, 1002):
            hosts[0].send(self._flow(sport))
        net.run()
        assert mon.violations == []

    def test_round_robin_fault(self):
        rr = RoundRobinExpectation(self.VIP, (2, 3, 4))
        net, sw, hosts, mon = monitored_net(
            4,
            self._app(mode=BalanceMode.ROUND_ROBIN,
                      faults=sometimes("misroute_new", 1.0)),
            load_property("lb-round-robin-port", catalog_predicates(rr=rr)),
            taps_before=(rr.observe,),
        )
        hosts[0].send(self._flow(1000))
        net.run()
        assert len(mon.violations) == 1

    def test_round_robin_clean(self):
        rr = RoundRobinExpectation(self.VIP, (2, 3, 4))
        net, sw, hosts, mon = monitored_net(
            4, self._app(mode=BalanceMode.ROUND_ROBIN),
            load_property("lb-round-robin-port", catalog_predicates(rr=rr)),
            taps_before=(rr.observe,),
        )
        for sport in (1000, 1001, 1002, 1003):
            hosts[0].send(self._flow(sport))
        net.run()
        assert mon.violations == []

    def test_sticky_fault(self):
        net, sw, hosts, mon = monitored_net(
            4, self._app(faults=sometimes("rebalance_midflow", 1.0)),
            load_property("lb-sticky-port"),
        )
        from repro.packet import TCPFlags

        hosts[0].send(self._flow(1000))
        hosts[0].send(self._flow(1000, flags=TCPFlags.ACK))
        net.run()
        assert len(mon.violations) >= 1

    def test_sticky_clean_across_many_packets(self):
        net, sw, hosts, mon = monitored_net(
            4, self._app(), load_property("lb-sticky-port"),
        )
        from repro.packet import TCPFlags

        hosts[0].send(self._flow(1000))
        for _ in range(4):
            hosts[0].send(self._flow(1000, flags=TCPFlags.ACK))
        net.run()
        assert mon.violations == []

    def test_sticky_move_after_close_is_clean(self):
        net, sw, hosts, mon = monitored_net(
            4, self._app(mode=BalanceMode.ROUND_ROBIN),
            load_property("lb-sticky-port"),
        )
        from repro.packet import TCPFlags

        hosts[0].send(self._flow(1000))
        hosts[0].send(self._flow(1000, flags=TCPFlags.FIN | TCPFlags.ACK))
        # New flow with the same 5-tuple lands on the next backend: fine.
        hosts[0].send(self._flow(1000))
        net.run()
        assert mon.violations == []


class TestFtpRow:
    def _run(self, actual_port):
        from repro.apps import FtpAlgApp, always as _always

        app = FtpAlgApp(faults=_always("no_enforce"))
        net, sw, hosts, mon = monitored_net(
            2, app, load_property("ftp-data-port-matches"))
        session = ftp_session(hosts[0].mac, hosts[1].mac, hosts[0].ip,
                              hosts[1].ip, advertised_port=1025,
                              actual_port=actual_port)
        send_all(hosts, session)
        net.run()
        return mon

    def test_matching_data_port_clean(self):
        assert self._run(actual_port=1025).violations == []

    def test_mismatched_data_port_detected(self):
        mon = self._run(actual_port=2000)
        assert len(mon.violations) == 1
        assert mon.violations[0].bindings["dport"] == 1025


class TestDhcpRows:
    def _server(self, **kw):
        kw.setdefault("server_id", IPv4Address("10.0.0.254"))
        kw.setdefault("pool_start", IPv4Address("10.0.0.100"))
        kw.setdefault("pool_size", 4)
        return DhcpServerApp(**kw)

    def test_reply_within_clean(self):
        net, sw, hosts, mon = monitored_net(
            2, self._server(), load_property("dhcp-reply-within"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        net.run(until=5.0)
        assert mon.violations == []

    def test_reply_delay_detected(self):
        net, sw, hosts, mon = monitored_net(
            2, self._server(faults=FaultPlan(values={"reply_delay": 4.0})),
            load_property("dhcp-reply-within"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        net.run(until=10.0)
        assert len(mon.violations) == 1

    def test_no_reply_detected(self):
        net, sw, hosts, mon = monitored_net(
            2, self._server(faults=sometimes("no_reply", 1.0)),
            load_property("dhcp-reply-within"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        net.run(until=10.0)
        assert len(mon.violations) == 1

    def test_no_reuse_clean_with_renewal(self):
        net, sw, hosts, mon = monitored_net(
            2, self._server(lease_time=60.0), load_property("dhcp-no-reuse"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        # Renewal by the same client must not look like re-use.
        hosts[0].send_at(5.0, dhcp_packet(5, DhcpMessageType.REQUEST, xid=2))
        net.run()
        assert mon.violations == []

    def test_reuse_detected(self):
        net, sw, hosts, mon = monitored_net(
            2, self._server(pool_size=1, faults=always("reuse_leased")),
            load_property("dhcp-no-reuse"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        hosts[0].send_at(5.0, dhcp_packet(6, DhcpMessageType.REQUEST, xid=2))
        net.run()
        assert len(mon.violations) == 1

    def test_reuse_after_release_is_clean(self):
        net, sw, hosts, mon = monitored_net(
            2, self._server(pool_size=1), load_property("dhcp-no-reuse"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        hosts[0].send_at(5.0, dhcp_packet(5, DhcpMessageType.RELEASE))
        hosts[0].send_at(6.0, dhcp_packet(6, DhcpMessageType.REQUEST, xid=2))
        net.run()
        assert mon.violations == []

    def test_reuse_after_expiry_is_clean(self):
        # the catalog's 60 s lease window shortened to the server's 5 s
        prop = load_property("dhcp-no-reuse")
        leased, re_leased = prop.stages
        prop = replace(prop, stages=(leased, replace(re_leased, within=5.0)))
        net, sw, hosts, mon = monitored_net(
            2, self._server(pool_size=1, lease_time=5.0), prop)
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        hosts[0].send_at(10.0, dhcp_packet(6, DhcpMessageType.REQUEST, xid=2))
        net.run()
        assert mon.violations == []

    def test_overlap_between_servers_detected(self):
        # Two servers with overlapping pools, punted in parallel: the first
        # to answer leases 10.0.0.100; so does the second (same pool, no
        # coordination). The monitor sees two ACKs for one address with
        # different server ids.
        server_a = self._server(server_id=IPv4Address("10.0.0.254"),
                                pool_size=1)
        server_b = self._server(server_id=IPv4Address("10.0.0.253"),
                                pool_size=1)

        class TwinServers:
            def setup(self, switch):
                server_a.setup(switch)
                server_b.setup(switch)

            def on_packet_in(self, switch, packet, in_port):
                server_a.on_packet_in(switch, packet, in_port)
                server_b.on_packet_in(switch, packet, in_port)

            def on_oob(self, switch, event):
                pass

        net, sw, hosts, mon = monitored_net(2, TwinServers(),
                                            load_property("dhcp-no-overlap"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        net.run()
        assert len(mon.violations) == 1

    def test_single_server_no_overlap(self):
        net, sw, hosts, mon = monitored_net(2, self._server(),
                                            load_property("dhcp-no-overlap"))
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1))
        hosts[0].send_at(1.0, dhcp_packet(6, DhcpMessageType.REQUEST, xid=2))
        net.run()
        assert mon.violations == []


class TestDhcpArpRows:
    def _setup(self, proxy_faults=None, with_snooper=True, extra_taps=()):
        proxy = ArpProxyApp(faults=proxy_faults)
        server = DhcpServerApp(
            server_id=IPv4Address("10.0.0.254"),
            pool_start=IPv4Address("10.0.0.100"), pool_size=4)
        snooper = DhcpSnooper(proxy)

        class ProxyPlusDhcp:
            def setup(self, switch):
                proxy.setup(switch)
                server.setup(switch)

            def on_packet_in(self, switch, packet, in_port):
                from repro.packet import Dhcp

                if packet.has(Dhcp):
                    server.on_packet_in(switch, packet, in_port)
                else:
                    proxy.on_packet_in(switch, packet, in_port)

            def on_oob(self, switch, event):
                pass

        taps = list(extra_taps)
        if with_snooper:
            taps.append(snooper.observe)
        return ProxyPlusDhcp(), taps, proxy

    def test_preload_honoured_clean(self):
        app, taps, proxy = self._setup()
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("arp-cache-preloaded"), taps_before=taps)
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1,
                                  requested_ip="10.0.0.100"))
        net.run()
        # Another host asks for the leased address: proxy must answer with
        # the leased MAC.
        hosts[1].send(arp_request(2, "10.0.0.2", "10.0.0.100"))
        net.run(until=5.0)
        assert mon.violations == []

    def test_skip_preload_detected(self):
        app, taps, proxy = self._setup(proxy_faults=always("skip_preload"))
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("arp-cache-preloaded"), taps_before=taps)
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1,
                                  requested_ip="10.0.0.100"))
        net.run()
        hosts[1].send(arp_request(2, "10.0.0.2", "10.0.0.100"))
        net.run(until=5.0)
        assert len(mon.violations) == 1

    def test_unfounded_reply_detected(self):
        knowledge = LeaseKnowledge()
        app, taps, proxy = self._setup(proxy_faults=always("reply_unknown"))
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("no-unfounded-reply",
                             catalog_predicates(lease_knowledge=knowledge)),
            taps_before=taps + [knowledge.observe])
        hosts[1].send(arp_request(2, "10.0.0.2", "10.0.0.99"))
        net.run()
        assert len(mon.violations) == 1

    def test_founded_reply_clean(self):
        knowledge = LeaseKnowledge()
        app, taps, proxy = self._setup()
        net, sw, hosts, mon = monitored_net(
            3, app, load_property("no-unfounded-reply",
                             catalog_predicates(lease_knowledge=knowledge)),
            taps_before=taps + [knowledge.observe])
        # Lease first: the address becomes known via DHCP.
        hosts[0].send(dhcp_packet(5, DhcpMessageType.REQUEST, xid=1,
                                  requested_ip="10.0.0.100"))
        net.run()
        hosts[1].send(arp_request(2, "10.0.0.2", "10.0.0.100"))
        net.run()
        assert mon.violations == []
