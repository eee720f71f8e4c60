"""Unit tests: Packet container, builders, wire parsing, read-time depth limits."""

import pytest

from repro.packet import (
    DHCP_SERVER_PORT,
    TCP,
    UDP,
    Arp,
    Dhcp,
    DhcpMessageType,
    Ethernet,
    FtpControl,
    IPv4,
    IPv4Address,
    MACAddress,
    Packet,
    ParseError,
    TCPFlags,
    arp_reply,
    arp_request,
    dhcp_packet,
    encode,
    ethernet,
    ftp_control_packet,
    icmp_echo,
    parse,
    tcp_packet,
    tcp_syn,
    udp_packet,
)
from repro.packet.headers import ICMP


class TestPacketContainer:
    def test_uids_are_unique(self):
        assert ethernet(1, 2).uid != ethernet(1, 2).uid

    def test_duplicate_shares_uid(self):
        p = ethernet(1, 2)
        assert p.duplicate().uid == p.uid

    def test_refreshed_changes_uid(self):
        p = ethernet(1, 2)
        assert p.refreshed().uid != p.uid

    def test_find_get_has(self):
        p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1, 2)
        assert p.has(TCP)
        assert p.find(UDP) is None
        assert p.get(IPv4).src == IPv4Address("10.0.0.1")
        with pytest.raises(KeyError):
            p.get(UDP)

    def test_with_header_preserves_uid(self):
        p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1, 2)
        new_ip = IPv4(src=IPv4Address("9.9.9.9"), dst=p.ip_dst, proto=6)
        q = p.with_header(new_ip)
        assert q.uid == p.uid
        assert q.ip_src == IPv4Address("9.9.9.9")
        assert p.ip_src == IPv4Address("10.0.0.1")  # original untouched

    def test_with_header_missing_type(self):
        with pytest.raises(KeyError):
            ethernet(1, 2).with_header(UDP(src_port=1, dst_port=2))

    def test_fields_depth_limit(self):
        p = dhcp_packet(5, DhcpMessageType.REQUEST)
        assert "dhcp.msg_type" in p.fields(max_layer=7)
        assert "dhcp.msg_type" not in p.fields(max_layer=4)
        assert "udp.src" in p.fields(max_layer=4)
        assert "udp.src" not in p.fields(max_layer=3)

    def test_field_lookup(self):
        p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 7, 8)
        assert p.field("tcp.src") == 7
        with pytest.raises(KeyError):
            p.field("tcp.src", max_layer=3)

    def test_five_tuple(self):
        p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 7, 8)
        assert p.five_tuple() == (
            IPv4Address("10.0.0.1"), 7, IPv4Address("10.0.0.2"), 8, 6
        )
        assert ethernet(1, 2).five_tuple() is None

    def test_l4_ports_udp(self):
        p = udp_packet(1, 2, "10.0.0.1", "10.0.0.2", 100, 200)
        assert p.l4_sport == 100
        assert p.l4_dport == 200

    def test_max_layer(self):
        assert ethernet(1, 2).max_layer == 2
        assert arp_request(1, "10.0.0.1", "10.0.0.2").max_layer == 3
        assert tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1, 2).max_layer == 4
        assert dhcp_packet(5, DhcpMessageType.REQUEST).max_layer == 7

    def test_describe_mentions_flow(self):
        text = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 7, 8).describe()
        assert "10.0.0.1:7" in text


class TestBuilders:
    def test_arp_request_is_broadcast(self):
        p = arp_request(1, "10.0.0.1", "10.0.0.2")
        assert p.eth.dst.is_broadcast
        assert p.get(Arp).is_request

    def test_arp_reply_is_unicast(self):
        p = arp_reply(2, "10.0.0.2", 1, "10.0.0.1")
        assert p.eth.dst == MACAddress(1)
        assert p.get(Arp).is_reply
        assert p.get(Arp).sender_ip == IPv4Address("10.0.0.2")

    def test_tcp_syn_flags(self):
        assert tcp_syn(1, 2, "10.0.0.1", "10.0.0.2", 1, 2).get(TCP).is_syn

    def test_icmp_echo(self):
        req = icmp_echo(1, 2, "10.0.0.1", "10.0.0.2")
        rep = icmp_echo(2, 1, "10.0.0.2", "10.0.0.1", reply=True)
        assert req.get(ICMP).icmp_type == ICMP.TYPE_ECHO_REQUEST
        assert rep.get(ICMP).icmp_type == ICMP.TYPE_ECHO_REPLY

    def test_dhcp_request_ports(self):
        p = dhcp_packet(5, DhcpMessageType.REQUEST)
        assert p.get(UDP).dst_port == DHCP_SERVER_PORT

    def test_dhcp_reply_ports(self):
        p = dhcp_packet(5, DhcpMessageType.ACK, yiaddr="10.0.0.50")
        assert p.get(UDP).src_port == DHCP_SERVER_PORT
        assert p.get(Dhcp).yiaddr == IPv4Address("10.0.0.50")

    def test_ftp_control_to_server(self):
        p = ftp_control_packet(1, 2, "10.0.0.1", "10.0.0.2", 5000,
                               "PORT 10,0,0,1,4,1")
        assert p.get(TCP).dst_port == 21
        assert p.get(FtpControl).data_port == 1025


class TestWireParsing:
    def test_l2_roundtrip(self):
        p = ethernet(1, 2)
        assert parse(encode(p)).eth == p.eth

    def test_arp_roundtrip(self):
        p = arp_request(1, "10.0.0.1", "10.0.0.2")
        assert parse(encode(p)).get(Arp) == p.get(Arp)

    def test_tcp_roundtrip(self):
        p = tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 5, 6, payload=b"hi")
        q = parse(encode(p))
        assert q.get(TCP).src_port == 5
        assert q.payload == b"hi"

    def test_udp_roundtrip(self):
        p = udp_packet(1, 2, "10.0.0.1", "10.0.0.2", 5, 6, payload=b"xy")
        q = parse(encode(p))
        assert q.get(UDP).dst_port == 6
        assert q.payload == b"xy"

    def test_icmp_roundtrip(self):
        q = parse(encode(icmp_echo(1, 2, "10.0.0.1", "10.0.0.2", seq=3)))
        assert q.get(ICMP).seq == 3

    def test_dhcp_recognized_by_port(self):
        q = parse(encode(dhcp_packet(5, DhcpMessageType.DISCOVER, xid=9)))
        assert q.get(Dhcp).xid == 9

    def test_ftp_recognized_by_port(self):
        p = ftp_control_packet(1, 2, "10.0.0.1", "10.0.0.2", 5000,
                               "PORT 10,0,0,1,4,1")
        q = parse(encode(p))
        assert q.get(FtpControl).data_port == 1025

    def test_truncated_frame_rejected(self):
        with pytest.raises(ParseError):
            parse(b"\x00" * 10)

    def test_unknown_ethertype_leaves_payload(self):
        from repro.packet.headers import Ethernet

        p = Packet.of(
            Ethernet(src=MACAddress(1), dst=MACAddress(2), ethertype=0x9999),
            payload=b"mystery",
        )
        q = parse(encode(p))
        assert q.payload == b"mystery"
        assert q.max_layer == 2

    def test_malformed_l7_stays_opaque(self):
        # Claim DHCP ports but carry garbage: the parser must not fail.
        p = udp_packet(1, 2, "10.0.0.1", "10.0.0.2", 68, 67, payload=b"xx")
        q = parse(encode(p))
        assert not q.has(Dhcp)
        assert q.payload == b"xx"

