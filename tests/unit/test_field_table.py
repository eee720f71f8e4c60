"""The one field table: every dotted field is declared on the header that
carries it (``FIELDS``) or in the event-metadata rows beside
``event_fields`` (``METADATA_FIELDS``), and everything else — both packet
projections, Set-Field, the lint schema, parse depth, trust labels — agrees
with that declaration."""

import pytest

from repro.core.analysis import field_layer
from repro.core.features import TRUSTED_FIELDS
from repro.core.refs import METADATA_FIELDS, event_fields
from repro.lint.schema import FIELD_SCHEMA
from repro.packet import (
    HEADERS,
    UDP,
    Dhcp,
    DhcpMessageType,
    EtherType,
    Ethernet,
    FtpControl,
    IPProto,
    IPv4,
    IPv4Address,
    MACAddress,
    Packet,
    Vlan,
    arp_reply,
    arp_request,
    dhcp_packet,
    encode,
    ethernet,
    ftp_control_packet,
    icmp_echo,
    parse,
    tcp_packet,
    udp_packet,
)
from repro.packet.wire import walk
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)
from repro.switch.rewrite import rewritable_fields

KIND_TYPES = {"mac": MACAddress, "ip": IPv4Address, "int": int, "str": str}
DEPTHS = (2, 3, 4, 7)

#: one packet of every protocol the repo builds
BUILT = {
    "ethernet": ethernet(1, 2),
    "vlan": Packet.of(
        Ethernet(src=MACAddress(1), dst=MACAddress(2),
                 ethertype=EtherType.VLAN),
        Vlan(vid=42, pcp=5, ethertype=EtherType.IPV4),
        IPv4(src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.0.0.2"),
             proto=IPProto.UDP, dscp=10, payload_len=8),
        UDP(src_port=5000, dst_port=53)),
    "arp-request": arp_request(1, "10.0.0.1", "10.0.0.2"),
    "arp-reply": arp_reply(2, "10.0.0.2", 1, "10.0.0.1"),
    "tcp": tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1234, 80,
                      payload=b"data"),
    "udp": udp_packet(1, 2, "10.0.0.1", "10.0.0.2", 5000, 53),
    "icmp": icmp_echo(1, 2, "10.0.0.1", "10.0.0.2", ident=7, seq=3),
    "dhcp-bare": dhcp_packet(5, DhcpMessageType.DISCOVER, xid=9),
    "dhcp-options": dhcp_packet(
        5, DhcpMessageType.ACK, xid=9, yiaddr="10.0.0.50",
        requested_ip="10.0.0.50", lease_time=3600, server_id="10.0.0.254"),
    "ftp-port": ftp_control_packet(1, 2, "10.0.0.1", "10.0.0.2", 4000,
                                   "PORT 10,0,0,1,15,161"),
}


def assert_declared(cls, emitted):
    """``emitted`` holds only ``cls``'s declared fields, in declared order,
    each a value of its declared kind; an L2-L4 header emits all of them."""
    names = [row.name for row in cls.FIELDS]
    assert set(emitted) <= set(names), (cls.__name__, emitted)
    assert list(emitted) == [n for n in names if n in emitted]
    if cls not in (Dhcp, FtpControl):
        assert list(emitted) == names
    for row in cls.FIELDS:
        if row.name in emitted:
            assert isinstance(emitted[row.name], KIND_TYPES[row.kind]), row


class TestDeclarations:
    def test_each_row_belongs_to_its_header(self):
        for header in HEADERS:
            for row in header.FIELDS:
                assert row.name.split(".", 1)[0] == header.NAME
                assert row.attr in header.__dataclass_fields__, row
                assert row.kind in KIND_TYPES
                assert (row.bits == 0) == (row.kind == "str")

    def test_names_are_declared_once(self):
        names = [row.name for h in HEADERS for row in h.FIELDS] \
            + [row.name for row in METADATA_FIELDS]
        assert len(names) == len(set(names)) == 45
        assert list(FIELD_SCHEMA) == names
        for header in HEADERS:
            for row in header.FIELDS:
                assert (FIELD_SCHEMA[row.name].kind,
                        FIELD_SCHEMA[row.name].bits) == (row.kind, row.bits)


class TestBothProjectionsReadTheTable:
    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_every_emitted_key_is_declared_on_its_header(self, name):
        built = BUILT[name]
        for header in built.headers:
            assert_declared(type(header), header.fields())
        raw = encode(built)
        for depth in DEPTHS:
            # field projection: straight from the bytes, header by header
            stack, l7, _ = walk(raw, depth)
            flat = {}
            for cls, values in stack:
                out = {}
                cls.read_fields(values, out)
                assert_declared(cls, out)
                flat.update(out)
            if l7 is not None:
                assert_declared(type(l7), l7.fields())
                flat.update(l7.fields())
            assert list(parse(raw, depth).fields(depth).items()) \
                == list(flat.items())
            # object projection: the header stack the same bytes build
            packet = parse(raw, depth)
            for header in packet.headers:
                assert_declared(type(header), header.fields())
            assert list(packet.fields(depth).items()) == list(flat.items())
            assert list(built.fields(depth).items()) == list(flat.items())

    def test_every_header_is_reached(self):
        seen = {type(h) for p in BUILT.values()
                for h in parse(encode(p)).headers}
        assert seen == set(HEADERS)

    def test_optional_l7_fields_are_the_only_ones_left_out(self):
        bare = BUILT["dhcp-bare"].fields()
        assert "dhcp.requested_ip" not in bare and "dhcp.yiaddr" in bare
        full = BUILT["dhcp-options"].fields()
        assert [n for n in full if n.startswith("dhcp.")] \
            == [row.name for row in Dhcp.FIELDS]
        assert "ftp.data_port" not in FtpControl.from_line("USER x").fields()


def events():
    packet = BUILT["tcp"]
    return [
        PacketArrival(switch_id="s1", time=1.0, packet=packet, in_port=3),
        PacketEgress(switch_id="s1", time=1.5, packet=packet, in_port=3,
                     out_port=4, action=EgressAction.FLOOD),
        PacketDrop(switch_id="s1", time=2.0, packet=packet, in_port=3,
                   reason="acl"),
        OutOfBandEvent(switch_id="s1", time=2.5,
                       oob_kind=OobKind.LINK_DOWN, port=4),
        TimerFired(switch_id="s1", time=3.0, timer_id="stage-1"),
    ]


class TestMetadata:
    def test_event_fields_emits_only_declared_names(self):
        meta = {row.name: row for row in METADATA_FIELDS}
        emitted = set()
        for event in events():
            for name, value in event_fields(event).items():
                assert name in FIELD_SCHEMA
                if name in meta:
                    emitted.add(name)
                    owner = event.packet if name == "uid" else event
                    assert value == getattr(owner, meta[name].attr)
        assert emitted == set(meta)

    def test_the_metadata_table_is_the_trusted_set(self):
        assert {row.name for row in METADATA_FIELDS} == TRUSTED_FIELDS


class TestDerivedViews:
    def test_set_field_targets_are_the_settable_rows(self):
        assert rewritable_fields() == (
            "arp.op", "arp.sender_ip", "arp.sender_mac", "arp.target_ip",
            "arp.target_mac", "dhcp.server_id", "dhcp.yiaddr", "eth.dst",
            "eth.src", "eth.type", "icmp.code", "icmp.type", "ipv4.dscp",
            "ipv4.dst", "ipv4.src", "ipv4.ttl", "tcp.dst", "tcp.flags",
            "tcp.src", "udp.dst", "udp.src", "vlan.pcp", "vlan.vid")

    def test_parse_depth_is_the_declaring_headers_layer(self):
        for header in HEADERS:
            for row in header.FIELDS:
                assert field_layer(row.name) == header.LAYER
        for row in METADATA_FIELDS:
            assert field_layer(row.name) == 2
        assert field_layer("made.up") == 2
        assert field_layer("dhcp.bogus") == 7
