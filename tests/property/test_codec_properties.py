"""Property-based tests: wire codecs and address types round-trip, and
a decoded packet is its wire bytes until someone reads it — the flat
field reader and the header objects are two projections of one walk, a
fault is raised by ``parse`` or never, and the serve/fabric hot path
builds no header object at all."""

import dataclasses
import pickle
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bind, Const, EventKind, EventPattern, FieldEq, Monitor, Observe, PropertySpec, Var
from repro.core import refs
from repro.core.refs import METADATA_FIELDS, MISSING, event_fields, field_loader
from repro.fabric import Router, build_routes
from repro.netsim.serialize import decode_frames, encode_frames
from repro.packet import (
    HEADERS,
    Dhcp,
    DhcpMessageType,
    FtpControl,
    HeaderError,
    IPv4Address,
    MACAddress,
    Packet,
    ParseError,
    TCP,
    UDP,
    arp_reply,
    arp_request,
    dhcp_packet,
    encode,
    encode_port_command,
    ethernet,
    ftp_control_packet,
    icmp_echo,
    parse,
    tcp_packet,
    udp_packet,
)
from repro.packet.headers import Arp, ArpOp, Ethernet, IPv4
from repro.faults.rounds import build_monitor, catalog_trace
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MACAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
ports = st.integers(min_value=0, max_value=65535)


class TestAddressRoundtrips:
    @given(macs)
    def test_mac_string_roundtrip(self, mac):
        assert MACAddress(str(mac)) == mac

    @given(macs)
    def test_mac_packed_roundtrip(self, mac):
        assert MACAddress(mac.packed()) == mac

    @given(ips)
    def test_ip_string_roundtrip(self, ip):
        assert IPv4Address(str(ip)) == ip

    @given(ips)
    def test_ip_packed_roundtrip(self, ip):
        assert IPv4Address(ip.packed()) == ip

    @given(ips)
    def test_ip_always_in_zero_prefix(self, ip):
        assert ip.in_subnet(IPv4Address(0), 0)

    @given(ips, st.integers(min_value=1, max_value=32))
    def test_ip_in_its_own_subnet(self, ip, prefix):
        assert ip.in_subnet(ip, prefix)


class TestHeaderRoundtrips:
    @given(macs, macs, st.integers(min_value=0, max_value=0xFFFF))
    def test_ethernet(self, src, dst, ethertype):
        eth = Ethernet(src=src, dst=dst, ethertype=ethertype)
        decoded, rest = Ethernet.decode(eth.encode())
        assert decoded == eth and rest == b""

    @given(st.sampled_from([ArpOp.REQUEST, ArpOp.REPLY]), macs, ips, macs, ips)
    def test_arp(self, op, smac, sip, tmac, tip):
        arp = Arp(op=op, sender_mac=smac, sender_ip=sip,
                  target_mac=tmac, target_ip=tip)
        decoded, _ = Arp.decode(arp.encode())
        assert decoded == arp

    @given(ips, ips, st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255))
    def test_ipv4(self, src, dst, proto, ttl):
        ip = IPv4(src=src, dst=dst, proto=proto, ttl=ttl)
        decoded, _ = IPv4.decode(ip.encode())
        assert decoded.src == src and decoded.dst == dst
        assert decoded.proto == proto and decoded.ttl == ttl

    @given(ports, ports, st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=0x3F))
    def test_tcp(self, sport, dport, seq, flags):
        tcp = TCP(src_port=sport, dst_port=dport, seq=seq, flags=flags)
        decoded, _ = TCP.decode(tcp.encode())
        assert decoded == tcp

    @given(ports, ports)
    def test_udp(self, sport, dport):
        udp = UDP(src_port=sport, dst_port=dport)
        decoded, _ = UDP.decode(udp.encode())
        assert decoded == udp


class TestFullPacketRoundtrips:
    @given(macs, macs, ips, ips, ports, ports,
           st.binary(max_size=64))
    def test_tcp_packet_wire(self, smac, dmac, sip, dip, sport, dport,
                             payload):
        p = tcp_packet(smac, dmac, sip, dip, sport, dport, payload=payload)
        q = parse(encode(p))
        assert q.eth.src == smac and q.eth.dst == dmac
        assert q.ip_src == sip and q.ip_dst == dip
        assert q.l4_sport == sport and q.l4_dport == dport
        assert q.payload == payload

    @given(macs, st.sampled_from([DhcpMessageType.DISCOVER,
                                  DhcpMessageType.REQUEST,
                                  DhcpMessageType.RELEASE]),
           st.integers(min_value=0, max_value=0xFFFFFFFF), ips)
    def test_dhcp_packet_wire(self, client, msg_type, xid, requested):
        p = dhcp_packet(client, msg_type, xid=xid, requested_ip=requested)
        q = parse(encode(p))
        dhcp = q.get(Dhcp)
        assert dhcp.client_mac == client
        assert dhcp.msg_type == msg_type
        assert dhcp.xid == xid
        assert dhcp.requested_ip == requested

    @given(ips, ports)
    def test_ftp_port_command(self, ip, port):
        line = FtpControl.from_line(encode_port_command(ip, port))
        assert line.data_ip == ip and line.data_port == port


# -- parse on demand ----------------------------------------------------------
DEPTHS = (0, 1, 2, 3, 4, 7)

small = st.integers(0, 7)
built = st.one_of(
    st.builds(tcp_packet, small, small, ips, ips, ports, ports,
              payload=st.binary(max_size=8)),
    st.builds(udp_packet, small, small, ips, ips, ports, ports,
              payload=st.binary(max_size=8)),
    st.builds(icmp_echo, small, small, ips, ips, reply=st.booleans()),
    st.builds(arp_request, small, ips, ips),
    st.builds(arp_reply, small, ips, small, ips),
    st.builds(dhcp_packet, small, st.sampled_from(list(DhcpMessageType)),
              xid=st.integers(0, 0xFFFFFFFF), yiaddr=ips,
              requested_ip=st.none() | ips,
              lease_time=st.none() | st.integers(0, 0xFFFFFFFF),
              server_id=st.none() | ips),
    st.builds(ftp_control_packet, small, small, ips, ips, ports,
              st.sampled_from(["PORT 10,0,0,1,4,1", "USER x",
                               "227 ok (10,0,0,2,7,9)", "PORT 1,2,3,4,5,99"]),
              to_server=st.booleans()),
    st.builds(ethernet, small, small, ethertype=st.integers(0, 0xFFFF)),
)


def tagged(raw, tci):
    """``raw`` with an 802.1Q tag pushed after the addresses."""
    return raw[:12] + struct.pack("!HH", 0x8100, tci) + raw[12:]


@st.composite
def frames(draw):
    """Wire bytes ``parse`` may or may not like: a built packet, maybe
    VLAN-tagged, then maybe cut at any length >= 14, maybe one bit
    flipped."""
    raw = encode(draw(built))
    if draw(st.booleans()):
        raw = tagged(raw, draw(st.integers(0, 0xFFFF)))
    damage = draw(st.sampled_from(["none", "cut", "flip"]))
    if damage == "cut":
        raw = raw[:draw(st.integers(14, len(raw)))]
    elif damage == "flip":
        at = draw(st.integers(0, len(raw) * 8 - 1))
        raw = raw[:at // 8] + bytes([raw[at // 8] ^ (1 << at % 8)]) \
            + raw[at // 8 + 1:]
    return raw


def is_lazy(packet):
    return "headers" not in vars(packet)


def eager(packet):
    """The same packet built from its header objects — what every
    decoded packet was before parsing went on demand."""
    return Packet(headers=packet.headers, payload=packet.payload,
                  uid=packet.uid)


def parses(raw):
    try:
        return parse(raw, uid=1)
    except HeaderError:
        return None


class TestTwoProjections:
    @given(frames())
    @settings(max_examples=300)
    def test_fields_from_bytes_equal_fields_from_objects(self, raw):
        for depth in DEPTHS:
            packet = parses(raw)
            if packet is None:
                return  # TestFaultsStayAtTheDoor has these
            flat = packet.fields(depth)
            assert is_lazy(packet)
            # equal values under equal keys in equal order
            assert list(flat.items()) == list(
                eager(parses(raw)).fields(depth).items())


#: every declared dotted name: the headers' rows, then the metadata rows
NAMESPACE = [row.name for header in HEADERS for row in header.FIELDS] \
    + [row.name for row in METADATA_FIELDS]


def five_events(packet, port):
    """One event of each class, the packet ones carrying ``packet``."""
    return [
        PacketArrival(switch_id="s", time=1.0, packet=packet, in_port=3),
        PacketEgress(switch_id="s", time=2.0, packet=packet, in_port=3,
                     out_port=4, action=EgressAction.FLOOD),
        PacketDrop(switch_id="s", time=3.0, packet=packet, in_port=3,
                   reason="acl"),
        OutOfBandEvent(switch_id="s", time=4.0,
                       oob_kind=OobKind.LINK_DOWN, port=port),
        TimerFired(switch_id="s", time=5.0, timer_id="t"),
    ]


class TestLoaderIsTheFlatten:
    """A field loader reads what ``event_fields`` would map, name by
    name, on any frame ``parse`` takes — cut, bit-flipped or VLAN-tagged,
    held as bytes or built from headers — and builds no header object."""

    @given(frames(), st.lists(st.sampled_from(NAMESPACE), unique=True),
           st.none() | st.integers(0, 64))
    @settings(max_examples=300)
    def test_loaded_values_equal_the_field_map(self, raw, names, port):
        lazy = parses(raw)
        if lazy is None:
            return  # TestFaultsStayAtTheDoor has these
        for depth in DEPTHS:
            for packet in (lazy, eager(parses(raw))):
                for event in five_events(packet, port):
                    loaded = field_loader(type(event), names, depth)(event)
                    flat = event_fields(event, depth)
                    assert loaded \
                        == tuple(flat.get(n, MISSING) for n in names)
                    assert [v is MISSING for v in loaded] \
                        == [n not in flat for n in names]
        assert is_lazy(lazy)


class TestLazyPacketIsAPacket:
    """The object protocol of a packet nobody has read yet."""

    RAW = encode(tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 7, 8, payload=b"hi"))

    def test_it_is_the_same_frozen_three_field_dataclass(self):
        packet = parse(self.RAW)
        assert [f.name for f in dataclasses.fields(Packet)] \
            == ["headers", "payload", "uid"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            packet.uid = 3
        with pytest.raises(AttributeError):
            packet.nonesuch

    def test_replace_eq_hash(self):
        p, q = parse(self.RAW, uid=5), parse(self.RAW, uid=5)
        assert is_lazy(p) and is_lazy(q)
        assert p == q and hash(p) == hash(q)
        assert p == eager(parse(self.RAW, uid=5))
        assert p != parse(self.RAW, uid=6)
        moved = dataclasses.replace(parse(self.RAW, uid=5), uid=9)
        assert moved.uid == 9 and moved.headers == p.headers
        assert moved.payload == b"hi"

    def test_pickle_before_and_after_materialisation(self):
        packet = parse(self.RAW, uid=5)
        copy = pickle.loads(pickle.dumps(packet))
        assert is_lazy(packet) and is_lazy(copy)
        assert copy.fields() == packet.fields()
        assert copy == packet and not is_lazy(packet)
        again = pickle.loads(pickle.dumps(packet))
        assert again == packet and again.uid == 5

    def test_rewrite_reparse_describe_max_layer(self):
        reference = eager(parse(self.RAW, uid=5))
        packet = parse(self.RAW, uid=5)
        assert packet.describe() == reference.describe()
        assert parse(self.RAW, uid=5).max_layer == 4
        new_ip = IPv4(src=IPv4Address("9.9.9.9"), dst=reference.ip_dst, proto=6)
        rewritten = parse(self.RAW, uid=5).with_header(new_ip)
        assert rewritten == reference.with_header(new_ip)
        assert rewritten.uid == 5

    def test_unread_packet_encodes_as_its_bytes_a_read_one_as_today(self):
        # TCP options: a parse -> encode round trip drops them
        raw = bytearray(self.RAW)
        raw[14 + 20 + 12] = 6 << 4
        raw = bytes(raw[:-2]) + b"\x01\x01\x01\x01" + b"hi"
        packet = parse(raw)
        assert encode(packet) is raw
        packet.headers
        assert encode(packet) == self.RAW == encode(eager(packet))


class TestWorkerSeesSenderBytes:
    """``repro serve --shards N`` decodes in the parent and re-encodes
    down the pipe.  An unread packet now goes down as the bytes it came
    as, not as a parse -> encode normalised copy; that cannot change
    what the worker matches."""

    @given(macs, macs, ips, ips, ports, ports,
           st.integers(1, 0xFFFF), st.integers(1, 0xFFFF),
           st.integers(1, 0xFFFF), st.integers(0, 0xFFFF),
           st.integers(6, 15), st.binary(max_size=8), st.integers(1, 1 << 40))
    def test_pipe_round_trip_matches_the_normalised_copy(
            self, smac, dmac, sip, dip, sport, dport, ident, frag, checksum,
            tci, data_offset, payload, uid):
        options = bytes(range(4 * (data_offset - 5)))
        raw = tagged(
            dmac.packed() + smac.packed() + struct.pack("!H", 0x0800)
            + struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + 4 * data_offset
                          + len(payload), ident, frag, 64, 6, checksum,
                          sip.packed(), dip.packed())
            + struct.pack("!HHIIBBHHH", sport, dport, 1, 2, data_offset << 4,
                          0x10, 512, 0xBEEF, 7) + options + payload, tci)
        arrival = PacketArrival(switch_id="s", time=1.0, in_port=1,
                                packet=parse(raw, uid=uid))
        [once] = decode_frames(encode_frames([arrival]))
        [twice] = decode_frames(encode_frames([once]))
        [normalised] = decode_frames(encode_frames(
            [dataclasses.replace(once, packet=eager(once.packet))]))
        assert encode(twice.packet) == raw != encode(normalised.packet)
        for depth in DEPTHS:
            assert twice.packet.fields(depth) == once.packet.fields(depth) \
                == normalised.packet.fields(depth)
        assert twice.packet.uid == normalised.packet.uid == uid
        assert is_lazy(twice.packet)
        assert twice.packet.headers == once.packet.headers \
            == normalised.packet.headers
        assert twice.packet.payload == normalised.packet.payload == payload


#: steer random bytes toward the branches of the walk
ETHERTYPES = st.sampled_from([b"\x08\x00", b"\x08\x06", b"\x81\x00"])
PROTOS = st.sampled_from([1, 6, 17])
PORTS = st.sampled_from([21, 67, 68]).map(lambda p: struct.pack("!H", p))
steered = st.one_of(
    st.binary(max_size=96),
    st.builds(lambda a, t, b: a + t + b, st.binary(min_size=12, max_size=12),
              ETHERTYPES, st.binary(max_size=80)),
    st.builds(lambda a, t, ip, proto, rest, port, tail:
              a + t + b"\x45" + ip[:8] + bytes([proto]) + rest + port + tail,
              st.binary(min_size=12, max_size=12), ETHERTYPES,
              st.binary(min_size=8, max_size=8), PROTOS,
              st.binary(min_size=10, max_size=12), PORTS,
              st.binary(max_size=48)),
)


class TestFaultsStayAtTheDoor:
    """Bytes are rejected by ``parse`` — the ingest boundary, where a
    fault is a counted frame error — or never."""

    #: bytes -> what ``parse`` raised before it went lazy
    PINNED = [
        (b"\x00" * 13, ParseError),                             # no ethernet
        (b"\x00" * 12 + b"\x81\x00" + b"\x00" * 3, HeaderError),  # cut tag
        (b"", ParseError),
    ]

    @pytest.mark.parametrize("raw,error", PINNED)
    def test_pinned_rejections(self, raw, error):
        with pytest.raises(error) as caught:
            parse(raw)
        assert type(caught.value) is error

    @given(steered | frames())
    @settings(max_examples=500)
    def test_what_parse_accepts_never_raises_later(self, raw):
        try:
            packet = parse(raw, uid=1)
        except HeaderError as exc:
            # exactly the two frames a fixed-function parser cannot start on
            assert len(raw) < 14 and type(exc) is ParseError \
                or raw[12:14] == b"\x81\x00" and len(raw) < 18
            return
        assert encode(packet) == raw
        for layer in DEPTHS:
            packet.fields(layer)
        assert is_lazy(packet)
        assert isinstance(packet.headers[0], Ethernet)
        assert raw.endswith(packet.payload)
        assert packet.describe().startswith("Packet#1[Ethernet")
        assert isinstance(encode(packet), bytes)  # re-serialised now


def flow_trace(num_events=600, flows=48):
    """The keyed-flow benchmark shape: arrivals and egresses over TCP
    flows, one in eight aimed at the port the property waits for."""
    packets = [tcp_packet(i % 8, (i + 1) % 8, f"10.0.{i}.1", "198.51.100.9",
                          1024 + i, 80 if i % 8 else 1) for i in range(flows)]
    events = []
    for n in range(num_events):
        packet, t = packets[(n * 7) % flows], 1.0 + n * 1e-4
        if n % 5 < 3:
            events.append(PacketArrival(switch_id="s", time=t, packet=packet,
                                        in_port=1))
        else:
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, in_port=1, out_port=2,
                action=EgressAction.UNICAST))
    return events


def flow_monitor():
    monitor = Monitor()
    monitor.add_property(PropertySpec(
        name="flow-parked", description="an egress of the flow to port 1",
        stages=(
            Observe("seen", EventPattern(
                kind=EventKind.ARRIVAL,
                binds=(Bind("src", "ipv4.src"), Bind("sport", "tcp.src")))),
            Observe("tripped", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("ipv4.src", Var("src")),
                        FieldEq("tcp.src", Var("sport")),
                        FieldEq("tcp.dst", Const(1))))),
        ),
        key_vars=("src", "sport")))
    return monitor


class TestHotPathStaysLazy:
    """A tripwire for whoever next adds a ``describe()`` or a
    ``.headers`` to the matcher: wire -> decode -> observe_batch at the
    default provenance level builds no header object, and the violations
    still render as an eagerly parsed run's do."""

    @pytest.mark.parametrize("trace,build", [
        (catalog_trace(seed=5, num_events=1500), build_monitor),
        (flow_trace(), flow_monitor),
    ], ids=["catalog", "flows"])
    def test_zero_materialisations_and_identical_rendering(
            self, trace, build, monkeypatch):
        wire = [encode_frames(trace[i:i + 64])
                for i in range(0, len(trace), 64)]
        materialised = []
        hook = Packet.__getattr__

        def counting(packet, name):
            materialised.append(name)
            return hook(packet, name)

        monkeypatch.setattr(Packet, "__getattr__", counting)
        lazy = build()
        for batch in wire:
            lazy.observe_batch(decode_frames(batch))
        lazy.drain()
        assert materialised == []
        assert lazy.violations
        monkeypatch.undo()

        reference = build()
        for batch in wire:
            reference.observe_batch([
                dataclasses.replace(event, packet=eager(event.packet))
                if hasattr(event, "packet") else event
                for event in decode_frames(batch)])
        reference.drain()
        assert [v.describe() for v in lazy.violations] \
            == [v.describe() for v in reference.violations]


def count_flattens(monkeypatch):
    """Count every ``event_fields`` call made through any ``repro``
    module that holds the function."""
    calls = []
    real = refs.event_fields

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "event_fields", None) is real:
            monkeypatch.setattr(module, "event_fields", counting)
    return calls


class TestNoFieldMapOnTheHotPath:
    """The generated program and the fabric router read events through
    field loaders: on decoded traffic neither builds a field map."""

    @pytest.mark.parametrize("trace,build", [
        (catalog_trace(seed=5, num_events=1500), build_monitor),
        (flow_trace(), flow_monitor),
    ], ids=["catalog", "flows"])
    def test_compiled_observe_batch(self, trace, build, monkeypatch):
        monitor = build()
        batches = [decode_frames(encode_frames(trace[i:i + 64]))
                   for i in range(0, len(trace), 64)]
        calls = count_flattens(monkeypatch)
        for batch in batches:
            monitor.observe_batch(batch)
        monitor.drain()
        assert monitor.violations
        assert calls == []

    def test_router_split(self, monkeypatch):
        router = Router(build_routes(flow_monitor()._props.values(), 2), 2)
        calls = count_flattens(monkeypatch)
        batches = router.split(flow_trace())
        assert all(batches)
        assert calls == []
