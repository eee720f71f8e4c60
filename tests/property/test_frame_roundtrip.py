"""Property-based tests: the framed batch encoding round-trips every
recorded event kind — including the TimerFired instance keys carrying
addresses and enums that the plain JSONL path used to flatten into
strings (the gap the fabric's IPC transport surfaced), and the packet
events whose values do not fit the fixed binary record."""

import dataclasses
import io
import json
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.serialize import (
    FRAME_MAGIC,
    TraceFormatError,
    batch_header,
    decode_frames,
    dump_trace,
    encode_frames,
    event_from_dict,
    event_to_dict,
    iter_records,
    load_trace,
)
from repro.packet import (
    DhcpMessageType,
    Ethernet,
    EtherType,
    IPv4Address,
    MACAddress,
    Packet,
    TCPFlags,
    Vlan,
    arp_reply,
    arp_request,
    dhcp_packet,
    ethernet,
    icmp_echo,
    tcp_packet,
    udp_packet,
)
from repro.packet.parser import encode, parse
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
times = st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False)
switch_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=8)

packets = st.one_of(
    st.tuples(st.integers(0, 7), st.integers(0, 7), ips, ips, ports, ports)
    .map(lambda t: tcp_packet(t[0], t[1], str(t[2]), str(t[3]), t[4], t[5])),
    st.tuples(st.integers(0, 7), ips, ips)
    .map(lambda t: arp_request(t[0], str(t[1]), str(t[2]))),
)

#: every scalar type an instance key can carry across the wire
key_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 62), max_value=1 << 62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    ips,
    macs,
    st.sampled_from(list(EgressAction)),
    st.sampled_from(list(OobKind)),
)

arrivals = st.builds(
    PacketArrival, switch_id=switch_ids, time=times, packet=packets,
    in_port=st.integers(0, 64))
egresses = st.builds(
    PacketEgress, switch_id=switch_ids, time=times, packet=packets,
    in_port=st.integers(0, 64), out_port=st.integers(0, 64),
    action=st.sampled_from(list(EgressAction)))
drops = st.builds(
    PacketDrop, switch_id=switch_ids, time=times, packet=packets,
    in_port=st.integers(0, 64), reason=st.text(max_size=16))
oobs = st.builds(
    OutOfBandEvent, switch_id=switch_ids, time=times,
    oob_kind=st.sampled_from(list(OobKind)),
    port=st.one_of(st.none(), st.integers(0, 64)))
timers = st.builds(
    TimerFired, switch_id=switch_ids, time=times,
    timer_id=st.text(max_size=12),
    instance_key=st.tuples() | st.tuples(key_scalars)
    | st.tuples(key_scalars, key_scalars)
    | st.tuples(key_scalars, key_scalars, key_scalars))

#: packet events with one value the fixed record has no room for; they
#: must travel as the tag-0 JSON record and come back unchanged
misfits = st.one_of(
    st.builds(PacketArrival, switch_id=switch_ids, time=times,
              packet=packets, in_port=st.integers(2**31, 2**40)),
    st.builds(PacketEgress, switch_id=switch_ids, time=times,
              packet=packets, out_port=st.integers(-2**40, -2**31 - 1)),
    st.builds(PacketArrival, switch_id=switch_ids, time=times,
              packet=st.builds(dataclasses.replace, packets,
                               uid=st.integers(2**64, 2**70))),
    st.builds(PacketDrop, switch_id=switch_ids, time=times, packet=packets,
              reason=st.just("r" * 70_000)),
    st.builds(PacketArrival, time=times, packet=packets,
              switch_id=st.text(min_size=1, max_size=8).filter(
                  lambda text: not text.isascii())),
    st.builds(PacketArrival, time=times, packet=packets,
              switch_id=st.just("s" * 256)),
)

events = st.one_of(arrivals, egresses, drops, oobs, timers, misfits)

#: the documented layout of one packet record and of the batch header
PACKET_RECORD = struct.Struct(">BdQiiBBHH")
BATCH_HEADER = struct.Struct(">4sII")


def framed(count, body):
    return BATCH_HEADER.pack(FRAME_MAGIC, count, len(body)) + body


def json_record(payload):
    return struct.pack(">BI", 0, len(payload)) + payload


def arrival(uid=7, time=0.5):
    packet = dataclasses.replace(arp_request(1, "10.0.0.1", "10.0.0.2"),
                                 uid=uid)
    return PacketArrival(switch_id="s", time=time, packet=packet, in_port=1)


def assert_same_event(left, right):
    assert type(left) is type(right)
    assert left.switch_id == right.switch_id
    assert left.time == right.time
    packet = getattr(left, "packet", None)
    if packet is not None:
        assert right.packet.uid == packet.uid
        assert right.packet.headers == packet.headers
        assert right.in_port == left.in_port
    if isinstance(left, PacketEgress):
        assert (right.out_port, right.action) == (left.out_port, left.action)
    if isinstance(left, PacketDrop):
        assert right.reason == left.reason
    if isinstance(left, TimerFired):
        assert right.instance_key == left.instance_key
        for a, b in zip(left.instance_key, right.instance_key):
            assert type(a) is type(b), (a, b)


class TestFrameRoundtrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(events, max_size=12))
    def test_encode_decode_identity(self, batch):
        decoded = decode_frames(encode_frames(batch))
        assert len(decoded) == len(batch)
        for original, restored in zip(batch, decoded):
            assert_same_event(original, restored)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(events, max_size=8))
    def test_framed_and_jsonl_agree(self, batch):
        """Both wire formats produce the same event dicts."""
        import io

        fp = io.StringIO()
        dump_trace(batch, fp)
        fp.seek(0)
        via_jsonl = load_trace(fp)
        via_frames = decode_frames(encode_frames(batch))
        assert ([event_to_dict(e) for e in via_jsonl]
                == [event_to_dict(e) for e in via_frames])

    @settings(max_examples=60, deadline=None)
    @given(events)
    def test_event_dict_roundtrip_preserves_types(self, event):
        restored = event_from_dict(
            json.loads(json.dumps(event_to_dict(event))))
        assert_same_event(event, restored)


def _built(cls, **values):
    return cls(switch_id="s1", time=0.1, **values)


#: one event of every packet class and of every EgressAction, plus the
#: rare kinds the JSON record and the JSONL line carry
TRUSTED_CASES = [
    _built(PacketArrival, packet=tcp_packet(1, 2, "10.0.0.1", "10.0.0.2",
                                            1234, 80), in_port=3),
    _built(PacketDrop, packet=arp_request(1, "10.0.0.1", "10.0.0.2"),
           in_port=2, reason="acl"),
    *[_built(PacketEgress, packet=arp_request(1, "10.0.0.1", "10.0.0.9"),
             in_port=1, out_port=4, action=action)
      for action in EgressAction],
    *[_built(OutOfBandEvent, oob_kind=kind, port=5) for kind in OobKind],
    _built(TimerFired, instance_key=(IPv4Address("10.0.0.1"),
                                     EgressAction.FLOOD, 7),
           timer_id="t"),
]


def _case_id(event):
    member = getattr(event, "action", None) or getattr(event, "oob_kind", None)
    return type(event).__name__ + (f"-{member.value}" if member else "")


def _via_rpf2(event):
    (decoded,) = decode_frames(encode_frames([event]))
    return decoded


def _via_jsonl(event):
    fp = io.StringIO()
    dump_trace([event], fp)
    fp.seek(0)
    (decoded,) = load_trace(fp)
    return decoded


class TestTrustedConstructor:
    """Both decoders build events with ``DataplaneEvent.decoded``, not
    the dataclass ``__init__``: the result must be the event
    ``__init__`` builds, in every way a reader can tell."""

    @pytest.mark.parametrize("decode", [_via_rpf2, _via_jsonl],
                             ids=["rpf2", "jsonl"])
    @pytest.mark.parametrize("event", TRUSTED_CASES, ids=_case_id)
    def test_decoded_event_is_the_dataclass_event(self, event, decode):
        decoded = decode(event)
        built = dataclasses.replace(event, seq=decoded.seq)
        assert type(decoded) is type(built)
        assert decoded == built and built == decoded
        assert hash(decoded) == hash(built)
        assert repr(decoded) == repr(built)
        names = [field.name for field in dataclasses.fields(built)]
        # every field, in declaration order, and nothing else
        assert list(vars(decoded)) == names
        again = pickle.loads(pickle.dumps(decoded))
        assert again == built and hash(again) == hash(built)
        assert repr(again) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.time = 1.0

    def test_decoded_events_draw_fresh_sequence_numbers(self):
        event = TRUSTED_CASES[0]
        before = _built(PacketArrival, packet=event.packet, in_port=3)
        first, second = _via_rpf2(event), _via_jsonl(event)
        after = _built(PacketArrival, packet=event.packet, in_port=3)
        assert before.seq < first.seq < second.seq < after.seq


def _tagged(packet, vid, pcp):
    """``packet`` behind an 802.1Q tag."""
    eth = packet.headers[0]
    return Packet.of(
        Ethernet(src=eth.src, dst=eth.dst, ethertype=EtherType.VLAN),
        Vlan(vid=vid, pcp=pcp, ethertype=eth.ethertype),
        *packet.headers[1:], payload=packet.payload)


#: a TCP flag byte as the builders set it: one bit is a member, more
#: than one an int, and a value no member names stays an int too
tcp_flags = st.one_of(
    st.sampled_from(list(TCPFlags)),
    st.just(TCPFlags.SYN | TCPFlags.ACK), st.just(TCPFlags.FIN | TCPFlags.ACK),
    st.integers(0, 255).filter(lambda flags: flags not in set(TCPFlags)))

#: one packet of every header class the wire walk reads
wire_packets = st.one_of(
    st.tuples(st.integers(0, 7), st.integers(0, 7), ips, ips, ports, ports,
              tcp_flags)
    .map(lambda t: tcp_packet(t[0], t[1], str(t[2]), str(t[3]), t[4], t[5],
                              flags=t[6])),
    st.tuples(st.integers(0, 7), ips, ips)
    .map(lambda t: arp_request(t[0], str(t[1]), str(t[2]))),
    st.tuples(st.integers(0, 7), ips, st.integers(0, 7), ips)
    .map(lambda t: arp_reply(t[0], str(t[1]), t[2], str(t[3]))),
    st.tuples(st.integers(0, 7), st.integers(0, 7), ips, ips, ports, ports)
    .map(lambda t: udp_packet(t[0], t[1], str(t[2]), str(t[3]), t[4], t[5])),
    st.tuples(st.integers(0, 7), st.integers(0, 7), ips, ips, st.booleans())
    .map(lambda t: icmp_echo(t[0], t[1], str(t[2]), str(t[3]), reply=t[4])),
    st.tuples(macs, st.sampled_from(list(DhcpMessageType)), ips)
    .map(lambda t: dhcp_packet(t[0], t[1], yiaddr=t[2])),
    st.tuples(macs, macs,
              st.sampled_from([EtherType.IPV4, EtherType.ARP, 0x86DD]))
    .map(lambda t: ethernet(*t)),
)


class TestHeaderObjects:
    @settings(max_examples=150, deadline=None)
    @given(wire_packets, st.booleans(), st.integers(0, 4095),
           st.integers(0, 7))
    def test_a_parsed_header_is_the_built_header(self, packet, tag, vid, pcp):
        """``from_wire`` reads a known enum value as its member, the way
        a built header holds it: the parsed stack prints as it was
        built, not only compares equal."""
        if tag:
            packet = _tagged(packet, vid, pcp)
        parsed = parse(encode(packet))
        assert parsed.headers == packet.headers
        assert repr(parsed.headers) == repr(packet.headers)


class TestRecordLayout:
    def test_packet_record_is_the_documented_struct(self):
        from repro.packet.parser import encode as wire_encode

        event = arrival()
        wire = wire_encode(event.packet)
        record = PACKET_RECORD.pack(
            1, 0.5, 7, 1, 0, 0, 1, 0, len(wire)) + b"s" + wire
        assert encode_frames([event]) == framed(1, record)

    def test_rare_events_are_json_records(self):
        event = OutOfBandEvent(
            switch_id="s", time=1.0, oob_kind=OobKind.PORT_UP, port=1)
        payload = json.dumps(event_to_dict(event), sort_keys=True,
                             separators=(",", ":")).encode()
        assert encode_frames([event]) == framed(1, json_record(payload))

    @settings(max_examples=40, deadline=None)
    @given(misfits)
    def test_values_outside_the_fixed_widths_take_the_json_record(
            self, event):
        blob = encode_frames([event])
        assert blob[BATCH_HEADER.size] == 0
        (restored,) = decode_frames(blob)
        assert_same_event(event, restored)


class TestFrameErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError, match="magic"):
            decode_frames(b'{"kind": "TraceHeader"}\n')

    def test_truncated_payload_rejected(self):
        blob = encode_frames([
            OutOfBandEvent(switch_id="s", time=1.0,
                           oob_kind=OobKind.PORT_UP, port=1),
            arrival()])
        for cut in range(len(blob)):
            with pytest.raises(TraceFormatError, match="truncated|magic"):
                decode_frames(blob[:cut])
        # A header that understates the count leaves bytes unaccounted
        # for; one that overstates it runs out of body.
        body = blob[BATCH_HEADER.size:]
        with pytest.raises(TraceFormatError, match="trailing"):
            decode_frames(framed(1, body))
        with pytest.raises(TraceFormatError, match="truncated"):
            decode_frames(framed(3, body))

    def test_trailing_garbage_rejected(self):
        blob = encode_frames([])
        assert blob == FRAME_MAGIC + b"\x00" * 8
        with pytest.raises(TraceFormatError, match="trailing"):
            decode_frames(blob + b"xx")
        with pytest.raises(TraceFormatError, match="trailing"):
            decode_frames(framed(0, b"xx"))

    def test_unknown_key_tag_rejected(self):
        blob = json.dumps({
            "kind": "TimerFired", "switch": "s", "time": 1.0,
            "timer_id": "t", "instance_key": [{"t": "nope", "v": "x"}]})
        with pytest.raises(TraceFormatError, match="unknown key element"):
            decode_frames(framed(1, json_record(blob.encode())))

    def test_unencodable_key_rejected(self):
        event = TimerFired(switch_id="s", time=1.0, timer_id="t",
                           instance_key=((1, 2),))
        with pytest.raises(TraceFormatError, match="no\\s+trace encoding"):
            encode_frames([event])

    def test_unknown_record_tag_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown record tag"):
            decode_frames(framed(1, b"\x09" + b"\x00" * 40))

    @pytest.mark.parametrize("record", [
        # five bytes are no ethernet header
        PACKET_RECORD.pack(1, 0.5, 7, 1, 0, 0, 1, 0, 5) + b"s" + b"\x00" * 5,
        # egress-action index 9 names no action
        PACKET_RECORD.pack(2, 0.5, 7, 1, 2, 9, 1, 0, 14) + b"s" + b"\x00" * 14,
        # a switch id that is not ASCII
        PACKET_RECORD.pack(1, 0.5, 7, 1, 0, 0, 1, 0, 14) + b"\xff"
        + b"\x00" * 14,
        json_record(b"not json"),
        json_record(b"[1, 2, 3]"),
        json_record(b'{"kind": "PacketArrival", "switch": "s", "time": null}'),
        json_record(b'{"kind": "OutOfBandEvent", "switch": "s", "time": 1,'
                    b' "oob_kind": "link-sideways"}'),
        json_record(b'{"kind": "OutOfBandEvent", "switch": "s", "time": 1,'
                    b' "oob_kind": {"v": 1}}'),
    ], ids=["short-packet", "bad-action", "non-ascii-switch", "not-json",
            "json-array", "null-time", "unknown-oob-kind",
            "unhashable-oob-kind"])
    def test_bad_record_is_skipped_only_when_counting(self, record):
        """A delimited record that does not decode: the strict form
        raises; with a callback it costs one report and nothing else."""
        good = encode_frames([arrival(uid=1)])[BATCH_HEADER.size:]
        body = good + record + good
        with pytest.raises(TraceFormatError, match="record 1"):
            decode_frames(framed(3, body))
        faults = []
        events = list(iter_records(body, 3, bad_record=faults.append))
        assert [e.packet.uid for e in events] == [1, 1]
        assert len(faults) == 1

    def test_structural_fault_keeps_the_decoded_prefix(self):
        good = encode_frames([arrival(uid=1)])[BATCH_HEADER.size:]
        events, faults = [], []
        with pytest.raises(TraceFormatError, match="runs past the body"):
            for event in iter_records(good + good[:-1], 2,
                                      bad_record=faults.append):
                events.append(event)
        assert [e.packet.uid for e in events] == [1] and not faults

    def test_declared_body_length_is_capped_before_the_body_is_read(self):
        header = BATCH_HEADER.pack(FRAME_MAGIC, 1, 0xFFFFFFFF)
        assert batch_header(header) == (1, 0xFFFFFFFF)
        with pytest.raises(TraceFormatError, match="cap"):
            batch_header(header, max_body=1 << 24)
        with pytest.raises(TraceFormatError, match="truncated"):
            batch_header(header[:11])
