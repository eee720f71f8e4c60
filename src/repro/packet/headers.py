"""Protocol header types, L2 through L4, and the field namespace.

Each header is a frozen dataclass with a ``LAYER`` class attribute (the OSI
layer it belongs to), a ``NAME`` (the prefix of its dotted fields), and
``encode``/``decode`` for a simple wire format.  The wire format follows the
real protocols closely enough that parse-depth limits are meaningful, but
checksums are carried verbatim rather than validated — the reproduction
studies monitoring semantics, not checksumming.

Each header also declares the dotted fields it carries, once, as ``FIELDS``:
one :class:`Field` row per name, with the attribute that holds it, its kind,
its width and whether Set-Field may target it.  That table *is* the flat
namespace the monitor matches on (the paper's Feature 1): the object
projection (:meth:`Header.fields`), the Set-Field map, the lint schema and
the parse depth a field needs are all read from it.

A header states its byte layout once, as ``WIRE``, and reads it once, in
``unpack`` (length and validity checks, then the raw values).  Everything
else is a projection of those values: ``from_wire`` builds the object
(a known enum value read as its member, as a built header holds it),
``read_fields`` writes the flat dotted-name fields without building it —
what :mod:`repro.packet.wire` walks a frame with — and ``decode`` is
``unpack`` + ``from_wire`` + the bytes left over.  Where a field sits in
those raw values is stated once, as its row's ``wire`` expression:
``read_fields`` is compiled from the rows, and so is every field loader
(:func:`repro.core.refs.field_loader`) that reads the field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import ClassVar, Dict, NamedTuple, Optional, Tuple

from .addresses import IPv4Address, MACAddress

_mac, _ip = MACAddress.from_wire, IPv4Address.from_wire


class HeaderError(ValueError):
    """Raised on malformed wire bytes or invalid header field values."""


class EtherType(IntEnum):
    """Subset of IEEE 802 EtherTypes used by the reproduction."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100


class IPProto(IntEnum):
    """IPv4 protocol numbers used by the reproduction."""

    ICMP = 1
    TCP = 6
    UDP = 17


class ArpOp(IntEnum):
    REQUEST = 1
    REPLY = 2


class TCPFlags(IntEnum):
    """Individual TCP flag bits (combinable with ``|``)."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


def _unpack(cls, data: bytes, at: int = 0) -> tuple:
    """The raw ``cls.WIRE`` values at ``data[at:]``, or :class:`HeaderError`
    when there are fewer bytes than that (Arp, IPv4 and TCP add their
    validity checks on top)."""
    try:
        return cls.WIRE.unpack_from(data, at)
    except struct.error:
        raise HeaderError(
            f"{cls.__name__} header truncated: {len(data) - at} bytes") from None


def members(enum: type) -> Dict[int, IntEnum]:
    """``enum``'s members by value: ``from_wire`` reads a known value as
    the member a built header holds, and leaves an unknown one an int."""
    return {int(member): member for member in enum}


_ETHERTYPES, _PROTOS = members(EtherType), members(IPProto)
_ARP_OPS, _TCP_FLAGS = members(ArpOp), members(TCPFlags)


class Field(NamedTuple):
    """One declared dotted field."""

    name: str  # "ipv4.src"
    attr: str  # the attribute holding the value
    kind: str  # "ip" | "mac" | "int" | "str" | "enum" | "float"
    bits: int  # register width; 0 for unsized kinds (str, float, enum)
    settable: bool = False  # a Set-Field target
    #: the value as an expression over the header's raw ``WIRE`` values
    #: ``v`` (names from :data:`WIRE_NAMES`); "" for an L7 header, which
    #: is read whole
    wire: str = ""


#: what a ``Field.wire`` expression may call
WIRE_NAMES = {"_mac": _mac, "_ip": _ip}


class Header:
    """What every header shares: its field table and the projection of it."""

    LAYER: ClassVar[int]
    NAME: ClassVar[str]
    FIELDS: ClassVar[Tuple[Field, ...]] = ()
    #: ``(name, attr)`` per row — a plain pair unpacks faster than a row
    PROJECTION: ClassVar[Tuple[Tuple[str, str], ...]] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.PROJECTION = tuple((row.name, row.attr) for row in cls.FIELDS)

    def fields(self, out: Optional[Dict[str, object]] = None
               ) -> Dict[str, object]:
        """The declared fields in declared order, written into ``out`` when
        one is given; an attribute that is None (an L7 option the message
        did not carry) is left out."""
        if out is None:
            out = {}
        for name, attr in self.PROJECTION:
            value = getattr(self, attr)
            if value is not None:
                out[name] = value
        return out


class WireHeader(Header):
    """What the L2-L4 headers share: reading ``WIRE`` off a byte string."""

    WIRE: ClassVar[struct.Struct]
    unpack = classmethod(_unpack)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        body = "".join(f"\n    out[{row.name!r}] = {row.wire}"
                       for row in cls.FIELDS)
        namespace = dict(WIRE_NAMES)
        exec(f"def read_fields(v, out):{body}", namespace)  # noqa: S102
        #: ``read_fields(values, out)``: every row of ``FIELDS``, in order
        cls.read_fields = staticmethod(namespace["read_fields"])

    @classmethod
    def span(cls, values: tuple) -> int:
        """Bytes the header occupies (TCP's depends on its data offset)."""
        return cls.WIRE.size

    @classmethod
    def decode(cls, data: bytes) -> Tuple["WireHeader", bytes]:
        values = cls.unpack(data)
        return cls.from_wire(values), data[cls.span(values):]


@dataclass(frozen=True)
class Ethernet(WireHeader):
    """Ethernet II header (no FCS)."""

    LAYER: ClassVar[int] = 2
    NAME: ClassVar[str] = "eth"
    WIRE: ClassVar[struct.Struct] = struct.Struct("!6s6sH")
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("eth.src", "src", "mac", 48, settable=True, wire="_mac(v[1])"),
        Field("eth.dst", "dst", "mac", 48, settable=True, wire="_mac(v[0])"),
        Field("eth.type", "ethertype", "int", 16, settable=True, wire="v[2]"),
    )

    src: MACAddress
    dst: MACAddress
    ethertype: int

    def encode(self) -> bytes:
        return self.WIRE.pack(self.dst.packed(), self.src.packed(), self.ethertype)

    @classmethod
    def from_wire(cls, values: tuple) -> "Ethernet":
        dst, src, ethertype = values
        return cls(src=_mac(src), dst=_mac(dst),
                   ethertype=_ETHERTYPES.get(ethertype, ethertype))


@dataclass(frozen=True)
class Vlan(WireHeader):
    """802.1Q VLAN tag."""

    LAYER: ClassVar[int] = 2
    NAME: ClassVar[str] = "vlan"
    WIRE: ClassVar[struct.Struct] = struct.Struct("!HH")
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("vlan.vid", "vid", "int", 12, settable=True,
              wire="v[0] & 0x0FFF"),
        Field("vlan.pcp", "pcp", "int", 3, settable=True, wire="v[0] >> 13"),
    )

    vid: int
    pcp: int = 0
    ethertype: int = EtherType.IPV4

    def __post_init__(self) -> None:
        if not 0 <= self.vid < 4096:
            raise HeaderError(f"VLAN id out of range: {self.vid!r}")
        if not 0 <= self.pcp < 8:
            raise HeaderError(f"VLAN PCP out of range: {self.pcp!r}")

    def encode(self) -> bytes:
        return self.WIRE.pack((self.pcp << 13) | self.vid, self.ethertype)

    @classmethod
    def from_wire(cls, values: tuple) -> "Vlan":
        tci, ethertype = values
        return cls(vid=tci & 0x0FFF, pcp=tci >> 13,
                   ethertype=_ETHERTYPES.get(ethertype, ethertype))


@dataclass(frozen=True)
class Arp(WireHeader):
    """ARP for IPv4 over Ethernet."""

    LAYER: ClassVar[int] = 3
    NAME: ClassVar[str] = "arp"
    WIRE: ClassVar[struct.Struct] = struct.Struct("!HHBBH6sI6sI")
    #: htype, ptype, hlen, plen of the one combination spoken here
    ETHERNET_IPV4: ClassVar[tuple] = (1, EtherType.IPV4, 6, 4)
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("arp.op", "op", "int", 16, settable=True, wire="v[4]"),
        Field("arp.sender_mac", "sender_mac", "mac", 48, settable=True,
              wire="_mac(v[5])"),
        Field("arp.sender_ip", "sender_ip", "ip", 32, settable=True,
              wire="_ip(v[6])"),
        Field("arp.target_mac", "target_mac", "mac", 48, settable=True,
              wire="_mac(v[7])"),
        Field("arp.target_ip", "target_ip", "ip", 32, settable=True,
              wire="_ip(v[8])"),
    )

    op: int
    sender_mac: MACAddress
    sender_ip: IPv4Address
    target_mac: MACAddress
    target_ip: IPv4Address

    def encode(self) -> bytes:
        return self.WIRE.pack(
            *self.ETHERNET_IPV4, self.op,
            self.sender_mac.packed(), int(self.sender_ip),
            self.target_mac.packed(), int(self.target_ip))

    @classmethod
    def unpack(cls, data: bytes, at: int = 0) -> tuple:
        values = _unpack(cls, data, at)
        if values[:4] != cls.ETHERNET_IPV4:
            raise HeaderError("unsupported ARP hardware/protocol combination")
        return values

    @classmethod
    def from_wire(cls, values: tuple) -> "Arp":
        op = values[4]
        return cls(op=_ARP_OPS.get(op, op),
                   sender_mac=_mac(values[5]), sender_ip=_ip(values[6]),
                   target_mac=_mac(values[7]), target_ip=_ip(values[8]))

    @property
    def is_request(self) -> bool:
        return self.op == ArpOp.REQUEST

    @property
    def is_reply(self) -> bool:
        return self.op == ArpOp.REPLY


@dataclass(frozen=True)
class IPv4(WireHeader):
    """IPv4 header (options unsupported; total length derived at encode)."""

    LAYER: ClassVar[int] = 3
    NAME: ClassVar[str] = "ipv4"
    #: ver/ihl, tos, total length, ident, frag, ttl, proto, checksum, src, dst
    WIRE: ClassVar[struct.Struct] = struct.Struct("!BBHHHBBHII")
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("ipv4.src", "src", "ip", 32, settable=True, wire="_ip(v[8])"),
        Field("ipv4.dst", "dst", "ip", 32, settable=True, wire="_ip(v[9])"),
        Field("ipv4.proto", "proto", "int", 8, wire="v[6]"),
        Field("ipv4.ttl", "ttl", "int", 8, settable=True, wire="v[5]"),
        Field("ipv4.dscp", "dscp", "int", 6, settable=True, wire="v[1] >> 2"),
    )

    src: IPv4Address
    dst: IPv4Address
    proto: int
    ttl: int = 64
    dscp: int = 0
    ident: int = 0
    payload_len: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 255:
            raise HeaderError(f"TTL out of range: {self.ttl!r}")
        if not 0 <= self.proto <= 255:
            raise HeaderError(f"protocol out of range: {self.proto!r}")

    def encode(self) -> bytes:
        return self.WIRE.pack(
            (4 << 4) | 5,
            self.dscp << 2,
            20 + self.payload_len,
            self.ident,
            0,
            self.ttl,
            self.proto,
            0,  # checksum carried as zero; not validated
            int(self.src),
            int(self.dst),
        )

    @classmethod
    def unpack(cls, data: bytes, at: int = 0) -> tuple:
        values = _unpack(cls, data, at)
        ver_ihl = values[0]
        if ver_ihl >> 4 != 4:
            raise HeaderError(f"not IPv4: version {ver_ihl >> 4}")
        if ver_ihl & 0x0F != 5:
            raise HeaderError("IPv4 options unsupported in reproduction")
        return values

    @classmethod
    def from_wire(cls, values: tuple) -> "IPv4":
        _, tos, total_len, ident, _frag, ttl, proto, _csum, src, dst = values
        return cls(src=_ip(src), dst=_ip(dst),
                   proto=_PROTOS.get(proto, proto), ttl=ttl,
                   dscp=tos >> 2, ident=ident,
                   payload_len=max(0, total_len - 20))

    def decremented(self) -> "IPv4":
        """Copy with TTL decreased by one (forwarding semantics)."""
        if self.ttl <= 0:
            raise HeaderError("TTL already zero")
        return replace(self, ttl=self.ttl - 1)


@dataclass(frozen=True)
class TCP(WireHeader):
    """TCP header (no options)."""

    LAYER: ClassVar[int] = 4
    NAME: ClassVar[str] = "tcp"
    #: ports, seq, ack, data offset, flags, window, checksum, urgent
    WIRE: ClassVar[struct.Struct] = struct.Struct("!HHIIBBHHH")
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("tcp.src", "src_port", "int", 16, settable=True, wire="v[0]"),
        Field("tcp.dst", "dst_port", "int", 16, settable=True, wire="v[1]"),
        Field("tcp.flags", "flags", "int", 8, settable=True, wire="v[5]"),
        Field("tcp.seq", "seq", "int", 32, wire="v[2]"),
        Field("tcp.ack", "ack", "int", 32, wire="v[3]"),
    )

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            value = getattr(self, name)
            if not 0 <= value < 65536:
                raise HeaderError(f"TCP {name} out of range: {value!r}")

    def encode(self) -> bytes:
        return self.WIRE.pack(
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            5 << 4,
            self.flags,
            self.window,
            0,
            0,
        )

    @classmethod
    def span(cls, values: tuple) -> int:
        return (values[4] >> 4) * 4

    @classmethod
    def unpack(cls, data: bytes, at: int = 0) -> tuple:
        values = _unpack(cls, data, at)
        doff = cls.span(values)
        if doff < 20 or doff > len(data) - at:
            raise HeaderError(f"bad TCP data offset {doff}")
        return values

    @classmethod
    def from_wire(cls, values: tuple) -> "TCP":
        sport, dport, seq, ack, _offset, flags, window, _csum, _urg = values
        return cls(src_port=sport, dst_port=dport, seq=seq, ack=ack,
                   flags=_TCP_FLAGS.get(flags, flags), window=window)

    def has_flag(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @property
    def is_syn(self) -> bool:
        return self.has_flag(TCPFlags.SYN) and not self.has_flag(TCPFlags.ACK)

    @property
    def is_fin(self) -> bool:
        return self.has_flag(TCPFlags.FIN)

    @property
    def is_rst(self) -> bool:
        return self.has_flag(TCPFlags.RST)


@dataclass(frozen=True)
class UDP(WireHeader):
    """UDP header."""

    LAYER: ClassVar[int] = 4
    NAME: ClassVar[str] = "udp"
    WIRE: ClassVar[struct.Struct] = struct.Struct("!HHHH")
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("udp.src", "src_port", "int", 16, settable=True, wire="v[0]"),
        Field("udp.dst", "dst_port", "int", 16, settable=True, wire="v[1]"),
    )

    src_port: int
    dst_port: int
    payload_len: int = 0

    def __post_init__(self) -> None:
        for name in ("src_port", "dst_port"):
            value = getattr(self, name)
            if not 0 <= value < 65536:
                raise HeaderError(f"UDP {name} out of range: {value!r}")

    def encode(self) -> bytes:
        return self.WIRE.pack(self.src_port, self.dst_port, 8 + self.payload_len, 0)

    @classmethod
    def from_wire(cls, values: tuple) -> "UDP":
        sport, dport, length, _csum = values
        return cls(src_port=sport, dst_port=dport, payload_len=max(0, length - 8))


@dataclass(frozen=True)
class ICMP(WireHeader):
    """ICMP header (echo-focused)."""

    LAYER: ClassVar[int] = 4
    NAME: ClassVar[str] = "icmp"
    WIRE: ClassVar[struct.Struct] = struct.Struct("!BBHHH")
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("icmp.type", "icmp_type", "int", 8, settable=True, wire="v[0]"),
        Field("icmp.code", "code", "int", 8, settable=True, wire="v[1]"),
    )

    TYPE_ECHO_REPLY: ClassVar[int] = 0
    TYPE_ECHO_REQUEST: ClassVar[int] = 8

    icmp_type: int
    code: int = 0
    ident: int = 0
    seq: int = 0

    def encode(self) -> bytes:
        return self.WIRE.pack(self.icmp_type, self.code, 0, self.ident, self.seq)

    @classmethod
    def from_wire(cls, values: tuple) -> "ICMP":
        itype, code, _csum, ident, seq = values
        return cls(icmp_type=itype, code=code, ident=ident, seq=seq)
