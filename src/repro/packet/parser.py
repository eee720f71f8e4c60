"""Wire-format parsing with configurable depth limits.

:func:`parse` decodes raw bytes into a :class:`~repro.packet.packet.Packet`,
stopping at ``max_layer`` — the reproduction's model of a switch's parser
capability (the paper's Feature 1: "standard switches only parse packet
headers to a limited depth; checking application-layer fields requires
richer parsing").  A backend with ``max_layer=4`` produces packets whose
L7 payloads remain opaque bytes, so any property that binds ``dhcp.*`` or
``ftp.*`` fields fails against it — exactly the Fields column of Table 1.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .dhcp import DHCP_CLIENT_PORT, DHCP_SERVER_PORT, Dhcp
from .ftp import FTP_CONTROL_PORT, FtpControl
from .headers import (
    ICMP,
    TCP,
    UDP,
    Arp,
    Ethernet,
    EtherType,
    HeaderError,
    IPProto,
    IPv4,
    Vlan,
)
from .packet import Header, Packet


class ParseError(HeaderError):
    """Raised when wire bytes cannot be decoded into a packet."""


def encode(packet: Packet) -> bytes:
    """Serialize a packet's header stack and payload to wire bytes."""
    return b"".join(h.encode() for h in packet.headers) + packet.payload


def parse(data: bytes, max_layer: int = 7,
          uid: Optional[int] = None) -> Packet:
    """Decode wire bytes into a Packet, parsing no deeper than ``max_layer``.

    Whatever lies beyond the parse limit (or beyond a decode failure at L7,
    where payloads may legitimately be arbitrary application bytes) is
    preserved as opaque payload.  ``uid`` restores a recorded packet
    identity; without it the packet gets a fresh one.
    """
    if max_layer < 2:
        raise ParseError(f"max_layer must be >= 2, got {max_layer!r}")
    headers, rest = _parse_headers(data, max_layer)
    if uid is None:
        return Packet(headers=tuple(headers), payload=rest)
    return Packet(headers=tuple(headers), payload=rest, uid=uid)


def _parse_headers(data: bytes, max_layer: int) -> Tuple[List[Header], bytes]:
    """The header stack down to ``max_layer`` and the bytes left over."""
    headers: List[Header] = []
    try:
        eth, rest = Ethernet.decode(data)
    except HeaderError as exc:
        raise ParseError(str(exc)) from exc
    headers.append(eth)
    ethertype = eth.ethertype

    if ethertype == EtherType.VLAN:
        vlan, rest = Vlan.decode(rest)
        headers.append(vlan)
        ethertype = vlan.ethertype

    if max_layer < 3 or not rest:
        return headers, rest

    # Inner headers that fail to decode are left as opaque payload — a
    # fixed-function parser stalls rather than rejecting the frame.
    if ethertype == EtherType.ARP:
        try:
            arp, rest = Arp.decode(rest)
        except HeaderError:
            return headers, rest
        headers.append(arp)
        return headers, rest

    if ethertype != EtherType.IPV4:
        return headers, rest

    try:
        ip, rest = IPv4.decode(rest)
    except HeaderError:
        return headers, rest
    headers.append(ip)
    if max_layer < 4:
        return headers, rest

    sport: Optional[int] = None
    dport: Optional[int] = None
    try:
        if ip.proto == IPProto.TCP:
            tcp, rest = TCP.decode(rest)
            headers.append(tcp)
            sport, dport = tcp.src_port, tcp.dst_port
        elif ip.proto == IPProto.UDP:
            udp, rest = UDP.decode(rest)
            headers.append(udp)
            sport, dport = udp.src_port, udp.dst_port
        elif ip.proto == IPProto.ICMP:
            icmp, rest = ICMP.decode(rest)
            headers.append(icmp)
    except HeaderError:
        return headers, rest

    if max_layer < 7 or not rest:
        return headers, rest

    # L7: recognize by well-known port; decode failures leave opaque payload.
    try:
        if dport in (DHCP_SERVER_PORT, DHCP_CLIENT_PORT) or sport in (
            DHCP_SERVER_PORT,
            DHCP_CLIENT_PORT,
        ):
            dhcp, rest = Dhcp.decode(rest)
            headers.append(dhcp)
        elif FTP_CONTROL_PORT in (sport, dport):
            ftp, rest = FtpControl.decode(rest)
            headers.append(ftp)
    except HeaderError:
        pass
    return headers, rest


def reparse(packet: Packet, max_layer: int) -> Packet:
    """Re-limit an already-parsed packet to a shallower parse depth.

    Headers beyond ``max_layer`` are re-serialized into the payload, and the
    packet keeps its uid — the switch saw the same packet, it just cannot
    *read* as far into it.
    """
    kept: List[Header] = []
    dropped: List[Header] = []
    for header in packet.headers:
        (kept if header.LAYER <= max_layer else dropped).append(header)
    if not dropped:
        return packet
    payload = b"".join(h.encode() for h in dropped) + packet.payload
    return Packet(headers=tuple(kept), payload=payload, uid=packet.uid)
