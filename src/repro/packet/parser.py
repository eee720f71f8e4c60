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

from typing import List, Optional

from .headers import Ethernet, EtherType, HeaderError, Vlan
from .packet import Header, Packet


class ParseError(HeaderError):
    """Raised when wire bytes cannot be decoded into a packet."""


#: A frame this long has whole L2 headers, tagged or not.
_L2_MAX = Ethernet.WIRE.size + Vlan.WIRE.size


def encode(packet: Packet) -> bytes:
    """Serialize a packet's header stack and payload to wire bytes.

    A packet nobody has materialised was never parsed, so never changed:
    it encodes as the bytes it arrived as.
    """
    state = packet.__dict__
    if "headers" not in state:
        return state["_wire"]
    return b"".join(h.encode() for h in packet.headers) + packet.payload


def parse(data: bytes, max_layer: int = 7,
          uid: Optional[int] = None) -> Packet:
    """Decode wire bytes into a Packet, parsing no deeper than ``max_layer``.

    Whatever lies beyond the parse limit (or beyond a decode failure at L7,
    where payloads may legitimately be arbitrary application bytes) is
    preserved as opaque payload.  ``uid`` restores a recorded packet
    identity; without it the packet gets a fresh one.

    The frame is *checked* here and *read* later (:meth:`Packet.from_wire`).
    Everything that makes bytes not a packet is decided now, at the ingest
    boundary: a depth below L2, a frame without a whole ethernet header, a
    cut VLAN tag.  Only a frame under 18 bytes can fail the last two, and
    it runs the L2 readers themselves; any other malformation was never an
    error — the inner header stays opaque payload.
    """
    if max_layer < 2:
        raise ParseError(f"max_layer must be >= 2, got {max_layer!r}")
    if len(data) < _L2_MAX:
        try:
            ethertype = Ethernet.unpack(data)[2]
        except HeaderError as exc:
            raise ParseError(str(exc)) from exc
        if ethertype == EtherType.VLAN:
            Vlan.unpack(data, Ethernet.WIRE.size)
    return Packet.from_wire(data, max_layer, uid)


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
