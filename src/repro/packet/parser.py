"""Wire-format parsing: bytes in, a :class:`~repro.packet.packet.Packet` out.

:func:`parse` checks a frame and hands back a packet readable to L7.  How
deep a switch can read it — the paper's Feature 1: "standard switches only
parse packet headers to a limited depth; checking application-layer fields
requires richer parsing" — is decided where fields are read, not here:
:meth:`Packet.fields` takes the depth, and the monitor's ``max_layer``, the
pipeline's ``max_parse_layer`` and a backend's ``Capabilities`` pass theirs
in.  A packet that crossed a wire or a file is read to the same depth as
one built in memory.
"""

from __future__ import annotations

from typing import Optional

from .headers import Ethernet, EtherType, HeaderError, Vlan
from .packet import Packet


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


def parse(data: bytes, uid: Optional[int] = None) -> Packet:
    """Decode wire bytes into a Packet.

    Whatever lies beyond a decode failure at L7 (where payloads may
    legitimately be arbitrary application bytes) is preserved as opaque
    payload.  ``uid`` restores a recorded packet identity; without it the
    packet gets a fresh one.

    The frame is *checked* here and *read* later (:meth:`Packet.from_wire`).
    Everything that makes bytes not a packet is decided now, at the ingest
    boundary: a frame without a whole ethernet header, or a cut VLAN tag.
    Only a frame under 18 bytes can fail either, and it runs the L2 readers
    themselves; any other malformation was never an error — the inner
    header stays opaque payload.
    """
    if len(data) < _L2_MAX:
        try:
            ethertype = Ethernet.unpack(data)[2]
        except HeaderError as exc:
            raise ParseError(str(exc)) from exc
        if ethertype == EtherType.VLAN:
            Vlan.unpack(data, Ethernet.WIRE.size)
    return Packet.from_wire(data, uid)
