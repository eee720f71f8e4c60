"""One walk over a frame's bytes, for the two projections of it.

:func:`walk` is the only place that knows which header follows which —
ethertype → VLAN / ARP / IPv4, IP protocol → TCP / UDP / ICMP, well-known
port → DHCP / FTP — and what makes each one valid.  It builds nothing: it
returns the raw ``WIRE`` values of every L2-L4 header it recognised, and
:class:`~repro.packet.packet.Packet` projects them twice.  The **object**
projection (``from_wire`` per header, on first touch of ``headers`` or
``payload``) is the frozen header stack; the **field** projection
(``read_fields`` per header, in ``Packet.fields``) is the flat map the
monitor matches on — the paper's Feature 1: a parser hands the match tables
fields, not objects — and constructs only the address values.  L7 is rare
and variable-length: both projections share the one decoded ``Dhcp`` /
``FtpControl`` object rather than a second option parser.  :data:`HEADERS`
lists every header the walk can produce: between them, their ``FIELDS``
tables declare the whole dotted-field namespace.

Only the L2 readers can raise, and :func:`repro.packet.parser.parse` has
run them before any ``Packet`` holds the bytes; an inner header that does
not decode is left as opaque payload — a fixed-function parser stalls
rather than rejecting the frame.
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

# plain ints: comparing against an IntEnum member costs four times as much
_VLAN, _ARP, _IPV4 = int(EtherType.VLAN), int(EtherType.ARP), int(EtherType.IPV4)
_L4 = {int(IPProto.TCP): TCP, int(IPProto.UDP): UDP, int(IPProto.ICMP): ICMP}
_DHCP_PORTS = (DHCP_SERVER_PORT, DHCP_CLIENT_PORT)

#: every header class, outermost first
HEADERS = (Ethernet, Vlan, Arp, IPv4, TCP, UDP, ICMP, Dhcp, FtpControl)


def walk(data: bytes, depth: int) -> Tuple[List[Tuple[type, tuple]], Optional[object], int]:
    """``(L2-L4 stack, L7 header or None, payload offset)`` of a frame read
    no deeper than ``depth``; the stack pairs each header class with the
    raw values its ``unpack`` returned."""
    values = Ethernet.unpack(data)
    stack = [(Ethernet, values)]
    at, ethertype = Ethernet.WIRE.size, values[2]
    if ethertype == _VLAN:
        values = Vlan.unpack(data, at)
        stack.append((Vlan, values))
        at, ethertype = at + Vlan.WIRE.size, values[1]
    end = len(data)
    if depth < 3 or at == end:
        return stack, None, at
    l7 = None
    try:
        if ethertype == _ARP:
            stack.append((Arp, Arp.unpack(data, at)))
            at += Arp.WIRE.size
        elif ethertype == _IPV4:
            values = IPv4.unpack(data, at)
            stack.append((IPv4, values))
            at += IPv4.WIRE.size
            l4 = _L4.get(values[6]) if depth >= 4 else None
            if l4 is not None:
                values = l4.unpack(data, at)
                stack.append((l4, values))
                at += l4.span(values)
                if depth >= 7 and at < end and l4 is not ICMP:
                    ports = values[:2]
                    if ports[0] in _DHCP_PORTS or ports[1] in _DHCP_PORTS:
                        l7, rest = Dhcp.decode(data[at:])
                        at = end - len(rest)
                    elif FTP_CONTROL_PORT in ports:
                        l7, rest = FtpControl.decode(data[at:])
                        at = end - len(rest)
    except HeaderError:
        pass  # what did not decode stays payload
    return stack, l7, at
