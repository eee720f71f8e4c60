"""The :class:`Packet` container.

A packet is an ordered stack of protocol headers plus opaque payload bytes,
tagged with a **unique identity** (``uid``).  The uid implements the paper's
Feature 5 (Maintaining Packet Identity): when a switch forwards — or
rewrites, as NAT does — a packet, the egress copy keeps the same uid, so a
monitor can connect "the same packet" across an arrival and its departures
even when every header field changed.  Copies made for flooding share the
uid too: they are the same arrival, multiply forwarded.

Field access is by dotted name (``"ipv4.src"``, ``"tcp.dst"``, …), the flat
namespace the monitor's field extraction (Feature 1) binds from; each header
declares its part of it as ``FIELDS``.

A packet decoded from the wire (:meth:`Packet.from_wire`, which is what
:func:`repro.packet.parser.parse` returns) **is its bytes until someone
reads it**: :meth:`Packet.fields` reads the flat map straight from them, to
the depth asked, and the header objects and ``payload`` exist only once
something touches ``headers`` or ``payload`` — rendering a violation, a
postcard, FULL provenance, a rewrite, the switch substrate.  It is the same
frozen dataclass with the same three fields either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Tuple, Type, TypeVar

from .addresses import IPv4Address
from .headers import TCP, UDP, Ethernet, Header, IPv4
from .wire import walk

H = TypeVar("H")

_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    """Allocate a new globally-unique packet identity."""
    return next(_uid_counter)


@dataclass(frozen=True)
class Packet:
    """An immutable packet: header stack, payload, identity.

    Rewrites produce new ``Packet`` values (via :meth:`with_header`) that
    share the original ``uid`` — immutability keeps monitor provenance
    records trustworthy even after NAT rewrites the live packet.
    """

    headers: Tuple[Header, ...]
    # a factory, not a class-level b"": that would shadow __getattr__
    payload: bytes = field(default_factory=bytes)
    uid: int = field(default_factory=fresh_uid)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_wire(cls, data: bytes, uid: Optional[int] = None) -> "Packet":
        """A packet held as the frame ``data``.

        The caller has checked that the L2 headers are whole
        (:func:`repro.packet.parser.parse` does); nothing here can fail.
        """
        packet = object.__new__(cls)
        state = packet.__dict__
        state["_wire"] = data
        state["uid"] = next(_uid_counter) if uid is None else uid
        return packet

    def __getattr__(self, name: str) -> object:
        """Reached only for an attribute not set: ``headers`` or ``payload``
        of a :meth:`from_wire` packet, which are parsed now and kept."""
        state = self.__dict__
        if name not in ("headers", "payload") or "_wire" not in state:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        data = state["_wire"]
        stack, l7, at = walk(data, 7)
        headers = [cls.from_wire(values) for cls, values in stack]
        if l7 is not None:
            headers.append(l7)
        state["headers"], state["payload"] = tuple(headers), data[at:]
        return state[name]

    @classmethod
    def of(cls, *headers: Header, payload: bytes = b"") -> "Packet":
        """Build a packet from headers in outermost-first order."""
        return cls(headers=tuple(headers), payload=payload)

    # -- header access ---------------------------------------------------
    def find(self, header_type: Type[H]) -> Optional[H]:
        """Return the first header of the given type, or None."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    def get(self, header_type: Type[H]) -> H:
        """Return the first header of the given type, or raise KeyError."""
        found = self.find(header_type)
        if found is None:
            raise KeyError(f"packet has no {header_type.__name__} header")
        return found

    def has(self, header_type: Type[Header]) -> bool:
        return self.find(header_type) is not None

    @property
    def eth(self) -> Ethernet:
        return self.get(Ethernet)

    @property
    def max_layer(self) -> int:
        """Deepest OSI layer present in the header stack."""
        return max((h.LAYER for h in self.headers), default=0)

    # -- field namespace ---------------------------------------------------
    def fields(self, max_layer: int = 7,
               out: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Flat dotted-name field map, truncated at ``max_layer``.

        ``max_layer`` models a switch's parse-depth limit (Feature 1): a
        fixed-function switch that parses only to L4 sees no ``dhcp.*`` or
        ``ftp.*`` fields even when the packet carries them.  On a packet
        still held as wire bytes it is literally how far the reader walks.
        The fields are written into ``out`` when one is given.
        """
        if out is None:
            out = {}
        state = self.__dict__
        if "headers" not in state:  # still wire bytes: read, build nothing
            if max_layer < 2:
                return out
            stack, l7, _ = walk(state["_wire"], max_layer)
            for cls, values in stack:
                cls.read_fields(values, out)
            if l7 is not None:
                l7.fields(out)
            return out
        for header in self.headers:  # Header.fields, inlined: a hot path
            if header.LAYER <= max_layer:
                for name, attr in header.PROJECTION:
                    value = getattr(header, attr)
                    if value is not None:
                        out[name] = value
        return out

    def field(self, name: str, max_layer: int = 7) -> object:
        """Look up one dotted field name; raises KeyError if absent."""
        return self.fields(max_layer)[name]

    # -- rewriting ---------------------------------------------------------
    def with_header(self, new_header: Header) -> "Packet":
        """Replace the first header of ``new_header``'s type, keeping uid."""
        headers = list(self.headers)
        for i, header in enumerate(headers):
            if type(header) is type(new_header):
                headers[i] = new_header
                return replace(self, headers=tuple(headers))
        raise KeyError(f"packet has no {type(new_header).__name__} header to replace")

    def duplicate(self) -> "Packet":
        """Copy sharing the uid — models flooding the same arrival."""
        return replace(self)

    def refreshed(self) -> "Packet":
        """Copy with a *new* uid — a genuinely distinct packet."""
        return replace(self, uid=fresh_uid())

    # -- conveniences used throughout the apps and tests ------------------
    @property
    def ip_src(self) -> Optional[IPv4Address]:
        ip = self.find(IPv4)
        return ip.src if ip else None

    @property
    def ip_dst(self) -> Optional[IPv4Address]:
        ip = self.find(IPv4)
        return ip.dst if ip else None

    @property
    def l4_sport(self) -> Optional[int]:
        for proto in (TCP, UDP):
            l4 = self.find(proto)
            if l4:
                return l4.src_port
        return None

    @property
    def l4_dport(self) -> Optional[int]:
        for proto in (TCP, UDP):
            l4 = self.find(proto)
            if l4:
                return l4.dst_port
        return None

    def five_tuple(self) -> Optional[Tuple[IPv4Address, int, IPv4Address, int, int]]:
        """(src_ip, sport, dst_ip, dport, proto) or None if not IP+L4."""
        ip = self.find(IPv4)
        sport, dport = self.l4_sport, self.l4_dport
        if ip is None or sport is None or dport is None:
            return None
        return (ip.src, sport, ip.dst, dport, ip.proto)

    def describe(self) -> str:
        """One-line human-readable summary for provenance reports."""
        parts = [type(h).__name__ for h in self.headers]
        ip = self.find(IPv4)
        flow = ""
        if ip is not None:
            sport, dport = self.l4_sport, self.l4_dport
            if sport is not None:
                flow = f" {ip.src}:{sport}->{ip.dst}:{dport}"
            else:
                flow = f" {ip.src}->{ip.dst}"
        return f"Packet#{self.uid}[{'/'.join(parts)}{flow}]"

    def __iter__(self) -> Iterator[Header]:
        return iter(self.headers)
