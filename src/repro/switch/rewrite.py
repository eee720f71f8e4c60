"""Header field rewriting.

Maps the flat dotted field namespace back onto header dataclass attributes
so Set-Field actions (and NAT) can rewrite packets: the targets are the
header ``FIELDS`` rows marked ``settable``.  Rewrites preserve the packet
``uid`` — the rewritten departure is "the same packet" as the arrival for
the purposes of the paper's Feature 5.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple, Type

from ..packet.headers import TCP, UDP
from ..packet.packet import Packet
from ..packet.wire import HEADERS


class RewriteError(KeyError):
    """Raised when a field cannot be rewritten on the given packet."""


# dotted field name -> (header class, attribute name)
_FIELD_MAP: Dict[str, Tuple[Type, str]] = {
    row.name: (header, row.attr)
    for header in HEADERS for row in header.FIELDS if row.settable
}


def rewritable_fields() -> Tuple[str, ...]:
    """All dotted field names Set-Field can target."""
    return tuple(sorted(_FIELD_MAP))


def rewrite_field(packet: Packet, name: str, value: object) -> Packet:
    """Return a copy of ``packet`` with dotted field ``name`` set to ``value``.

    The copy shares the original's uid.  Raises :class:`RewriteError` if the
    field is unknown or the packet lacks the corresponding header.
    """
    if name == "l4.src" or name == "l4.dst":
        # Protocol-generic L4 port rewrite: resolve against whichever L4
        # header the packet actually carries (used by NAT and the LB).
        attr = "src_port" if name.endswith("src") else "dst_port"
        for header_type in (TCP, UDP):
            header = packet.find(header_type)
            if header is not None:
                return packet.with_header(replace(header, **{attr: value}))
        raise RewriteError(f"packet has no TCP/UDP header for {name}")
    try:
        header_type, attr = _FIELD_MAP[name]
    except KeyError:
        raise RewriteError(f"unknown rewritable field {name!r}") from None
    header = packet.find(header_type)
    if header is None:
        raise RewriteError(
            f"packet lacks {header_type.__name__} header; cannot set {name}"
        )
    return packet.with_header(replace(header, **{attr: value}))
