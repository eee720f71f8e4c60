"""Stateless named predicates the catalog sources refer to as ``@name``."""

from __future__ import annotations

from typing import Mapping

from ..core.refs import Predicate
from ..packet.addresses import IPv4Address
from ..packet.dhcp import DhcpMessageType
from ..packet.headers import TCPFlags


def internal_to_external() -> Predicate:
    """Source is RFC1918-private, destination is not: outbound traffic."""

    def check(fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        src = fields.get("ipv4.src")
        dst = fields.get("ipv4.dst")
        return (
            isinstance(src, IPv4Address)
            and isinstance(dst, IPv4Address)
            and src.is_private
            and not dst.is_private
        )

    return Predicate(check, "internal source, external destination",
                     fields_used=("ipv4.src", "ipv4.dst"))


def tcp_flag_set(flag: int, description: str) -> Predicate:
    def check(fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        flags = fields.get("tcp.flags")
        return isinstance(flags, int) and bool(flags & flag)

    return Predicate(check, description, fields_used=("tcp.flags",))


def is_tcp_syn() -> Predicate:
    return tcp_flag_set(TCPFlags.SYN, "TCP SYN set")


def is_tcp_close() -> Predicate:
    return tcp_flag_set(TCPFlags.FIN | TCPFlags.RST, "TCP FIN or RST set")


def is_not_tcp_close() -> Predicate:
    def check(fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        flags = fields.get("tcp.flags")
        return isinstance(flags, int) and not (
            flags & (TCPFlags.FIN | TCPFlags.RST)
        )

    return Predicate(check, "TCP segment is not closing the connection",
                     fields_used=("tcp.flags",))


def dhcp_msg(msg_type: int, description: str) -> Predicate:
    def check(fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        return fields.get("dhcp.msg_type") == msg_type

    return Predicate(check, description, fields_used=("dhcp.msg_type",))


def is_dhcp_request() -> Predicate:
    return dhcp_msg(DhcpMessageType.REQUEST, "DHCP REQUEST")


def is_dhcp_ack() -> Predicate:
    return dhcp_msg(DhcpMessageType.ACK, "DHCP ACK")


def is_dhcp_release() -> Predicate:
    return dhcp_msg(DhcpMessageType.RELEASE, "DHCP RELEASE")


def is_forwarded() -> Predicate:
    """The switch-forwarded copy of a host's packet, not a switch-originated
    one (``inject`` uses in_port 0)."""
    return Predicate(
        lambda fields, env: fields.get("in_port", 0) != 0,
        "forwarded (not switch-originated)",
        fields_used=("in_port",),
    )
