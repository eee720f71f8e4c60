"""DHCP (L7) message model.

The DHCP properties in Table 1 of the paper ("Reply to lease request within
T seconds", "Leased addresses never re-used until expiration or release",
"No lease overlap between DHCP servers", and the DHCP+ARP wandering-match
pair) need access to application-layer fields: message type, client hardware
address, offered/requested address, lease time, and server identifier.

The wire format is a compact subset of RFC 2131: the fixed BOOTP-style
prefix plus a TLV options region carrying the fields the properties read.
``Dhcp.FIELDS`` declares them; an option the message lacks is no field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar, Optional, Tuple

from .addresses import IPv4Address, MACAddress
from .headers import Field, Header, HeaderError, members


class DhcpMessageType(IntEnum):
    DISCOVER = 1
    OFFER = 2
    REQUEST = 3
    DECLINE = 4
    ACK = 5
    NAK = 6
    RELEASE = 7
    INFORM = 8


class DhcpOp(IntEnum):
    BOOTREQUEST = 1
    BOOTREPLY = 2


_OPS, _MSG_TYPES = members(DhcpOp), members(DhcpMessageType)

_OPT_MSG_TYPE = 53
_OPT_REQUESTED_IP = 50
_OPT_LEASE_TIME = 51
_OPT_SERVER_ID = 54
_OPT_END = 255

DHCP_SERVER_PORT = 67
DHCP_CLIENT_PORT = 68

#: the fixed prefix: op, xid, client hardware address, yiaddr
_HEAD = struct.Struct("!BI6sI")
_U8 = struct.Struct("!B")  # the message-type option's value
_U32 = struct.Struct("!I")  # the lease-time option's value


def _option(tag: int, value: bytes) -> bytes:
    return bytes((tag, len(value))) + value


@dataclass(frozen=True)
class Dhcp(Header):
    """A DHCP message.

    ``yiaddr`` ("your address") carries the offered/acknowledged lease;
    ``requested_ip`` is the client's ask; ``server_id`` identifies which
    DHCP server spoke — the field the "no lease overlap between servers"
    property matches negatively on.
    """

    LAYER: ClassVar[int] = 7
    NAME: ClassVar[str] = "dhcp"
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("dhcp.op", "op", "int", 8),
        Field("dhcp.msg_type", "msg_type", "int", 8),
        Field("dhcp.xid", "xid", "int", 32),
        Field("dhcp.client_mac", "client_mac", "mac", 48),
        Field("dhcp.yiaddr", "yiaddr", "ip", 32, settable=True),
        Field("dhcp.requested_ip", "requested_ip", "ip", 32),
        Field("dhcp.lease_time", "lease_time", "int", 32),
        Field("dhcp.server_id", "server_id", "ip", 32, settable=True),
    )

    op: int
    msg_type: int
    xid: int
    client_mac: MACAddress
    yiaddr: IPv4Address = IPv4Address.ZERO
    requested_ip: Optional[IPv4Address] = None
    lease_time: Optional[int] = None
    server_id: Optional[IPv4Address] = None

    def __post_init__(self) -> None:
        if self.op not in (DhcpOp.BOOTREQUEST, DhcpOp.BOOTREPLY):
            raise HeaderError(f"bad DHCP op {self.op!r}")
        if not 0 <= self.xid < (1 << 32):
            raise HeaderError(f"DHCP xid out of range: {self.xid!r}")

    # -- classification ------------------------------------------------
    @property
    def is_request(self) -> bool:
        return self.msg_type == DhcpMessageType.REQUEST

    @property
    def is_discover(self) -> bool:
        return self.msg_type == DhcpMessageType.DISCOVER

    @property
    def is_offer(self) -> bool:
        return self.msg_type == DhcpMessageType.OFFER

    @property
    def is_ack(self) -> bool:
        return self.msg_type == DhcpMessageType.ACK

    @property
    def is_release(self) -> bool:
        return self.msg_type == DhcpMessageType.RELEASE

    # -- wire format -----------------------------------------------------
    def encode(self) -> bytes:
        opts = _option(_OPT_MSG_TYPE, _U8.pack(self.msg_type))
        if self.requested_ip is not None:
            opts += _option(_OPT_REQUESTED_IP, self.requested_ip.packed())
        if self.lease_time is not None:
            opts += _option(_OPT_LEASE_TIME, _U32.pack(self.lease_time))
        if self.server_id is not None:
            opts += _option(_OPT_SERVER_ID, self.server_id.packed())
        return _HEAD.pack(self.op, self.xid, self.client_mac.packed(),
                          int(self.yiaddr)) + opts + bytes((_OPT_END,))

    @classmethod
    def decode(cls, data: bytes) -> Tuple["Dhcp", bytes]:
        if len(data) < _HEAD.size:
            raise HeaderError(f"DHCP truncated: {len(data)} bytes")
        op, xid, client_mac, yiaddr = _HEAD.unpack_from(data)
        msg_type: Optional[int] = None
        requested_ip: Optional[IPv4Address] = None
        lease_time: Optional[int] = None
        server_id: Optional[IPv4Address] = None
        i = 15
        while i < len(data):
            tag = data[i]
            if tag == _OPT_END:
                i += 1
                break
            if i + 2 > len(data):
                raise HeaderError("DHCP option header truncated")
            length = data[i + 1]
            value = data[i + 2 : i + 2 + length]
            if len(value) != length:
                raise HeaderError("DHCP option value truncated")
            if tag == _OPT_MSG_TYPE and length == 1:
                msg_type = value[0]
            elif tag == _OPT_REQUESTED_IP and length == 4:
                requested_ip = IPv4Address(value)
            elif tag == _OPT_LEASE_TIME and length == 4:
                (lease_time,) = _U32.unpack(value)
            elif tag == _OPT_SERVER_ID and length == 4:
                server_id = IPv4Address(value)
            i += 2 + length
        if msg_type is None:
            raise HeaderError("DHCP message missing message-type option")
        return (
            cls(
                op=_OPS.get(op, op),
                msg_type=_MSG_TYPES.get(msg_type, msg_type),
                xid=xid,
                client_mac=MACAddress.from_wire(client_mac),
                yiaddr=IPv4Address.from_wire(yiaddr),
                requested_ip=requested_ip,
                lease_time=lease_time,
                server_id=server_id,
            ),
            data[i:],
        )
