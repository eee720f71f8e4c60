"""Packet model: addresses, L2–L7 headers, wire codecs, builders.

Public surface of the packet subpackage.  The monitor's field extraction
(paper Feature 1) reads the flat dotted-name namespace these types declare
in their ``FIELDS`` (all of them: :data:`HEADERS`); the ``uid`` on
:class:`Packet` carries packet identity (Feature 5) across rewrites and
flooding.
"""

from .addresses import AddressError, IPv4Address, MACAddress
from .builder import (
    arp_reply,
    arp_request,
    dhcp_packet,
    ethernet,
    ftp_control_packet,
    icmp_echo,
    tcp_fin,
    tcp_packet,
    tcp_rst,
    tcp_syn,
    udp_packet,
)
from .dhcp import DHCP_CLIENT_PORT, DHCP_SERVER_PORT, Dhcp, DhcpMessageType, DhcpOp
from .ftp import FTP_CONTROL_PORT, FtpControl, encode_port_command
from .headers import (
    ICMP,
    TCP,
    UDP,
    Arp,
    ArpOp,
    Ethernet,
    EtherType,
    HeaderError,
    IPProto,
    IPv4,
    TCPFlags,
    Vlan,
)
from .packet import Packet, fresh_uid
from .parser import ParseError, encode, parse
from .wire import HEADERS

__all__ = [
    "AddressError",
    "IPv4Address",
    "MACAddress",
    "arp_reply",
    "arp_request",
    "dhcp_packet",
    "ethernet",
    "ftp_control_packet",
    "icmp_echo",
    "tcp_fin",
    "tcp_packet",
    "tcp_rst",
    "tcp_syn",
    "udp_packet",
    "DHCP_CLIENT_PORT",
    "DHCP_SERVER_PORT",
    "Dhcp",
    "DhcpMessageType",
    "DhcpOp",
    "FTP_CONTROL_PORT",
    "FtpControl",
    "encode_port_command",
    "ICMP",
    "TCP",
    "UDP",
    "Arp",
    "ArpOp",
    "Ethernet",
    "EtherType",
    "HEADERS",
    "HeaderError",
    "IPProto",
    "IPv4",
    "TCPFlags",
    "Vlan",
    "Packet",
    "fresh_uid",
    "ParseError",
    "encode",
    "parse",
]
