"""DHCP + ARP proxy knowledge: Table 1's wandering-match group.

The properties are ``sources/arp_cache_preloaded.prop`` and
``sources/no_unfounded_reply.prop``; the cross-protocol knowledge the
latter consults (``@lease_unknown``) is :class:`LeaseKnowledge`.
"""

from __future__ import annotations

from typing import Set

from ..core.refs import Predicate
from ..packet.addresses import IPv4Address
from ..switch.events import PacketArrival, PacketEgress


class LeaseKnowledge:
    """Auxiliary monitor state: addresses known via DHCP leases or prior
    ARP replies.  Attach :meth:`observe` as a tap before the monitor."""

    def __init__(self) -> None:
        self.known: Set[IPv4Address] = set()

    def observe(self, event) -> None:
        if not isinstance(event, (PacketArrival, PacketEgress)):
            return
        from ..packet.dhcp import Dhcp
        from ..packet.headers import Arp

        dhcp = event.packet.find(Dhcp)
        if dhcp is not None and dhcp.is_ack:
            self.known.add(dhcp.yiaddr)
            return
        arp = event.packet.find(Arp)
        if arp is not None and arp.is_reply and isinstance(event, PacketArrival):
            # A genuine reply arriving from a host teaches the mapping; the
            # switch's own injected replies (which never *arrive*) do not.
            self.known.add(arp.sender_ip)

    def unknown_predicate(self) -> Predicate:
        return Predicate(
            lambda fields, env: fields.get("arp.target_ip") not in self.known,
            "no lease or prior reply for the requested address",
            fields_used=("arp.target_ip",),
            history_fields=("dhcp.yiaddr",),
        )
