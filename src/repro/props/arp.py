"""ARP cache proxy knowledge (Sec. 2.3, Table 1's first group).

The properties themselves are ``sources/arp_*.prop``; what they cannot
say in the language is *which addresses are known*, which is auxiliary
monitor state (:class:`ArpKnowledge`, read by ``@known`` / ``@unknown``).
"""

from __future__ import annotations

from typing import Set

from ..core.refs import Predicate
from ..packet.addresses import IPv4Address
from ..switch.events import PacketArrival, PacketEgress


class ArpKnowledge:
    """Auxiliary monitor state: which IP addresses are 'known'.

    Attach :meth:`observe` as a switch tap *before* the monitor so the
    knowledge is current when the monitor's predicates consult it.  An
    address becomes known when an ARP reply resolving it traverses the
    switch (arrival or egress).
    """

    def __init__(self) -> None:
        self.known: Set[IPv4Address] = set()

    def observe(self, event) -> None:
        packet = getattr(event, "packet", None)
        if packet is None or not isinstance(event, (PacketArrival, PacketEgress)):
            return
        from ..packet.headers import Arp

        arp = packet.find(Arp)
        if arp is not None and arp.is_reply:
            self.known.add(arp.sender_ip)

    def knows(self, ip: object) -> bool:
        return ip in self.known

    def known_predicate(self) -> Predicate:
        return Predicate(
            lambda fields, env: self.knows(fields.get("arp.target_ip")),
            "requested address is known",
            fields_used=("arp.target_ip",),
            history_fields=("arp.sender_ip",),
        )

    def unknown_predicate(self) -> Predicate:
        return Predicate(
            lambda fields, env: not self.knows(fields.get("arp.target_ip")),
            "requested address is unknown",
            fields_used=("arp.target_ip",),
            history_fields=("arp.sender_ip",),
        )


def _is_arp_request() -> Predicate:
    from ..packet.headers import ArpOp

    return Predicate(
        lambda fields, env: fields.get("arp.op") == ArpOp.REQUEST,
        "ARP request",
        fields_used=("arp.op",),
    )


def _is_arp_reply() -> Predicate:
    from ..packet.headers import ArpOp

    return Predicate(
        lambda fields, env: fields.get("arp.op") == ArpOp.REPLY,
        "ARP reply",
        fields_used=("arp.op",),
    )
