"""DHCP + ARP proxy properties — Table 1's wandering-match group.

These are the properties the paper uses to motivate **wandering match**
(Feature 8): observations carrying *different protocol* fields (DHCP leases
and ARP traffic) must map to the same monitor instance.

* :func:`arp_cache_preloaded` — "Pre-load ARP cache with leased addresses":
  once a lease for IP is ACKed to a client, an ARP request for IP (from
  anyone other than the lease holder — F6) must be answered with the
  *leased* MAC within T; the timer firing without a correct reply is the
  violation (F7).

* :func:`no_unfounded_reply` — "No direct reply if neither pre-loaded nor
  prior reply seen": the switch answering an ARP request from its own cache
  (a switch-originated egress) for an address it has no DHCP-lease or
  prior-reply knowledge of is the violation.  Knowledge is consulted via a
  cross-protocol :class:`LeaseKnowledge` predicate — the wandering data
  flow.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Set

from ..core.refs import Bind, Const, EventKind, EventPattern, FieldEq, FieldNe, Predicate, Var
from ..core.spec import Absent, Observe, PropertySpec
from ..packet.addresses import IPv4Address, MACAddress
from ..switch.events import PacketArrival, PacketEgress
from .arp import _is_arp_reply, _is_arp_request
from .common import is_dhcp_ack


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


def arp_cache_preloaded(
    T: float = 1.0, name: str = "arp-cache-preloaded"
) -> PropertySpec:
    return PropertySpec(
        name=name,
        description=(
            "The ARP cache is pre-loaded with leased addresses: requests "
            "for a leased address are answered with the leased MAC"
        ),
        stages=(
            Observe(
                "leased",
                EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(is_dhcp_ack(),),
                    binds=(
                        Bind("ip", "dhcp.yiaddr"),
                        Bind("holder_mac", "dhcp.client_mac"),
                    ),
                ),
            ),
            Observe(
                "asked",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(
                        _is_arp_request(),
                        # dhcp.yiaddr -> arp.target_ip: the wandering edge.
                        FieldEq("arp.target_ip", Var("ip")),
                        # Hosts don't resolve their own address: requests
                        # from the lease holder itself are out of scope.
                        FieldNe("arp.sender_mac", Var("holder_mac")),
                    ),
                    binds=(Bind("asker", "arp.sender_mac"),),
                ),
            ),
            Absent(
                "no_correct_reply",
                EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(
                        _is_arp_reply(),
                        FieldEq("arp.sender_ip", Var("ip")),
                        FieldEq("arp.sender_mac", Var("holder_mac")),
                        FieldEq("arp.target_mac", Var("asker")),
                    ),
                ),
                within=T,
                semantic_deadline=False,
            ),
        ),
        key_vars=("ip", "holder_mac"),
        violation_message=(
            "ARP request for a leased address was not answered with the "
            "leased MAC in time"
        ),
        # Paper leaves Obligation blank for this row.
        obligation_override=False,
    )


def no_unfounded_reply(
    knowledge: LeaseKnowledge, name: str = "no-unfounded-reply"
) -> PropertySpec:
    return PropertySpec(
        name=name,
        description=(
            "No direct ARP reply if neither a lease nor a prior reply was "
            "seen for the address"
        ),
        stages=(
            Observe(
                "unknown_asked",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(_is_arp_request(), knowledge.unknown_predicate()),
                    binds=(
                        Bind("ip", "arp.target_ip"),
                        Bind("asker", "arp.sender_mac"),
                    ),
                ),
            ),
            Observe(
                "unfounded_reply",
                EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(
                        _is_arp_reply(),
                        FieldEq("arp.sender_ip", Var("ip")),
                        FieldEq("arp.target_mac", Var("asker")),
                        # A switch-originated (direct) reply: injected
                        # packets carry in_port 0, forwarded ones don't.
                        FieldEq("in_port", Const(0)),
                    ),
                ),
                unless=(
                    # Knowledge arriving in between legitimizes a reply:
                    # a lease ACK for the address...
                    EventPattern(
                        kind=EventKind.EGRESS,
                        guards=(
                            is_dhcp_ack(),
                            FieldEq("dhcp.yiaddr", Var("ip")),
                        ),
                    ),
                    # ...or a genuine reply arriving from the owner.
                    EventPattern(
                        kind=EventKind.ARRIVAL,
                        guards=(
                            _is_arp_reply(),
                            FieldEq("arp.sender_ip", Var("ip")),
                        ),
                    ),
                ),
            ),
        ),
        key_vars=("ip", "asker"),
        violation_message=(
            "the switch answered an ARP request with no lease or prior "
            "reply to justify it"
        ),
        # F4 •, per the paper: the monitor holds, per request, the pending
        # judgement of how the switch responds.
        obligation_override=True,
    )
