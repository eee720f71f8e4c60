"""Load-balancing expectations: Table 1's load-balancing group.

The properties are ``sources/lb_*.prop``.  Which backend a new flow was
*owed* is not something a guard over packet fields can say, so it is
supplied as two named predicates: ``@wrong_hash_backend`` recomputes the
balancer's 5-tuple hash, ``@wrong_rr_backend`` reads a round-robin
counter kept as auxiliary monitor state (:class:`RoundRobinExpectation`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..apps.load_balancer import flow_hash
from ..core.refs import Predicate
from ..packet.addresses import IPv4Address


def _flow_key(env: Mapping[str, object]) -> Tuple:
    return (env["cip"], env["cport"], env["vip"], env["vport"], 6)


def wrong_hash_backend(backend_ports: Sequence[int]) -> Predicate:
    backends = tuple(backend_ports)

    def check(fields: Mapping[str, object], env: Mapping[str, object]) -> bool:
        expected = backends[flow_hash(_flow_key(env), len(backends))]
        return fields.get("out_port") != expected

    return Predicate(check, "egress port differs from hashed backend",
                     fields_used=("out_port",))


class RoundRobinExpectation:
    """Auxiliary monitor state: the backend round-robin should pick next.

    Attach :meth:`observe` as a tap *before* the monitor; it advances the
    expected pointer whenever a fresh flow's SYN toward the VIP arrives, so
    the property's predicate knows which backend that flow was owed.
    """

    def __init__(self, vip: IPv4Address, backend_ports: Sequence[int]) -> None:
        self.vip = vip
        self.backends = tuple(backend_ports)
        self._next = 0
        self.expected_by_flow: Dict[Tuple, int] = {}

    def observe(self, event) -> None:
        from ..switch.events import PacketArrival

        if not isinstance(event, PacketArrival):
            return
        five = event.packet.five_tuple()
        if five is None or five[2] != self.vip:
            return
        from ..packet.headers import TCP

        tcp = event.packet.find(TCP)
        if tcp is None or not tcp.is_syn:
            return
        if five not in self.expected_by_flow:
            self.expected_by_flow[five] = self.backends[
                self._next % len(self.backends)
            ]
            self._next += 1

    def expected(self, env: Mapping[str, object]) -> Optional[int]:
        return self.expected_by_flow.get(_flow_key(env))

    def wrong_backend_predicate(self) -> Predicate:
        def check(
            fields: Mapping[str, object], env: Mapping[str, object]
        ) -> bool:
            expected = self.expected(env)
            return expected is not None and fields.get("out_port") != expected

        return Predicate(check, "egress port differs from round-robin backend",
                         fields_used=("out_port",))
