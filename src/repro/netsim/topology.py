"""Hosts, links, and topology wiring.

The paper scopes itself to properties monitorable at a *single switch*, so
topologies here are small: hosts hanging off one switch, or a short chain
of switches.  Links carry propagation delay on virtual time and can be
failed, which triggers the out-of-band port-down events that the
multiple-match property (Feature 8) observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..packet.addresses import IPv4Address, MACAddress
from ..packet.packet import Packet
from .scheduler import EventScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..switch.switch import Switch


@dataclass
class ReceivedPacket:
    """A packet delivered to a host, with its arrival time."""

    time: float
    packet: Packet


class Host:
    """An end host: one MAC, one IPv4 address, one switch attachment."""

    def __init__(
        self,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
        scheduler: EventScheduler,
    ) -> None:
        self.name = name
        self.mac = mac
        self.ip = ip
        self.scheduler = scheduler
        self.received: List[ReceivedPacket] = []
        self._switch: Optional["Switch"] = None
        self._port: Optional[int] = None
        self._link_delay = 0.0
        self.on_receive: Optional[Callable[["Host", Packet], None]] = None

    def attach(self, switch: "Switch", port: int, link_delay: float = 1e-6) -> None:
        """Plug this host into a switch port via a delayed link."""
        self._switch = switch
        self._port = port
        self._link_delay = link_delay
        switch.attach(port, self._deliver)

    def _uplink(self, packet: Packet) -> None:
        self._switch.receive(packet, self._port)

    def _deliver(self, packet: Packet) -> None:
        self.received.append(ReceivedPacket(time=self.scheduler.clock.now(), packet=packet))
        if self.on_receive is not None:
            self.on_receive(self, packet)

    def send(self, packet: Packet) -> None:
        """Transmit toward the switch, after the link's propagation delay."""
        if self._switch is None or self._port is None:
            raise RuntimeError(f"host {self.name} is not attached to a switch")
        self.scheduler.call_after(
            self._link_delay,
            lambda: self._uplink(packet),
            label=f"{self.name}-send",
        )

    def send_at(self, when: float, packet: Packet) -> None:
        """Transmit at an absolute virtual time."""
        if self._switch is None or self._port is None:
            raise RuntimeError(f"host {self.name} is not attached to a switch")
        self.scheduler.call_at(
            when + self._link_delay,
            lambda: self._uplink(packet),
            label=f"{self.name}-send",
        )

    @property
    def port(self) -> Optional[int]:
        return self._port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, {self.mac}, {self.ip})"


class SwitchLink:
    """A bidirectional link between two switch ports (with delay)."""

    def __init__(
        self,
        a: "Switch",
        a_port: int,
        b: "Switch",
        b_port: int,
        scheduler: EventScheduler,
        delay: float = 1e-6,
    ) -> None:
        self.a, self.a_port = a, a_port
        self.b, self.b_port = b, b_port
        self.scheduler = scheduler
        self.delay = delay
        self.up = True
        a.attach(a_port, self._toward_b)
        b.attach(b_port, self._toward_a)

    def _toward_b(self, packet: Packet) -> None:
        if self.up:
            self.scheduler.call_after(
                self.delay, lambda: self.b.receive(packet, self.b_port), label="link"
            )

    def _toward_a(self, packet: Packet) -> None:
        if self.up:
            self.scheduler.call_after(
                self.delay, lambda: self.a.receive(packet, self.a_port), label="link"
            )

    def fail(self) -> None:
        """Take the link down; both endpoints observe port-down (OOB)."""
        if not self.up:
            return
        self.up = False
        self.a.set_port_status(self.a_port, up=False)
        self.b.set_port_status(self.b_port, up=False)

    def restore(self) -> None:
        if self.up:
            return
        self.up = True
        self.a.set_port_status(self.a_port, up=True)
        self.b.set_port_status(self.b_port, up=True)


class Network:
    """Container wiring switches, hosts, and links on one scheduler."""

    def __init__(self, scheduler: Optional[EventScheduler] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.switches: Dict[str, "Switch"] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: List[SwitchLink] = []

    def add_switch(self, switch_id: str, **kwargs) -> "Switch":
        if switch_id in self.switches:
            raise ValueError(f"duplicate switch id {switch_id!r}")
        from ..switch.switch import Switch

        switch = Switch(switch_id, self.scheduler, **kwargs)
        self.switches[switch_id] = switch
        return switch

    def add_host(
        self,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
        switch: "Switch",
        port: int,
        link_delay: float = 1e-6,
    ) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(name, mac, ip, self.scheduler)
        host.attach(switch, port, link_delay=link_delay)
        self.hosts[name] = host
        return host

    def link(
        self, a: "Switch", a_port: int, b: "Switch", b_port: int, delay: float = 1e-6
    ) -> SwitchLink:
        link = SwitchLink(a, a_port, b, b_port, self.scheduler, delay=delay)
        self.links.append(link)
        return link

    def run(self, until: Optional[float] = None) -> int:
        """Drive the simulation; returns events fired."""
        return self.scheduler.run(until=until)

    @property
    def now(self) -> float:
        return self.scheduler.clock.now()


def single_switch_network(
    num_hosts: int,
    switch_kwargs: Optional[dict] = None,
    base_ip: str = "10.0.0.",
) -> Tuple[Network, "Switch", List[Host]]:
    """The canonical test topology: N hosts on one switch, port i+1 each."""
    if num_hosts < 1:
        raise ValueError("need at least one host")
    net = Network()
    kwargs = dict(switch_kwargs or {})
    kwargs.setdefault("num_ports", num_hosts)
    switch = net.add_switch("s1", **kwargs)
    hosts = [
        net.add_host(
            f"h{i + 1}",
            MACAddress(i + 1),
            IPv4Address(f"{base_ip}{i + 1}"),
            switch,
            port=i + 1,
        )
        for i in range(num_hosts)
    ]
    return net, switch, hosts
