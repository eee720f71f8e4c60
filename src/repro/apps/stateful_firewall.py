"""Stateful firewall — the worked example of Sec. 2.1.

Topology convention: port ``internal_port`` faces the protected network,
``external_port`` faces outside.  Internal-to-external traffic always
passes and opens a pinhole for the reverse (A, B) pair; external traffic is
admitted only through a live pinhole.  Pinholes expire after
``state_timeout`` seconds and are torn down when either side closes the
connection (FIN/RST) — the behaviours whose *correctness* the
``firewall_*.prop`` family in the :mod:`repro.props` catalog checks.

Fault knobs:

* ``drop_valid`` (rate)        — drop a return packet that has a live
  pinhole (the base property's violation);
* ``early_expiry`` (flag)      — expire pinholes at half the advertised
  timeout (violations near the window's end);
* ``ignore_close`` (flag)      — keep admitting return traffic after a
  close (violates the close-obligation variant's converse: traffic that
  *should* be dropped is forwarded — caught by the "no traffic after
  close" property);
* ``drop_after_refresh`` (flag) — forget to refresh the pinhole timer on
  new outbound traffic (violations when conversations outlive T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..packet.addresses import IPv4Address
from ..packet.headers import TCP, IPv4, TCPFlags
from ..packet.packet import Packet
from ..switch.events import OutOfBandEvent
from ..switch.switch import Switch
from .faults import FaultPlan, no_faults

PinholeKey = Tuple[IPv4Address, IPv4Address]


@dataclass
class Pinhole:
    """One allowed (internal, external) address pair."""

    opened_at: float
    refreshed_at: float
    closed: bool = False


class StatefulFirewallApp:
    """Connection-tracking firewall between two ports."""

    def __init__(
        self,
        internal_port: int = 1,
        external_port: int = 2,
        state_timeout: float = 30.0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if internal_port == external_port:
            raise ValueError("internal and external ports must differ")
        if state_timeout <= 0:
            raise ValueError("state_timeout must be positive")
        self.internal_port = internal_port
        self.external_port = external_port
        self.state_timeout = state_timeout
        self.faults = faults if faults is not None else no_faults()
        self.pinholes: Dict[PinholeKey, Pinhole] = {}

    # -- SwitchApp interface ----------------------------------------------------
    def setup(self, switch: Switch) -> None:
        self.pinholes.clear()

    def on_packet_in(self, switch: Switch, packet: Packet, in_port: int) -> None:
        ip = packet.find(IPv4)
        if ip is None:
            switch.drop(packet, in_port, reason="non-ip")
            return
        now = switch.now
        if in_port == self.internal_port:
            self._handle_outbound(switch, packet, ip, now)
        elif in_port == self.external_port:
            self._handle_inbound(switch, packet, ip, now)
        else:
            switch.drop(packet, in_port, reason="unknown-port")

    def on_oob(self, switch: Switch, event: OutOfBandEvent) -> None:
        pass

    # -- directions -----------------------------------------------------------------
    def _handle_outbound(
        self, switch: Switch, packet: Packet, ip: IPv4, now: float
    ) -> None:
        key = (ip.src, ip.dst)
        hole = self.pinholes.get(key)
        if hole is None or hole.closed or self._expired(hole, now):
            self.pinholes[key] = Pinhole(opened_at=now, refreshed_at=now)
        elif not self.faults.enabled("drop_after_refresh"):
            hole.refreshed_at = now
        if self._is_close(packet):
            self._mark_closed(key)
        switch.inject(packet, self.external_port)

    def _handle_inbound(
        self, switch: Switch, packet: Packet, ip: IPv4, now: float
    ) -> None:
        key = (ip.dst, ip.src)  # pinholes are keyed (internal, external)
        hole = self.pinholes.get(key)
        allowed = hole is not None and not self._expired(hole, now)
        if allowed and hole.closed and not self.faults.enabled("ignore_close"):
            allowed = False
        if allowed and self.faults.fires("drop_valid"):
            switch.drop(packet, self.external_port, reason="fw-bug")
            return
        if not allowed:
            switch.drop(packet, self.external_port, reason="fw-no-state")
            return
        if self._is_close(packet):
            self._mark_closed(key)
        switch.inject(packet, self.internal_port)

    # -- state helpers --------------------------------------------------------------
    def _expired(self, hole: Pinhole, now: float) -> bool:
        timeout = self.state_timeout
        if self.faults.enabled("early_expiry"):
            timeout /= 2.0
        return now - hole.refreshed_at > timeout

    def _mark_closed(self, key: PinholeKey) -> None:
        hole = self.pinholes.get(key)
        if hole is not None:
            hole.closed = True

    @staticmethod
    def _is_close(packet: Packet) -> bool:
        tcp = packet.find(TCP)
        return tcp is not None and (tcp.is_fin or tcp.is_rst)
