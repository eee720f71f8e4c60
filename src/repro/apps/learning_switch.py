"""Learning switch — the paper's opening example (Sec. 1).

Two implementations:

* :class:`LearningSwitchApp` — the canonical controller-resident version:
  every table-miss punts to the app, which learns the source's port and
  either unicasts (known destination) or floods.  Fault knobs create the
  Sec. 1 violation ("once D is learned, packets to D are unicast on the
  appropriate port") and the link-down multiple-match violation.

* :func:`install_dataplane_learning` — the on-switch version built from the
  OVS/FAST ``learn`` action: table 0 learns ``eth.src -> in_port`` into
  table 1 and forwards there, no controller involved.  This is the "switches
  may run stateful programs without controller interaction" configuration
  that makes controller-based monitoring infeasible (Sec. 1's third
  advantage of on-switch monitoring).

Fault knobs (see :class:`~repro.apps.faults.FaultPlan`):

* ``flood_known`` (rate)   — sometimes flood a known destination;
* ``wrong_port`` (rate)    — sometimes unicast out the wrong port;
* ``keep_on_link_down`` (flag) — do NOT purge learned state when a port
  goes down (violates "link-down messages delete the set of learned
  destinations").
"""

from __future__ import annotations

from typing import Dict, Optional

from ..packet.addresses import MACAddress
from ..packet.headers import Ethernet
from ..packet.packet import Packet
from ..switch.actions import Deferred, FieldRef, Flood, GotoTable, Learn, Output
from ..switch.events import OutOfBandEvent
from ..switch.match import MatchSpec
from ..switch.switch import Switch
from .faults import FaultPlan, no_faults


class LearningSwitchApp:
    """Controller-resident MAC learning with fault injection."""

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        self.faults = faults if faults is not None else no_faults()
        self.table: Dict[MACAddress, int] = {}

    # -- SwitchApp interface -------------------------------------------------
    def setup(self, switch: Switch) -> None:
        self.table.clear()

    def on_packet_in(self, switch: Switch, packet: Packet, in_port: int) -> None:
        eth = packet.find(Ethernet)
        if eth is None:
            switch.drop(packet, in_port, reason="non-ethernet")
            return
        self.table[eth.src] = in_port
        out_port = self.table.get(eth.dst)
        if eth.dst.is_multicast or out_port is None:
            switch.flood(packet, in_port)
            return
        if self.faults.fires("flood_known"):
            switch.flood(packet, in_port)
            return
        if self.faults.fires("wrong_port"):
            candidates = [p for p in switch.up_ports()
                          if p not in (out_port, in_port)]
            if candidates:
                switch.inject(packet, candidates[0])
                return
        if out_port == in_port:
            switch.drop(packet, in_port, reason="hairpin")
            return
        switch.inject(packet, out_port)

    def on_oob(self, switch: Switch, event: OutOfBandEvent) -> None:
        if self.faults.enabled("keep_on_link_down"):
            return
        from ..switch.events import OobKind

        # Per the paper's multiple-match property, a link-down deletes the
        # *entire* set of learned destinations (the topology may have
        # changed under any of them), not just the downed port's entries.
        if event.oob_kind in (OobKind.PORT_DOWN, OobKind.LINK_DOWN):
            self.table.clear()

    # -- introspection -----------------------------------------------------------
    def learned_port(self, mac: MACAddress) -> Optional[int]:
        return self.table.get(mac)


def install_dataplane_learning(
    switch: Switch, idle_timeout: Optional[float] = None
) -> None:
    """Program pure-dataplane MAC learning via the ``learn`` action.

    Requires the switch to have >= 2 ingress tables.  Table 0's single rule
    learns ``eth.dst == <this packet's eth.src> -> Output(<this in_port>)``
    into table 1 and continues matching there; a table-1 miss falls through
    to the pipeline's miss policy (configure FLOOD for classic behaviour).
    """
    if len(switch.pipeline.tables) < 2:
        raise ValueError("dataplane learning needs at least two ingress tables")
    learn = Learn(
        table_id=1,
        match=(("eth.dst", FieldRef("eth.src")),),
        actions=(Output(FieldRef("in_port")),),
        priority=100,
        idle_timeout=idle_timeout,
        cookie="mac-learn",
    )
    switch.install_rule(
        MatchSpec(),
        [learn, GotoTable(1)],
        table_id=0,
        priority=1,
        cookie="mac-learn-stage0",
    )
