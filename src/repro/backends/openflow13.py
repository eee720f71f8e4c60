"""OpenFlow 1.3 (and 1.5) — the baseline column of Table 2.

Standard OpenFlow provides only quantitative state (counters, meters) on
the switch; *any* cross-packet state lives on the controller.  Following
the paper ("we limit our analysis of OpenFlow to actions supported in
version 1.3 — 1.5 for egress matching — without controller interaction"),
the backend rejects every property that needs event history: the switch
alone cannot hold it.

The module also provides :class:`ControllerMirror` — the thing you *would*
have to build instead: a tap that ships every dataplane event to a
controller-side monitor, charging slow-path cost per event.  This is the
"expensive to do externally" strawman of Sec. 1 ("an external monitor must
either see all such packets, or keep the full state table in its
forwarding base"), and the benchmarks use it to quantify that cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.monitor import Monitor
from ..core.provenance import ProvenanceLevel
from ..core.spec import PropertySpec
from ..core.violations import Violation
from ..switch.events import DataplaneEvent
from ..switch.registers import StateCostMeter
from .base import Backend, Capabilities


class OpenFlow13Backend(Backend):
    """OpenFlow without controller interaction: stateless beyond counters."""

    def __init__(self, version: str = "1.3") -> None:
        if version not in ("1.3", "1.5"):
            raise ValueError(f"unsupported OpenFlow version {version!r}")
        self.version = version
        self.caps = Capabilities(
            name="OpenFlow 1.3",
            state_mechanism="Controller only",
            update_datapath="—",
            processing_mode="Inline",
            event_history=None,  # blank: the switch has none of its own
            # The paper's OpenFlow column carries the 1.5-egress caveat for
            # related-event identification; without history the capability
            # never reaches a runtime monitor anyway.
            related_events=True,
            related_events_note="(1.5 only)",
            field_access="Fixed",
            negative_match=True,
            rule_timeouts=True,
            timeout_actions=False,
            symmetric_match=None,
            wandering_match=None,
            out_of_band=None,
            full_provenance=None,
            drop_visibility=False,
        )
        super().__init__()


class ControllerMirror:
    """Monitor every dataplane event at the controller.

    Each event costs a slow-path traversal (the packet, or a copy of it,
    must reach the controller).  The monitor semantics are the full core
    engine — the controller is a general-purpose computer — but the *cost*
    is what the paper says makes this infeasible at line rate.
    """

    def __init__(
        self,
        props: Sequence[PropertySpec],
        provenance: ProvenanceLevel = ProvenanceLevel.FULL,
    ) -> None:
        self.meter = StateCostMeter()
        self.monitor = Monitor(provenance=provenance, max_layer=7)
        for prop in props:
            self.monitor.add_property(prop)
        self.events_mirrored = 0

    def observe(self, event: DataplaneEvent) -> None:
        self.events_mirrored += 1
        self.meter.charge_slow_update()  # the event's trip off-switch
        self.monitor.observe(event)

    def attach(self, switch) -> None:
        switch.add_tap(self.observe)

    @property
    def violations(self) -> List[Violation]:
        return self.monitor.violations
