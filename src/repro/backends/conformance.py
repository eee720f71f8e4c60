"""Conformance harness — regenerates Table 2 by probing each backend.

For every semantic-challenge row of Table 2 there is a minimal *probe
property* exercising exactly that feature (on top of a plain two-stage
history baseline).  The harness asks each backend to compile the probe:

* compiles — and, where the probe carries a witness trace, detects the
  violation when the trace is replayed — the cell is ``Y`` (✓);
* rejected with ``precluded=True`` — the cell is ``X`` (✗);
* rejected as target-dependent / out of design — the cell is blank.

The first three rows (state mechanism, update datapath, processing mode)
are architectural metadata, read from the capability descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.refs import Bind, Const, EventKind, EventPattern, FieldEq, FieldNe, Var
from ..core.spec import Absent, Observe, PropertySpec
from ..packet.builder import arp_request, ethernet
from ..switch.events import (
    DataplaneEvent,
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketEgress,
)
from .base import Backend, UnsupportedFeature
from .fast import FastBackend
from .openflow13 import OpenFlow13Backend
from .openstate import OpenStateBackend
from .p4 import P4Backend
from .snap import SnapBackend
from .varanus import StaticVaranusBackend, VaranusBackend


def all_backends() -> Tuple[Backend, ...]:
    """The seven Table 2 columns, in the paper's order."""
    return (
        OpenFlow13Backend(),
        OpenStateBackend(),
        FastBackend(),
        P4Backend(),
        SnapBackend(),
        VaranusBackend(),
        StaticVaranusBackend(),
    )


# ---------------------------------------------------------------------------
# Probe properties: each exercises exactly one semantic challenge.
# ---------------------------------------------------------------------------
def history_probe() -> PropertySpec:
    """Two positive observations on L2 fields: pure event history."""
    return PropertySpec(
        name="probe-history",
        description="a frame from S, then a frame to S",
        stages=(
            Observe(
                "seen",
                EventPattern(kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),)),
            ),
            Observe(
                "answered",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.src", Var("S")),),
                ),
            ),
        ),
        key_vars=("S",),
    )


def identity_probe() -> PropertySpec:
    """Arrival linked to its own egress: packet identity (F5)."""
    return PropertySpec(
        name="probe-identity",
        description="an arrival and the same packet's egress",
        stages=(
            Observe(
                "in",
                EventPattern(kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),)),
            ),
            Observe(
                "out",
                EventPattern(kind=EventKind.EGRESS, same_packet_as="in"),
            ),
        ),
        key_vars=("S",),
    )


def negative_probe() -> PropertySpec:
    """A FieldNe guard: negative match (F6)."""
    return PropertySpec(
        name="probe-negative",
        description="a frame from S, then a frame from S to someone else",
        stages=(
            Observe(
                "seen",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")),
                ),
            ),
            Observe(
                "elsewhere",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(
                        FieldEq("eth.src", Var("S")),
                        FieldNe("eth.dst", Var("D")),
                    ),
                ),
            ),
        ),
        key_vars=("S",),
    )


def timeout_probe() -> PropertySpec:
    """An expiring stage: ordinary rule timeouts (F3)."""
    return PropertySpec(
        name="probe-timeout",
        description="within 1s of a frame from S, a frame to S",
        stages=(
            Observe(
                "seen",
                EventPattern(kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),)),
            ),
            Observe(
                "reply",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),),
                ),
                within=1.0,
            ),
        ),
        key_vars=("S",),
    )


def timeout_action_probe() -> PropertySpec:
    """An Absent stage: timeout actions (F7)."""
    return PropertySpec(
        name="probe-timeout-action",
        description="1s elapses with no frame back to S",
        stages=(
            Observe(
                "seen",
                EventPattern(kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),)),
            ),
            Absent(
                "no_reply",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),),
                ),
                within=1.0,
            ),
        ),
        key_vars=("S",),
    )


def symmetric_probe() -> PropertySpec:
    """Directional pair inversion: symmetric match (F8)."""
    return PropertySpec(
        name="probe-symmetric",
        description="a frame S->D, then the inverted frame D->S",
        stages=(
            Observe(
                "forward",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")),
                ),
            ),
            Observe(
                "reverse",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(
                        FieldEq("eth.src", Var("D")),
                        FieldEq("eth.dst", Var("S")),
                    ),
                ),
            ),
        ),
        key_vars=("S", "D"),
    )


def wandering_probe() -> PropertySpec:
    """A value bound from an IPv4 field guarded on an ARP field: the
    cross-protocol instance mapping of wandering match (F8).  Deliberately
    stays within fixed-function parse depth (L3) — wandering is about
    instance *mapping* across protocols, not parser reach, and Varanus
    supports it despite fixed field access."""
    return PropertySpec(
        name="probe-wandering",
        description="an IPv4 packet from ip, then an ARP naming ip",
        stages=(
            Observe(
                "ip_seen",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("ip", "ipv4.src"),),
                ),
            ),
            Observe(
                "arp_names_it",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("arp.sender_ip", Var("ip")),),
                ),
            ),
        ),
        key_vars=("ip",),
    )


def oob_probe() -> PropertySpec:
    """An out-of-band stage advancing every instance: multiple match."""
    return PropertySpec(
        name="probe-oob",
        description="a frame from S, a port-down, then a frame to S",
        stages=(
            Observe(
                "seen",
                EventPattern(kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),)),
            ),
            Observe(
                "port_down",
                EventPattern(kind=EventKind.OOB, oob_kind=OobKind.PORT_DOWN),
            ),
            Observe(
                "stale",
                EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),),
                ),
            ),
        ),
        key_vars=("S",),
    )


# ---------------------------------------------------------------------------
# Witness traces: replayed into compiled probes to confirm detection.
# ---------------------------------------------------------------------------
def _arr(packet, t: float, port: int = 1) -> PacketArrival:
    return PacketArrival(switch_id="probe", time=t, packet=packet, in_port=port)


def _egr(packet, t: float, port: int = 2) -> PacketEgress:
    return PacketEgress(
        switch_id="probe", time=t, packet=packet, out_port=port, in_port=1,
        action=EgressAction.UNICAST,
    )


def history_trace() -> List[DataplaneEvent]:
    return [_arr(ethernet(1, 2), 0.0), _arr(ethernet(1, 3), 0.1)]


def identity_trace() -> List[DataplaneEvent]:
    p = ethernet(1, 2)
    return [_arr(p, 0.0), _egr(p, 0.001)]


def negative_trace() -> List[DataplaneEvent]:
    return [_arr(ethernet(1, 2), 0.0), _arr(ethernet(1, 3), 0.1)]


def timeout_trace_hit() -> List[DataplaneEvent]:
    return [_arr(ethernet(1, 2), 0.0), _arr(ethernet(3, 1), 0.5)]


def timeout_action_trace() -> List[DataplaneEvent]:
    # Only the trigger; the violation must come from the timer at t=1.0.
    return [_arr(ethernet(1, 2), 0.0)]


def symmetric_trace() -> List[DataplaneEvent]:
    return [_arr(ethernet(1, 2), 0.0), _arr(ethernet(2, 1), 0.1)]


def wandering_trace() -> List[DataplaneEvent]:
    from ..packet.builder import tcp_packet

    ip_pkt = tcp_packet(5, 6, "10.0.0.9", "10.0.0.10", 1000, 80)
    arp = arp_request(9, "10.0.0.9", "10.0.0.3")
    return [_arr(ip_pkt, 0.0), _arr(arp, 0.1)]


def oob_trace() -> List[DataplaneEvent]:
    return [
        _arr(ethernet(1, 2), 0.0),
        OutOfBandEvent(switch_id="probe", time=0.1,
                       oob_kind=OobKind.PORT_DOWN, port=3),
        _arr(ethernet(3, 1), 0.2),
    ]


@dataclass(frozen=True)
class Probe:
    """One Table 2 semantic-challenge row.

    ``feature_name`` is the exact string the backend's compile check uses
    when rejecting for *this* feature; a rejection citing some other
    feature (e.g. OpenFlow 1.3 failing the negative-match probe on event
    history, which the probe incidentally needs) falls back to the
    backend's declared capability (``cap_attr``) — each Table 2 row rates
    a feature in isolation.
    """

    row: str
    prop_factory: Callable[[], PropertySpec]
    feature_name: str
    cap_attr: str
    trace_factory: Optional[Callable[[], List[DataplaneEvent]]] = None
    settle: float = 0.0  # advance monitor time after the trace (for timers)


PROBES: Tuple[Probe, ...] = (
    Probe("Event History", history_probe, "event history", "event_history",
          history_trace),
    Probe("Identification of related events", identity_probe,
          "identification of related events", "related_events",
          identity_trace),
    Probe("Negative match", negative_probe, "negative match",
          "negative_match", negative_trace),
    Probe("Rule timeouts", timeout_probe, "rule timeouts", "rule_timeouts",
          timeout_trace_hit),
    Probe("Timeout actions", timeout_action_probe, "timeout actions",
          "timeout_actions", timeout_action_trace, settle=2.0),
    Probe("Symmetric match", symmetric_probe, "symmetric match",
          "symmetric_match", symmetric_trace),
    Probe("Wandering match", wandering_probe, "wandering match",
          "wandering_match", wandering_trace),
    Probe("Out-of-band events", oob_probe,
          "out-of-band events / multiple match", "out_of_band", oob_trace),
)


def run_probe(backend: Backend, probe: Probe) -> str:
    """Returns the Table 2 cell for one backend x probe."""
    prop = probe.prop_factory()
    try:
        monitor = backend.compile(prop)
    except UnsupportedFeature as exc:
        if exc.feature == probe.feature_name:
            return "X" if exc.precluded else ""
        # Rejected for an unrelated reason the probe incidentally needs:
        # rate the feature itself from the declared capability.
        return backend.caps.cell(getattr(backend.caps, probe.cap_attr))
    if probe.trace_factory is None:
        return "Y"
    last_time = 0.0
    for event in probe.trace_factory():
        monitor.observe(event)
        last_time = event.time
    # Settle past any timers the probe armed, plus the split-mode lag (a
    # split backend applies its final state transition after the event).
    monitor.advance_to(max(probe.settle, last_time + 1.0))
    if not monitor.violations:
        raise AssertionError(
            f"{backend.caps.name} compiled {prop.name} but missed the "
            "witness trace — capability model and engine disagree"
        )
    return "Y"


TABLE2_ROWS = (
    "State mechanism",
    "Update datapath",
    "Processing Mode",
    "Event History",
    "Identification of related events",
    "Field access",
    "Negative match",
    "Rule timeouts",
    "Timeout actions",
    "Symmetric match",
    "Wandering match",
    "Out-of-band events",
    "Full provenance",
)


def build_table2(
    backends: Optional[Sequence[Backend]] = None,
) -> Dict[str, Dict[str, str]]:
    """Compute the full Table 2: {row -> {backend name -> cell}}."""
    backends = tuple(backends) if backends is not None else all_backends()
    table: Dict[str, Dict[str, str]] = {row: {} for row in TABLE2_ROWS}
    for backend in backends:
        caps = backend.caps
        name = caps.name
        table["State mechanism"][name] = caps.state_mechanism
        table["Update datapath"][name] = caps.update_datapath
        table["Processing Mode"][name] = caps.processing_mode
        table["Field access"][name] = caps.field_access
        prov = backend.supports_full_provenance()
        table["Full provenance"][name] = caps.cell(prov)
        for probe in PROBES:
            table[probe.row][name] = run_probe(backend, probe)
        # The probes for features the backend's own caps say are supported
        # only via a version note get the note appended (OpenFlow 1.5).
        if caps.related_events_note and caps.related_events:
            cell = table["Identification of related events"][name]
            table["Identification of related events"][name] = (
                f"{cell} {caps.related_events_note}".strip()
            )
    return table


def render_table2(table: Optional[Dict[str, Dict[str, str]]] = None) -> str:
    """Pretty-print the computed Table 2."""
    if table is None:
        table = build_table2()
    backends = list(next(iter(table.values())).keys())
    row_width = max(len(r) for r in table) + 2
    col_width = max(max(len(b) for b in backends),
                    max(len(c) for row in table.values() for c in row.values())) + 2
    lines = [" " * row_width + "".join(b.ljust(col_width) for b in backends)]
    for row, cells in table.items():
        lines.append(
            row.ljust(row_width)
            + "".join(cells[b].ljust(col_width) for b in backends)
        )
    return "\n".join(lines)


#: The paper's Table 2, cell for cell ("Y" = ✓, "X" = ✗, "" = blank).
PAPER_TABLE2: Dict[str, Dict[str, str]] = {
    "State mechanism": {
        "OpenFlow 1.3": "Controller only",
        "OpenState": "State machine",
        "FAST": "Learn action",
        "POF and P4": "Flow registers",
        "SNAP": "Global arrays",
        "Varanus": "Recursive learn",
        "Static Varanus": "Recursive learn",
    },
    "Update datapath": {
        "OpenFlow 1.3": "—",
        "OpenState": "Fast path",
        "FAST": "Slow path",
        "POF and P4": "Fast path",
        "SNAP": "Fast path",
        "Varanus": "Slow path",
        "Static Varanus": "Slow path",
    },
    "Processing Mode": {
        "OpenFlow 1.3": "Inline",
        "OpenState": "Inline",
        "FAST": "Inline",
        "POF and P4": "",
        "SNAP": "",
        "Varanus": "Split",
        "Static Varanus": "Split",
    },
    "Event History": {
        "OpenFlow 1.3": "",
        "OpenState": "Y",
        "FAST": "Y",
        "POF and P4": "Y",
        "SNAP": "Y",
        "Varanus": "Y",
        "Static Varanus": "Y",
    },
    "Identification of related events": {
        "OpenFlow 1.3": "Y (1.5 only)",
        "OpenState": "",
        "FAST": "",
        "POF and P4": "Y",
        "SNAP": "Y",
        "Varanus": "Y",
        "Static Varanus": "Y",
    },
    "Field access": {
        "OpenFlow 1.3": "Fixed",
        "OpenState": "Fixed",
        "FAST": "Fixed",
        "POF and P4": "Dynamic",
        "SNAP": "Dynamic",
        "Varanus": "Fixed",
        "Static Varanus": "Fixed",
    },
    "Negative match": {
        "OpenFlow 1.3": "Y",
        "OpenState": "Y",
        "FAST": "Y",
        "POF and P4": "Y",
        "SNAP": "Y",
        "Varanus": "Y",
        "Static Varanus": "Y",
    },
    "Rule timeouts": {
        "OpenFlow 1.3": "Y",
        "OpenState": "Y",
        "FAST": "X",
        "POF and P4": "Y",
        "SNAP": "X",
        "Varanus": "Y",
        "Static Varanus": "Y",
    },
    "Timeout actions": {
        "OpenFlow 1.3": "X",
        "OpenState": "X",
        "FAST": "X",
        "POF and P4": "X",
        "SNAP": "X",
        "Varanus": "Y",
        "Static Varanus": "Y",
    },
    "Symmetric match": {
        "OpenFlow 1.3": "",
        "OpenState": "Y",
        "FAST": "Y",
        "POF and P4": "Y",
        "SNAP": "Y",
        "Varanus": "Y",
        "Static Varanus": "Y",
    },
    "Wandering match": {
        "OpenFlow 1.3": "",
        "OpenState": "X",
        "FAST": "X",
        "POF and P4": "",
        "SNAP": "",
        "Varanus": "Y",
        "Static Varanus": "Y",
    },
    "Out-of-band events": {
        "OpenFlow 1.3": "",
        "OpenState": "X",
        "FAST": "X",
        "POF and P4": "X",
        "SNAP": "X",
        "Varanus": "Y",
        "Static Varanus": "X",
    },
    "Full provenance": {
        "OpenFlow 1.3": "",
        "OpenState": "X",
        "FAST": "X",
        "POF and P4": "X",
        "SNAP": "X",
        "Varanus": "X",
        "Static Varanus": "X",
    },
}


def diff_against_paper(
    table: Optional[Dict[str, Dict[str, str]]] = None,
) -> List[Tuple[str, str, str, str]]:
    """(row, backend, computed, expected) for every mismatching cell."""
    if table is None:
        table = build_table2()
    diffs = []
    for row, expected_cells in PAPER_TABLE2.items():
        for backend_name, expected in expected_cells.items():
            computed = table.get(row, {}).get(backend_name, "<missing>")
            if computed != expected:
                diffs.append((row, backend_name, computed, expected))
    return diffs
