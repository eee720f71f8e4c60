"""Property sets and event streams the differential and invariant tests
share: one probe catalog, one stream strategy, the keyed and timed
shapes, the six-property flows set, and the hand-made streams that pin
an order the random ones rarely reach.
"""

import random

from hypothesis import strategies as st

from repro.core import (
    Absent,
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldCmp,
    FieldEq,
    FieldNe,
    MismatchAny,
    Observe,
    Predicate,
    PropertySpec,
    Var,
)
from repro.fabric.routing import stable_hash
from repro.packet import ethernet, tcp_packet
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)

addr = st.integers(min_value=1, max_value=4)

EVENT_KINDS = ("arrival", "egress", "drop", "oob")


@st.composite
def event_streams(draw, max_events=25, kinds=EVENT_KINDS):
    """Time-ordered streams over a tiny address universe, so instances
    collide, advance, violate and expire often.  Egresses and drops
    sometimes carry an arrived packet again (same uid), so
    ``same_packet_as`` stages and uid index keys get exercised."""
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    seen_packets = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.001, max_value=1.5))
        kind = draw(st.sampled_from(kinds))
        if kind == "oob":
            events.append(OutOfBandEvent(
                switch_id="s", time=t, oob_kind=OobKind.PORT_DOWN,
                port=draw(addr)))
            continue
        if kind != "arrival" and seen_packets and draw(st.booleans()):
            packet = draw(st.sampled_from(seen_packets))  # identity reuse
        else:
            packet = ethernet(draw(addr), draw(addr))
        if kind == "arrival":
            events.append(PacketArrival(switch_id="s", time=t, packet=packet,
                                        in_port=draw(addr)))
            seen_packets.append(packet)
        elif kind == "egress":
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, out_port=draw(addr),
                in_port=draw(addr), action=EgressAction.UNICAST))
        else:
            events.append(PacketDrop(switch_id="s", time=t, packet=packet,
                                     in_port=draw(addr)))
    return events


def arrival(src, dst, t):
    return PacketArrival(switch_id="s", time=t, packet=ethernet(src, dst),
                         in_port=1)


def _seen_then(name, stage, key_vars=("S",), binds=(Bind("S", "eth.src"),)):
    return PropertySpec(
        name=name, description="",
        stages=(Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=binds)), stage),
        key_vars=key_vars)


def ident_prop():
    """Packet identity: an arrived packet that is later dropped.  Stage
    1 hashes on the stage-0 packet uid, which a refresh moves."""
    return _seen_then("ident", Observe("b", EventPattern(
        kind=EventKind.DROP, same_packet_as="a")))


def probe_catalog():
    """Property shapes covering every branch of the generated program:
    folded constant guards, timeouts, disjunctive and variable negation,
    packet identity on drops and egresses, negative observations with and
    without refresh, ``unless`` cancellation, an out-of-band stage with
    nothing to hash on (multiple match), and predicate guards."""
    to_source = (FieldEq("eth.dst", Var("S")),)
    return [
        # Exact match plus a folded constant guard (FieldEq/FieldNe Const).
        PropertySpec(
            name="echo", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldNe("in_port", Const(0)),),
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),
                            FieldEq("in_port", Const(1))))),
            ),
            key_vars=("S",),
        ),
        # Timeout (within) on the waiting stage.
        _seen_then("timed", Observe("b", EventPattern(
            kind=EventKind.EGRESS, guards=to_source), within=2.0)),
        # Negation against a bound variable.
        _seen_then(
            "neg",
            Observe("b", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.src", Var("S")),
                        FieldNe("eth.dst", Var("D"))))),
            binds=(Bind("S", "eth.src"), Bind("D", "eth.dst"))),
        # Disjunctive negation (the NAT property's MismatchAny shape).
        _seen_then(
            "mism",
            Observe("b", EventPattern(
                kind=EventKind.EGRESS,
                guards=(MismatchAny((("eth.src", Var("S")),
                                     ("eth.dst", Var("D")))),))),
            key_vars=("S", "D"),
            binds=(Bind("S", "eth.src"), Bind("D", "eth.dst"))),
        # Packet identity, ending on a drop and on an egress.
        ident_prop(),
        _seen_then("forwarded", Observe("b", EventPattern(
            kind=EventKind.EGRESS, same_packet_as="a"))),
        # Negative observation: violation fires from a timer, an egress to
        # the bound source discharges the obligation.
        _seen_then("noreply", Absent("reply", EventPattern(
            kind=EventKind.EGRESS, guards=to_source), within=1.5)),
        # The unsound timer-refresh policy the paper calls out.
        _seen_then("refreshy", Absent("reply", EventPattern(
            kind=EventKind.EGRESS, guards=to_source),
            within=1.5, refresh="on_prior")),
        # Persistent obligation: a port-down unless cancels the wait.
        _seen_then("unlessy", Observe(
            "b", EventPattern(kind=EventKind.EGRESS, guards=to_source),
            within=5.0,
            unless=(EventPattern(kind=EventKind.OOB,
                                 oob_kind=OobKind.PORT_DOWN),))),
        # Any-packet kind plus an OOB middle stage (multiple match: the
        # OOB stage has an empty index plan and is read from its stage
        # population).
        PropertySpec(
            name="oobp", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ANY_PACKET,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("down", EventPattern(kind=EventKind.OOB,
                                             oob_kind=OobKind.PORT_DOWN)),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS, guards=to_source)),
            ),
            key_vars=("S",),
        ),
        # Predicate guards (stage 0 sees the empty env, stage 1 the full
        # field mapping and the bindings) plus ordered compare and an
        # egress-action refinement.
        PropertySpec(
            name="predy", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(Predicate(
                        lambda fields, env: fields.get("in_port", 0) != 3,
                        "in_port != 3", fields_used=("in_port",)),),
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldCmp("out_port", "<", Const(4)),
                            Predicate(
                                lambda fields, env:
                                fields.get("eth.dst") == env.get("S"),
                                "dst == $S", fields_used=("eth.dst",))),
                    egress_action=EgressAction.UNICAST)),
            ),
            key_vars=("S",),
        ),
    ]


def cancel_prop():
    """Two ``unless`` patterns on one stage, keyed on different variables.

    An arrival x->y creates or refreshes (x, y) — a refresh re-inserts,
    so stage-population order drifts away from instance-id order — and
    cancels waiting instances with D == x (first pattern) and with
    S == y (second): two cancel-index buckets hit at once, their
    members interleaved in the stage population.  The in_port guards
    keep some of each bucket alive, and the third stage carries the
    instances (and their index entries) one stage further.
    """
    return PropertySpec(
        name="cancelly", description="",
        stages=(
            Observe("a", EventPattern(
                kind=EventKind.ARRIVAL,
                binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
            Observe("b", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.dst", Var("S")),
                        FieldEq("out_port", Const(1)))),
                within=6.0,
                unless=(
                    EventPattern(kind=EventKind.ARRIVAL, guards=(
                        FieldEq("eth.src", Var("D")),
                        FieldNe("in_port", Const(3)))),
                    EventPattern(kind=EventKind.ARRIVAL, guards=(
                        FieldEq("eth.dst", Var("S")),
                        FieldNe("in_port", Const(4)))),
                )),
            Observe("c", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.src", Var("S")),)),
                unless=(EventPattern(kind=EventKind.DROP, guards=(
                    FieldEq("eth.dst", Var("D")),)),)),
        ),
        key_vars=("S", "D"),
    )


def keyed_refresh_props():
    """Keyed properties whose arrivals mostly refresh: one whose indexes
    read only its key (a refresh moves it in place), one whose stage-1
    plan is the stage-0 packet uid and one whose ``unless`` reads a
    non-key binding (a refresh may re-key both), and :func:`cancel_prop`."""
    both = (Bind("S", "eth.src"), Bind("D", "eth.dst"))
    return [
        _seen_then("pair", Observe("b", EventPattern(
            kind=EventKind.EGRESS,
            guards=(FieldEq("eth.src", Var("S")),
                    FieldEq("eth.dst", Var("D")))), within=3.0),
            key_vars=("S", "D"), binds=both),
        ident_prop(),
        _seen_then("loose", Observe(
            "b", EventPattern(kind=EventKind.EGRESS,
                              guards=(FieldEq("eth.dst", Var("S")),)),
            unless=(EventPattern(kind=EventKind.DROP, guards=(
                FieldEq("eth.src", Var("D")),)),)), binds=both),
        cancel_prop(),
    ]


def timed_pair_props():
    """Two timed properties whose violations fall due at equal deadlines.

    ``advancer`` moves an instance on when an arrival is addressed to its
    source, into an ``Absent`` stage that violates ``within`` 1 s later;
    the same arrival creates ``advancer`` and ``waiter`` instances for its
    own source, and ``waiter``'s ``Absent`` stage also violates 1 s
    later.  Timers due at one instant fire in push order, so the
    violation order records the order the three ops were applied in.
    """
    def reply():
        return Absent("reply", EventPattern(
            kind=EventKind.EGRESS,
            guards=(FieldEq("eth.dst", Var("S")),)), within=1.0)

    seen = Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                     binds=(Bind("S", "eth.src"),)))
    return [
        PropertySpec(
            name="advancer", description="",
            stages=(
                seen,
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),))),
                reply(),
            ),
            key_vars=("S",),
        ),
        PropertySpec(name="waiter", description="",
                     stages=(seen, reply()), key_vars=("S",)),
    ]


def flow_props():
    """Six keyed two-stage properties on one key (the benchmark's flows
    shape): any arrival creates or refreshes, an egress of the flow to
    port ``1 + i`` violates."""
    return [
        PropertySpec(
            name=f"flow-{i}", description="",
            stages=(
                Observe("seen", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("src", "ipv4.src"),
                           Bind("sport", "tcp.src")))),
                Observe("never", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("ipv4.src", Var("src")),
                            FieldEq("tcp.src", Var("sport")),
                            FieldEq("tcp.dst", Const(1 + i))))),
            ),
            key_vars=("src", "sport"),
        )
        for i in range(6)
    ]


def flow_events(flows=256, num_events=2000):
    """Arrivals (60 %) and egresses over ``flows`` flows; one flow in 16
    aims at a port some flows property waits for."""
    packets = [
        tcp_packet(i % 8, (i + 1) % 8, f"10.0.{i}.1", "198.51.100.9",
                   1024 + i, 80 if i % 16 else 1 + (i // 16) % 6)
        for i in range(flows)
    ]
    rng = random.Random(5)
    events = []
    for n in range(num_events):
        packet, t = packets[rng.randrange(flows)], 1.0 + n * 1e-4
        if rng.random() < 0.6:
            events.append(PacketArrival(
                switch_id="s", time=t, packet=packet, in_port=1))
        else:
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, in_port=1,
                out_port=2, action=EgressAction.UNICAST))
    return events


#: one shard of two: owns the keys whose stable hash is odd (most
#: one-address keys, half of the address pairs)
HALF_THE_KEYS = lambda name, key: stable_hash(key) % 2 == 1  # noqa: E731

#: (1, 2) then (3, 4) are created, a repeat 1->2 refreshes (1, 2) to the
#: back of the stage population, then 2->3 hits both of
#: :func:`cancel_prop`'s ``unless`` buckets: D == 2 holds (1, 2), S == 3
#: holds (3, 4).  The scan kills (3, 4) first; instance-id order, or
#: bucket-by-bucket order, kills (1, 2) first.
REORDERED_DOUBLE_HIT = [
    arrival(1, 2, 0.1), arrival(3, 4, 0.2), arrival(1, 2, 0.3),
    arrival(2, 3, 0.4),
]

#: three flows that cancel none of one another, each arriving again and
#: again: mostly refreshes
REFRESH_STORM = [
    arrival(src, dst, 0.1 * (3 * n + i))
    for n in range(5)
    for i, (src, dst) in enumerate(((1, 3), (2, 3), (1, 4)))
]

#: 1->2 creates both :func:`timed_pair_props`' S == 1.  2->1 then makes
#: ``advancer`` plan an advance (S == 1) and a create (S == 2) on one
#: event, and ``waiter`` a create (S == 2).  At 1.5 ``advancer``'s S == 1
#: and ``waiter``'s S == 2 fall due together, in that order only if the
#: advance was applied before ``waiter``'s create.
ADVANCE_THEN_CREATE = [arrival(1, 2, 0.1), arrival(2, 1, 0.5)]

#: A refresh before a restore, cut at 5 to 7 (probe catalog,
#: ``max_layer=3``).  ``oobp`` creates S == 2, 3 and 1 (the egresses of
#: a 1->1 frame); 2->1 at 5 refreshes S == 2 to the back of the stage
#: population; the port-down at 8 advances all three, in stage-entry
#: order (3, 1, 2), not in creation order.
REFRESHED_BEFORE_THE_CUT = [
    arrival(2, 1, 1.0), arrival(3, 1, 2.0),
    *(PacketEgress(switch_id="s", time=t, packet=ethernet(1, 1), in_port=1,
                   out_port=1, action=EgressAction.UNICAST)
      for t in (3.0, 4.0)),
    arrival(2, 1, 5.0),
    *(PacketEgress(switch_id="s", time=t, packet=ethernet(1, 1), in_port=1,
                   out_port=1, action=EgressAction.UNICAST)
      for t in (6.0, 7.0)),
    *(OutOfBandEvent(switch_id="s", time=t, oob_kind=OobKind.PORT_DOWN,
                     port=1)
      for t in (8.0, 9.0)),
]

#: :func:`timed_pair_props` again.  ``waiter``'s S == 3 falls due at 1.5
#: and is pushed before ``advancer``'s S == 1, whose store comes first:
#: restored at a cut of 3 (the quiet 1.0 event after it), the two fire
#: in the exporter's push order only if the timers keep it.
PUSHED_ACROSS_STORES = [
    arrival(1, 2, 0.1), arrival(3, 9, 0.5), arrival(2, 1, 0.5),
    arrival(5, 9, 1.0),
]

#: :func:`timed_pair_props` under a cap of 3, evict-oldest.  S == 1 and
#: S == 3 are created at one instant; 2->1 moves ``advancer``'s S == 1
#: into the later stage, behind S == 3.  Restored at a cut of 3, the
#: next creation evicts the older instance id of the tie: S == 1, in
#: creation order, which a restore must keep apart from stage order.
TIED_CREATIONS = [
    arrival(1, 2, 0.1), arrival(3, 4, 0.1), arrival(2, 1, 0.2),
    arrival(5, 6, 0.3),
]
