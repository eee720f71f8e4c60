"""Differential property tests: the generated program vs the reference walk.

The monitor's production evaluator is the program ``repro.core.codegen``
emits per (property, event class) and exec's once.  It must be
*observationally invisible*: on any event stream it must produce the
violations and counters of the reference evaluator
(``repro.core.reference``, ``match_strategy="interpreted"``), alone or
behind the sharded fabric, and under every monitor configuration that
changes what evaluation sees (parse depth, split mode, provenance, key
ownership, bounded stores).  The generated program probes the instance
store's hash indexes; the reference walk scans each stage's population,
so every comparison here also holds the indexes to a scan.
For the cancel path the bar is higher than counters: the *sequence* of
applied ops must be the reference scan's, because op order feeds the
seeded per-op control-channel faults in SPLIT mode.

The probe catalog here is deliberately richer than the one in
``test_engine_properties``: it adds negative observations (Absent),
``unless`` cancellation, ``MismatchAny`` disjunctive negation, drop
events, constant guards (the emitter folds these), and a
refresh-on-prior timer, so every branch of the emitter is exercised
against the reference.
"""

import pytest
from hypothesis import example, given, settings
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
    Monitor,
    Observe,
    Predicate,
    PropertySpec,
    Var,
)
from repro.core.degradation import EVICTION_POLICIES, DegradationPolicy
from repro.core.provenance import ProvenanceLevel
from repro.fabric.routing import stable_hash
from repro.faults.profiles import ControlFaultProfile
from repro.faults.rounds import catalog_trace
from repro.packet import ethernet
from repro.props.catalog import build_table1
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)
from repro.switch.switch import ProcessingMode
from tests.applied_ops import record_applied

addr = st.integers(min_value=1, max_value=4)

MATCH_STRATEGIES = ("compiled", "interpreted")

STAT_FIELDS = (
    "events",
    "violations",
    "instances_created",
    "instances_expired",
    "instances_discharged",
    "instances_cancelled",
    "timer_advances",
    "refreshes",
    "candidates_examined",
    "ops_applied",
)


@st.composite
def event_streams(draw, max_events=25):
    """Time-ordered streams over arrivals, egresses, drops, and OOB events,
    with occasional packet-identity reuse on egress/drop."""
    n = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    seen_packets = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.001, max_value=1.5))
        kind = draw(st.sampled_from(["arrival", "egress", "drop", "oob"]))
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


def probe_catalog():
    """Property shapes covering every branch of the emitter."""
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
        PropertySpec(
            name="timed", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)), within=2.0),
            ),
            key_vars=("S",),
        ),
        # Disjunctive negation (the NAT property's MismatchAny shape).
        PropertySpec(
            name="mism", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(MismatchAny((("eth.src", Var("S")),
                                         ("eth.dst", Var("D")))),))),
            ),
            key_vars=("S", "D"),
        ),
        # Packet identity (same_packet_as) ending on a drop.
        PropertySpec(
            name="ident", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.DROP, same_packet_as="a")),
            ),
            key_vars=("S",),
        ),
        # Negative observation: violation fires from a timer, an egress to
        # the bound source discharges the obligation.
        PropertySpec(
            name="noreply", description="",
            stages=(
                Observe("req", EventPattern(kind=EventKind.ARRIVAL,
                                            binds=(Bind("S", "eth.src"),))),
                Absent("reply", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)), within=1.5),
            ),
            key_vars=("S",),
        ),
        # The unsound timer-refresh policy the paper calls out: the
        # refresh path must behave identically under both strategies.
        PropertySpec(
            name="refreshy", description="",
            stages=(
                Observe("req", EventPattern(kind=EventKind.ARRIVAL,
                                            binds=(Bind("S", "eth.src"),))),
                Absent("reply", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)),
                    within=1.5, refresh="on_prior"),
            ),
            key_vars=("S",),
        ),
        # Persistent obligation: a port-down unless cancels the wait.
        PropertySpec(
            name="unlessy", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)),
                    within=5.0,
                    unless=(EventPattern(kind=EventKind.OOB,
                                         oob_kind=OobKind.PORT_DOWN),)),
            ),
            key_vars=("S",),
        ),
        # Any-packet kind plus an OOB middle stage (multiple match: the
        # OOB stage has an empty index plan, forcing the scan bucket).
        PropertySpec(
            name="oobp", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ANY_PACKET,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("down", EventPattern(kind=EventKind.OOB,
                                             oob_kind=OobKind.PORT_DOWN)),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),))),
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
                        "in_port != 3"),),
                    binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldCmp("out_port", "<", Const(4)),
                            Predicate(
                                lambda fields, env:
                                fields.get("eth.dst") == env.get("S"),
                                "dst == $S")),
                    egress_action=EgressAction.UNICAST)),
            ),
            key_vars=("S",),
        ),
    ]


def fingerprint(violation):
    return (violation.property_name, round(violation.time, 9),
            violation.message, tuple(sorted(
                (k, str(val)) for k, val in violation.bindings.items())))


def run_config(events, match_strategy):
    monitor = Monitor(match_strategy=match_strategy)
    for prop in probe_catalog():
        monitor.add_property(prop)
    for event in events:
        monitor.observe(event)
    monitor.advance_to(events[-1].time + 100.0)
    violations = [fingerprint(v) for v in monitor.violations]
    stats = {name: getattr(monitor.stats, name) for name in STAT_FIELDS}
    return violations, stats


#: monitor configurations that change what evaluation sees or what its
#: ops turn into; the generated program must track the reference under
#: each.  ``max_instances=50`` is far below the catalog trace's live
#: population, so every eviction policy actually sheds.
MONITOR_CONFIGS = {
    "max-layer-3": dict(max_layer=3),
    "max-layer-4": dict(max_layer=4),
    "split": dict(mode=ProcessingMode.SPLIT, split_lag=0.02),
    "provenance-none": dict(provenance=ProvenanceLevel.NONE),
    "provenance-full": dict(provenance=ProvenanceLevel.FULL),
    "key-filter": dict(
        key_filter=lambda name, key: stable_hash(key) % 2 == 0),
    **{
        f"capped-{eviction}": dict(degradation=DegradationPolicy(
            max_instances=50, eviction=eviction))
        for eviction in EVICTION_POLICIES
    },
}

CATALOG_EVENTS = catalog_trace(seed=7, num_events=1500)


def run_catalog(match_strategy, **monitor_kwargs):
    monitor = Monitor(match_strategy=match_strategy, **monitor_kwargs)
    for entry in build_table1():
        monitor.add_property(entry.prop)
    monitor.observe_batch(CATALOG_EVENTS)
    monitor.advance_to(CATALOG_EVENTS[-1].time + 600.0)
    violations = [
        fingerprint(v) + (len(v.history), v.trigger is None)
        for v in monitor.violations
    ]
    stats = {name: getattr(monitor.stats, name)
             for name in (*monitor.stats._COUNTERS, *monitor.stats._GAUGES)}
    return violations, stats, monitor.ledger.summary()


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
    return [
        PropertySpec(
            name="pair", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.src", Var("S")),
                            FieldEq("eth.dst", Var("D")))), within=3.0),
            ),
            key_vars=("S", "D"),
        ),
        PropertySpec(
            name="ident", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(kind=EventKind.DROP,
                                          same_packet_as="a")),
            ),
            key_vars=("S",),
        ),
        PropertySpec(
            name="loose", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)),
                    unless=(EventPattern(kind=EventKind.DROP, guards=(
                        FieldEq("eth.src", Var("D")),)),)),
            ),
            key_vars=("S",),
        ),
        cancel_prop(),
    ]


def applied_ops(events, match_strategy, props=None, **monitor_kwargs):
    """The ops a monitor over ``props`` (default :func:`cancel_prop`)
    applied, in order (recorded at the op leaves, see
    :mod:`tests.applied_ops`)."""
    monitor = Monitor(match_strategy=match_strategy, **monitor_kwargs)
    for prop in props if props is not None else [cancel_prop()]:
        monitor.add_property(prop)
    applied = record_applied(monitor)
    for event in events:
        monitor.observe(event)
    monitor.advance_to(events[-1].time + 100.0)
    return applied, [fingerprint(v) for v in monitor.violations]



def _arrival(src, dst, t):
    return PacketArrival(switch_id="s", time=t, packet=ethernet(src, dst),
                         in_port=1)


#: (1, 2) then (3, 4) are created, a repeat 1->2 refreshes (1, 2) to the
#: back of the stage population, then 2->3 hits both ``unless`` buckets:
#: D == 2 holds (1, 2), S == 3 holds (3, 4).  The scan kills (3, 4)
#: first; instance-id order, or bucket-by-bucket order, kills (1, 2) first.
REORDERED_DOUBLE_HIT = [
    _arrival(1, 2, 0.1), _arrival(3, 4, 0.2), _arrival(1, 2, 0.3),
    _arrival(2, 3, 0.4),
]

#: one shard of two: owns the keys whose stable hash is odd (most
#: one-address keys, half of the address pairs)
HALF_THE_KEYS = lambda name, key: stable_hash(key) % 2 == 1  # noqa: E731

#: three flows that cancel none of one another, each arriving again and
#: again: mostly refreshes
REFRESH_STORM = [
    _arrival(src, dst, 0.1 * (3 * n + i))
    for n in range(5)
    for i, (src, dst) in enumerate(((1, 3), (2, 3), (1, 4)))
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
    def reply(within):
        return Absent("reply", EventPattern(
            kind=EventKind.EGRESS,
            guards=(FieldEq("eth.dst", Var("S")),)), within=within)

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
                reply(1.0),
            ),
            key_vars=("S",),
        ),
        PropertySpec(name="waiter", description="",
                     stages=(seen, reply(1.0)), key_vars=("S",)),
    ]


#: 1->2 creates both properties' S == 1.  2->1 then makes ``advancer``
#: plan an advance (S == 1) and a create (S == 2) on one event, and
#: ``waiter`` a create (S == 2).  At 1.5 ``advancer``'s S == 1 and
#: ``waiter``'s S == 2 fall due together, in that order only if the
#: advance was applied before ``waiter``'s create.
ADVANCE_THEN_CREATE = [_arrival(1, 2, 0.1), _arrival(2, 1, 0.5)]


class TestMatchStrategyEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(event_streams())
    def test_all_configs_agree(self, events):
        """Violations (name, time, message, bindings) and the full counter
        set are identical across match strategies.  That includes
        ``candidates_examined``: dispatch planning skips whole (property,
        stage) pairs and the generated program batches its increments
        (one add per event), yet it must examine exactly the instances
        the reference scan offers after its own kind/stage filters."""
        compiled, interpreted = (
            run_config(events, match) for match in MATCH_STRATEGIES)
        assert compiled == interpreted

    def test_reference_scans_instead_of_reading_the_index(self):
        """The oracle is independent of the index: with one waiting
        instance taken out of its key bucket but left in its stage
        population, the generated program (a bucket probe) misses the
        advance and the reference walk (a scan) still makes it."""
        echo = PropertySpec(
            name="echo", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        )

        def run(match_strategy):
            monitor = Monitor(match_strategy=match_strategy)
            monitor.add_property(echo)
            monitor.observe(_arrival(1, 2, 0.1))
            (waiting,) = monitor.store("echo").at_stage(1)
            del waiting.index_bucket[waiting.instance_id]
            monitor.observe(_arrival(2, 1, 0.2))
            return (len(monitor.violations),
                    monitor.stats.candidates_examined)

        assert run("compiled") == (0, 0)
        assert run("interpreted") == (1, 1)

    @settings(max_examples=15, deadline=None)
    @given(event_streams())
    def test_codegen_under_shards(self, events):
        """The generated program composes with the fabric's per-shard
        ``key_filter``: a 2-way partition produces the single-monitor
        reference violation set (order-insensitive: the merge may
        interleave same-timestamp violations differently)."""
        from tests.partition import Partitioned

        reference, _ = run_config(events, "interpreted")

        sharded = Partitioned(probe_catalog(), num_shards=2)
        sharded.observe_batch(events)
        sharded.advance_to(events[-1].time + 100.0)
        assert sorted(map(fingerprint, sharded.violations)) == sorted(reference)

    @pytest.mark.parametrize("config", sorted(MONITOR_CONFIGS))
    def test_monitor_configs_agree(self, config):
        """Under each non-default monitor configuration the Table-1
        catalog yields the same violations (with bindings, history depth
        and trigger presence), every ``MonitorStats`` counter and gauge
        peak, and the same ledger summary from both strategies."""
        kwargs = MONITOR_CONFIGS[config]
        compiled = run_catalog("compiled", **kwargs)
        assert compiled == run_catalog("interpreted", **kwargs)
        if config.startswith("capped-"):
            assert compiled[2]["records"] > 0  # the cap really shed

    @settings(max_examples=30, deadline=None)
    @given(event_streams(max_events=40), st.integers(0, 3))
    @example(events=REORDERED_DOUBLE_HIT, fault_seed=0)
    def test_cancel_order_is_the_scan_order(self, events, fault_seed):
        """The indexed cancel path applies the ops of the reference scan
        in the same order — kind, property, instance key, reason —
        inline, and in SPLIT mode behind a seeded lossy control channel,
        where a different order would hand the seeded drops to different
        ops."""
        profile = ControlFaultProfile(
            drop=0.3, extra_lag=0.01, jitter=0.05, seed=fault_seed)
        modes = {
            "inline": lambda: {},
            "split-faults": lambda: dict(
                mode=ProcessingMode.SPLIT, split_lag=0.02,
                op_faults=profile.channel()),
        }
        if events is REORDERED_DOUBLE_HIT:
            kills = [key for kind, _, key, _ in applied_ops(
                events, "compiled")[0] if kind == "kill"]
            assert [tuple(map(int, key)) for key in kills] == [(3, 4), (1, 2)]
        for mode, kwargs in modes.items():
            compiled, interpreted = (
                applied_ops(events, match, **kwargs())
                for match in MATCH_STRATEGIES)
            assert compiled == interpreted, mode

    @settings(max_examples=30, deadline=None)
    @given(event_streams(max_events=40), st.integers(0, 3))
    @example(events=REFRESH_STORM, fault_seed=1)
    def test_keyed_refresh_ops_agree_under_a_key_filter(
            self, events, fault_seed):
        """A refresh-heavy keyed property set behind one shard's
        ownership filter: the generated program asks the filter on its
        create branch only, the reference walk before every stage-0
        probe, and the two must still apply one op sequence — inline,
        and in SPLIT mode behind a seeded lossy control channel."""
        profile = ControlFaultProfile(
            drop=0.3, extra_lag=0.01, jitter=0.05, seed=fault_seed)
        modes = {
            "inline": lambda: {},
            "split-faults": lambda: dict(
                mode=ProcessingMode.SPLIT, split_lag=0.02,
                op_faults=profile.channel()),
        }
        for mode, kwargs in modes.items():
            compiled, interpreted = (
                applied_ops(events, match, keyed_refresh_props(),
                            key_filter=HALF_THE_KEYS, **kwargs())
                for match in MATCH_STRATEGIES)
            assert compiled == interpreted, mode
            if events is REFRESH_STORM and mode == "inline":
                kinds = [kind for kind, *_ in compiled[0]]
                assert kinds.count("refresh") > kinds.count("create") > 0

    @settings(max_examples=30, deadline=None)
    @given(event_streams(max_events=40))
    @example(events=ADVANCE_THEN_CREATE)
    def test_inline_application_keeps_the_planning_order(self, events):
        """The generated INLINE program applies each property's kills
        and advances, then its refresh or create, before it plans the
        next property; the reference walk plans the whole event first.
        Each section reads only its own store, so the two apply one op
        sequence and raise the same violations, in the same order, with
        the same counters and ledger."""
        def run(match_strategy):
            monitor = Monitor(match_strategy=match_strategy)
            for prop in timed_pair_props():
                monitor.add_property(prop)
            applied = record_applied(monitor)
            monitor.observe_batch(events)
            monitor.advance_to(events[-1].time + 100.0)
            stats = {name: getattr(monitor.stats, name)
                     for name in STAT_FIELDS}
            return (applied, [fingerprint(v) for v in monitor.violations],
                    stats, monitor.ledger.summary())

        compiled = run("compiled")
        assert compiled == run("interpreted")
        if events is ADVANCE_THEN_CREATE:
            applied, violations, _, _ = compiled
            assert [(kind, name, tuple(map(int, key)), reason)
                    for kind, name, key, reason in applied[2:]] == [
                ("advance", "advancer", (1,), ""),
                ("create", "advancer", (2,), ""),
                ("create", "waiter", (2,), ""),
            ]
            assert [(name, time) for name, time, *_ in violations] == [
                ("waiter", 1.1), ("advancer", 1.5), ("waiter", 1.5)]
