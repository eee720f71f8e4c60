"""Integration: the Varanus property-to-rules compiler.

The strongest check is differential: the compiled dataplane monitor (pure
switch rules, no engine) and the reference monitor engine watch the same
traffic and must raise the same violations.
"""

import random

import pytest

from repro.backends.varanus_compiler import (
    VaranusCompileError,
    check_compilable,
    compile_property,
)
from repro.core import (
    Absent,
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldEq,
    FieldNe,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from repro.netsim import EventScheduler
from repro.packet import IPv4Address, tcp_syn
from repro.props import load_property
from repro.switch.match import MatchSpec
from repro.switch.pipeline import MissPolicy
from repro.switch.switch import Switch


def knock_chain(name="pk-chain"):
    """3-stage all-arrival property: 7001, then 7002, then 22 => violation."""
    return PropertySpec(
        name=name, description="knock sequence leads to access",
        stages=(
            Observe("k1", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("knocker", "ipv4.src"),))),
            Observe("k2", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("ipv4.src", Var("knocker")),
                        FieldEq("tcp.dst", Const(7002))))),
            Observe("access", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("ipv4.src", Var("knocker")),
                        FieldEq("tcp.dst", Const(22))))),
        ),
        key_vars=("knocker",),
    )


def knock_with_cancel(name="pk-cancel"):
    """As above (2 stages) but a wrong guess cancels the instance."""
    return PropertySpec(
        name=name, description="",
        stages=(
            Observe("k1", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("knocker", "ipv4.src"),))),
            Observe("access", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("ipv4.src", Var("knocker")),
                        FieldEq("tcp.dst", Const(22)))),
                unless=(EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("ipv4.src", Var("knocker")),
                            FieldEq("tcp.dst", Const(9999)))),)),
        ),
        key_vars=("knocker",),
    )


def unanswered(name="unanswered", T=2.0):
    """Absent final stage: a 7001 knock must be followed by 7002 within T."""
    return PropertySpec(
        name=name, description="",
        stages=(
            Observe("k1", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("tcp.dst", Const(7001)),),
                binds=(Bind("knocker", "ipv4.src"),))),
            Absent("no_followup", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("ipv4.src", Var("knocker")),
                        FieldEq("tcp.dst", Const(7002)))),
                within=T),
        ),
        key_vars=("knocker",),
    )


def build_switch():
    sched = EventScheduler()
    return Switch("mon", sched, num_ports=2, num_tables=1,
                  miss_policy=MissPolicy.FLOOD), sched


def drive(prop, packets, settle=0.0):
    """Run the same timed packets through the compiled rules AND the
    reference engine; return (dataplane alert count, engine violations)."""
    switch, sched = build_switch()
    compile_property(switch, prop)
    alerts = []
    switch.add_alert_sink(alerts.append)

    engine = Monitor(scheduler=sched)
    engine.add_property(prop)
    engine.attach(switch)

    for when, packet in packets:
        sched.call_at(when, lambda p=packet: switch.receive(p, 1))
    sched.run()
    if settle:
        sched.clock.advance_to(max(sched.clock.now(), settle))
        switch._on_expiry_deadline()  # fire any remaining rule timers
        engine.advance_to(sched.clock.now())
    return alerts, engine.violations


def pkt(src_ip, dport):
    return tcp_syn(1, 2, src_ip, "10.0.0.99", 30000, dport)


class TestCompiledChain:
    def test_full_sequence_raises_alert(self):
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (1.0, pkt("10.0.0.1", 7002)),
            (2.0, pkt("10.0.0.1", 22)),
        ]
        alerts, violations = drive(knock_chain(), packets)
        assert len(alerts) == 1
        assert len(violations) == 1
        assert alerts[0].message == "pk-chain"
        assert alerts[0].carried.get("ipv4.src") == IPv4Address("10.0.0.1")

    def test_incomplete_sequence_is_silent(self):
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (1.0, pkt("10.0.0.1", 22)),  # skipped 7002
        ]
        alerts, violations = drive(knock_chain(), packets)
        assert alerts == [] and violations == []

    def test_per_key_instances(self):
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (0.1, pkt("10.0.0.2", 7001)),
            (1.0, pkt("10.0.0.1", 7002)),
            (1.1, pkt("10.0.0.2", 7002)),
            (2.0, pkt("10.0.0.1", 22)),
            (2.1, pkt("10.0.0.2", 22)),
        ]
        alerts, violations = drive(knock_chain(), packets)
        assert len(alerts) == 2 == len(violations)

    def test_cross_key_events_do_not_advance(self):
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (1.0, pkt("10.0.0.2", 7002)),  # different knocker
            (2.0, pkt("10.0.0.1", 22)),
        ]
        alerts, violations = drive(knock_chain(), packets)
        assert alerts == [] and violations == []

    def test_instance_tables_unroll_depth(self):
        switch, sched = build_switch()
        compile_property(switch, knock_chain())
        base = switch.pipeline.depth
        for i in range(4):
            switch.receive(pkt(f"10.0.0.{i + 1}", 7001), 1)
        assert switch.pipeline.depth == base + 4  # one table per instance

    def test_cancel_pattern_kills_instance(self):
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (1.0, pkt("10.0.0.1", 9999)),  # the cancel
            (2.0, pkt("10.0.0.1", 22)),
        ]
        alerts, violations = drive(knock_with_cancel(), packets)
        assert alerts == [] and violations == []

    def test_without_cancel_event_violates(self):
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (2.0, pkt("10.0.0.1", 22)),
        ]
        alerts, violations = drive(knock_with_cancel(), packets)
        assert len(alerts) == 1 == len(violations)


class TestCompiledTimeoutAction:
    def test_timer_fires_violation(self):
        packets = [(0.0, pkt("10.0.0.1", 7001))]
        alerts, violations = drive(unanswered(T=2.0), packets, settle=5.0)
        assert len(alerts) == 1
        assert len(violations) == 1
        assert alerts[0].carried.get("ipv4.src") == IPv4Address("10.0.0.1")

    def test_discharge_cancels_timer(self):
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (1.0, pkt("10.0.0.1", 7002)),  # the awaited follow-up
        ]
        alerts, violations = drive(unanswered(T=2.0), packets, settle=5.0)
        assert alerts == [] and violations == []

    def test_observe_within_expires_silently(self):
        prop = PropertySpec(
            name="timed-chain", description="",
            stages=(
                Observe("k1", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("tcp.dst", Const(7001)),),
                    binds=(Bind("knocker", "ipv4.src"),))),
                Observe("k2", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("ipv4.src", Var("knocker")),
                            FieldEq("tcp.dst", Const(7002)))),
                    within=1.0),
            ),
            key_vars=("knocker",),
        )
        packets = [
            (0.0, pkt("10.0.0.1", 7001)),
            (3.0, pkt("10.0.0.1", 7002)),  # after the 1s window
        ]
        alerts, violations = drive(prop, packets, settle=5.0)
        assert alerts == [] and violations == []


class TestFragmentValidation:
    def test_accepts_the_knock_chain(self):
        check_compilable(knock_chain())

    def test_rejects_predicate_guards(self):
        # firewall_basic's stage 0 uses an internal->external Predicate.
        with pytest.raises(VaranusCompileError) as exc:
            check_compilable(load_property("firewall-basic"))
        assert "Predicate" in str(exc.value)

    def test_rejects_drop_observations(self):
        prop = PropertySpec(
            name="needs-drops", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "ipv4.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.DROP,
                    guards=(FieldEq("ipv4.dst", Var("S")),))),
            ),
            key_vars=("S",),
        )
        with pytest.raises(VaranusCompileError) as exc:
            check_compilable(prop)
        assert "taps" in str(exc.value)

    def test_rejects_identity(self):
        with pytest.raises(VaranusCompileError):
            check_compilable(load_property("nat-reverse-translation"))

    def test_rejects_oob(self):
        with pytest.raises(VaranusCompileError):
            check_compilable(load_property("link-down-clears-learning"))

    def test_rejects_intermediate_absent(self):
        prop = PropertySpec(
            name="bad", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "ipv4.src"),))),
                Absent("quiet", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("ipv4.src", Var("S")),)), within=1.0),
                Observe("late", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("ipv4.src", Var("S")),))),
            ),
            key_vars=("S",),
        )
        with pytest.raises(VaranusCompileError):
            check_compilable(prop)

    def test_rejects_unflowable_variable(self):
        # $S is bound at stage 0 but stage 1 neither binds nor pins it, so
        # stage 2 cannot read it from the stage-1 packet.
        prop = PropertySpec(
            name="no-flow", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("tcp.dst", Const(1)),),
                    binds=(Bind("S", "ipv4.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("tcp.dst", Const(2)),))),
                Observe("c", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("ipv4.src", Var("S")),))),
            ),
            key_vars=("S",),
        )
        with pytest.raises(VaranusCompileError) as exc:
            compile_property(build_switch()[0], prop)
        assert "value flow" in str(exc.value)


class TestDifferential:
    """Random traffic: compiled rules and the engine must agree."""

    @pytest.mark.parametrize("seed", range(8))
    def test_knock_chain_agrees_on_random_traffic(self, seed):
        rng = random.Random(seed)
        packets = []
        t = 0.0
        for _ in range(60):
            t += rng.uniform(0.01, 0.2)
            src = f"10.0.0.{rng.randint(1, 4)}"
            dport = rng.choice([7001, 7002, 22, 80])
            packets.append((t, pkt(src, dport)))
        alerts, violations = drive(knock_chain(name=f"pk-{seed}"), packets)
        assert len(alerts) == len(violations), (
            f"seed {seed}: dataplane {len(alerts)} vs engine "
            f"{len(violations)}"
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_timeout_property_agrees_on_random_traffic(self, seed):
        rng = random.Random(100 + seed)
        packets = []
        t = 0.0
        for _ in range(30):
            t += rng.uniform(0.1, 1.5)
            src = f"10.0.0.{rng.randint(1, 3)}"
            dport = rng.choice([7001, 7002, 80])
            packets.append((t, pkt(src, dport)))
        alerts, violations = drive(
            unanswered(name=f"un-{seed}", T=2.0), packets, settle=t + 10.0
        )
        assert len(alerts) == len(violations), (
            f"seed {seed}: dataplane {len(alerts)} vs engine "
            f"{len(violations)}"
        )
