"""Unit tests: the monitor engine's semantic features (F1-F10).

Each test class exercises one of the paper's Sec. 2 features against
hand-built event streams, independent of any switch or app.
"""

import pytest

from repro.core import (
    Absent,
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldEq,
    FieldNe,
    MismatchAny,
    Monitor,
    Observe,
    Predicate,
    PropertySpec,
    ProvenanceLevel,
    SpecError,
    Var,
)
from repro.packet import ethernet, tcp_packet
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)
from repro.switch.switch import ProcessingMode


def arr(packet, t, port=1):
    return PacketArrival(switch_id="s", time=t, packet=packet, in_port=port)


def egr(packet, t, out_port=2, action=EgressAction.UNICAST, in_port=1):
    return PacketEgress(switch_id="s", time=t, packet=packet,
                        out_port=out_port, in_port=in_port, action=action)


def drp(packet, t, port=2, reason="x"):
    return PacketDrop(switch_id="s", time=t, packet=packet, in_port=port,
                      reason=reason)


def two_stage(name="p", within=None, unless=(), stage1_guards=None):
    """frame from S, then frame to S (optionally timed / cancellable)."""
    guards = stage1_guards or (FieldEq("eth.dst", Var("S")),)
    return PropertySpec(
        name=name,
        description="test property",
        stages=(
            Observe("seen", EventPattern(kind=EventKind.ARRIVAL,
                                         binds=(Bind("S", "eth.src"),))),
            Observe("answered",
                    EventPattern(kind=EventKind.ARRIVAL, guards=guards),
                    within=within, unless=unless),
        ),
        key_vars=("S",),
    )


def fresh(prop):
    monitor = Monitor()
    monitor.add_property(prop)
    return monitor


class TestSpecValidation:
    def test_empty_stages_rejected(self):
        with pytest.raises(SpecError):
            PropertySpec(name="x", description="", stages=())

    def test_first_stage_cannot_be_absent(self):
        with pytest.raises(SpecError):
            PropertySpec(
                name="x", description="",
                stages=(Absent("a", EventPattern(kind=EventKind.ARRIVAL),
                               within=1.0),),
            )

    def test_stage0_timeout_rejected(self):
        with pytest.raises(SpecError):
            PropertySpec(
                name="x", description="",
                stages=(Observe("a", EventPattern(kind=EventKind.ARRIVAL),
                                within=1.0),),
            )

    def test_unbound_var_rejected(self):
        with pytest.raises(SpecError):
            PropertySpec(
                name="x", description="",
                stages=(
                    Observe("a", EventPattern(kind=EventKind.ARRIVAL)),
                    Observe("b", EventPattern(
                        kind=EventKind.ARRIVAL,
                        guards=(FieldEq("eth.src", Var("nope")),))),
                ),
            )

    def test_same_packet_unknown_stage_rejected(self):
        with pytest.raises(SpecError):
            PropertySpec(
                name="x", description="",
                stages=(
                    Observe("a", EventPattern(kind=EventKind.ARRIVAL)),
                    Observe("b", EventPattern(kind=EventKind.EGRESS,
                                              same_packet_as="ghost")),
                ),
            )

    def test_key_vars_must_be_bound_at_stage0(self):
        with pytest.raises(SpecError):
            PropertySpec(
                name="x", description="",
                stages=(
                    Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                              binds=(Bind("S", "eth.src"),))),
                    Observe("b", EventPattern(kind=EventKind.ARRIVAL)),
                ),
                key_vars=("T",),
            )

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(SpecError):
            PropertySpec(
                name="x", description="",
                stages=(
                    Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                              binds=(Bind("S", "eth.src"),))),
                    Observe("a", EventPattern(kind=EventKind.ARRIVAL)),
                ),
            )

    def test_default_key_vars_from_stage0(self):
        prop = two_stage()
        assert prop.key_vars == ("S",)

    def test_absent_needs_positive_within(self):
        with pytest.raises(SpecError):
            Absent("a", EventPattern(kind=EventKind.ARRIVAL), within=0.0)

    def test_absent_refresh_policy_validated(self):
        with pytest.raises(SpecError):
            Absent("a", EventPattern(kind=EventKind.ARRIVAL), within=1.0,
                   refresh="sometimes")


class TestHistoryAndAdvancement:
    def test_basic_two_stage_violation(self):
        m = fresh(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        assert len(m.violations) == 1
        v = m.violations[0]
        assert v.property_name == "p"
        assert v.time == 1.0
        assert str(v.bindings["S"]) == "00:00:00:00:00:01"

    def test_no_violation_without_stage0(self):
        m = fresh(two_stage())
        m.observe(arr(ethernet(7, 1), 1.0))
        assert m.violations == []

    def test_creating_event_does_not_advance_its_own_instance(self):
        # eth.src == eth.dst == 1: the frame matches stage 1's guard too,
        # but must not complete the instance it just created.
        m = fresh(two_stage())
        m.observe(arr(ethernet(1, 1), 0.0))
        assert m.violations == []
        m.observe(arr(ethernet(9, 1), 1.0))
        assert len(m.violations) == 1

    def test_one_violation_per_key(self):
        m = fresh(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(2, 9), 0.1))
        m.observe(arr(ethernet(7, 1), 1.0))
        m.observe(arr(ethernet(7, 2), 1.1))
        assert len(m.violations) == 2
        # instances: S=1, S=2, plus one for S=7 (the trigger frames also
        # match stage 0; the second merely refreshes it)
        assert m.stats.instances_created == 3

    def test_instance_removed_after_violation(self):
        m = fresh(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        m.observe(arr(ethernet(8, 1), 2.0))  # no live instance for S=1
        assert len(m.violations) == 1

    def test_duplicate_key_refreshes_not_duplicates(self):
        m = fresh(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(1, 8), 0.5))
        assert m.stats.instances_created == 1
        assert m.stats.refreshes == 1

    def test_multiple_properties_independent(self):
        m = Monitor()
        m.add_property(two_stage("p1"))
        m.add_property(two_stage("p2"))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        assert sorted(v.property_name for v in m.violations) == ["p1", "p2"]

    def test_duplicate_property_name_rejected(self):
        m = Monitor()
        m.add_property(two_stage("p"))
        with pytest.raises(ValueError):
            m.add_property(two_stage("p"))


class TestTimeouts:
    def test_violation_inside_window(self):
        m = fresh(two_stage(within=10.0))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 9.9))
        assert len(m.violations) == 1

    def test_no_violation_after_expiry(self):
        m = fresh(two_stage(within=10.0))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 10.1))
        assert m.violations == []
        assert m.stats.instances_expired == 1

    def test_expiry_exactly_at_deadline(self):
        # Timers fire before same-time events: a frame at exactly t+T is late.
        m = fresh(two_stage(within=10.0))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 10.0))
        assert m.violations == []

    def test_refresh_resets_window(self):
        m = fresh(two_stage(within=10.0))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(1, 9).refreshed(), 8.0))
        m.observe(arr(ethernet(7, 1), 15.0))  # inside 8+10
        assert len(m.violations) == 1

    def test_separate_timers_per_key(self):
        m = fresh(two_stage(within=10.0))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(2, 9), 5.0))
        m.observe(arr(ethernet(7, 1), 12.0))  # S=1 expired
        m.observe(arr(ethernet(7, 2), 12.0))  # S=2 still live
        assert len(m.violations) == 1
        assert str(m.violations[0].bindings["S"]) == "00:00:00:00:00:02"

    def test_timer_bookkeeping_is_bounded_by_live_instances(self):
        # A daemon creates and expires instances forever: nothing the
        # monitor keeps per timer may outlive the instance it was for.
        m = fresh(two_stage(within=1.0))
        rounds, keys = 300, 8
        for n in range(rounds):
            for k in range(1, keys + 1):
                m.observe(arr(ethernet(k, 99), 2.0 * n + k / 100))
        assert m.stats.instances_created == rounds * keys
        assert m.stats.instances_expired == (rounds - 1) * keys
        assert m.live_instances() == keys
        sized = {name: len(value) for name, value in vars(m).items()
                 if hasattr(value, "__len__")}
        assert max(sized.values()) <= keys, sized
        m.advance_to(1e6)
        assert m.live_instances() == 0 and m.pending_op_count() == 0


class TestObligation:
    def _close_pattern(self):
        return EventPattern(
            kind=EventKind.ARRIVAL,
            guards=(FieldEq("eth.src", Var("S")),
                    FieldEq("eth.type", Const(0x9999))),
        )

    def test_unless_cancels(self):
        m = fresh(two_stage(unless=(self._close_pattern(),)))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(1, 9, ethertype=0x9999), 1.0))  # cancel
        m.observe(arr(ethernet(7, 1), 2.0))
        assert m.violations == []
        assert m.stats.instances_cancelled == 1

    def test_unless_only_cancels_matching_instance(self):
        m = fresh(two_stage(unless=(self._close_pattern(),)))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(2, 9), 0.1))
        m.observe(arr(ethernet(1, 9, ethertype=0x9999), 1.0))  # cancels S=1
        m.observe(arr(ethernet(7, 1), 2.0))
        m.observe(arr(ethernet(7, 2), 2.1))
        assert len(m.violations) == 1
        assert str(m.violations[0].bindings["S"]) == "00:00:00:00:00:02"

    def test_cancelling_event_cannot_also_advance(self):
        # An event matching both the unless pattern and the stage guard
        # must cancel, not violate.
        unless = (EventPattern(kind=EventKind.ARRIVAL,
                               guards=(FieldEq("eth.dst", Var("S")),)),)
        m = fresh(two_stage(unless=unless))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        assert m.violations == []
        assert m.stats.instances_cancelled == 1


class TestPacketIdentity:
    def _prop(self):
        return PropertySpec(
            name="ident", description="",
            stages=(
                Observe("in", EventPattern(kind=EventKind.ARRIVAL,
                                           binds=(Bind("S", "eth.src"),))),
                Observe("out", EventPattern(kind=EventKind.EGRESS,
                                            same_packet_as="in")),
            ),
            key_vars=("S",),
        )

    def test_same_packet_matches(self):
        m = fresh(self._prop())
        p = ethernet(1, 2)
        m.observe(arr(p, 0.0))
        m.observe(egr(p, 0.001))
        assert len(m.violations) == 1

    def test_rewritten_packet_keeps_identity(self):
        from repro.switch.rewrite import rewrite_field
        from repro.packet import MACAddress

        m = fresh(self._prop())
        p = ethernet(1, 2)
        m.observe(arr(p, 0.0))
        m.observe(egr(rewrite_field(p, "eth.dst", MACAddress(9)), 0.001))
        assert len(m.violations) == 1

    def test_different_packet_does_not_match(self):
        m = fresh(self._prop())
        m.observe(arr(ethernet(1, 2), 0.0))
        m.observe(egr(ethernet(1, 2), 0.001))  # fresh uid
        assert m.violations == []

    def test_flood_copy_shares_identity(self):
        m = fresh(self._prop())
        p = ethernet(1, 2)
        m.observe(arr(p, 0.0))
        m.observe(egr(p.duplicate(), 0.001, action=EgressAction.FLOOD))
        assert len(m.violations) == 1


class TestNegativeMatch:
    def test_field_ne(self):
        m = fresh(two_stage(stage1_guards=(
            FieldEq("eth.src", Var("S")),
            FieldNe("eth.dst", Const(ethernet(1, 9).eth.dst)),
        )))
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(1, 9).refreshed(), 0.5))  # dst == 9: no match
        assert m.violations == []
        m.observe(arr(ethernet(1, 7), 1.0))  # dst != 9: violation
        assert len(m.violations) == 1

    def test_mismatch_any_fires_if_any_pair_differs(self):
        prop = PropertySpec(
            name="mm", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("X", "eth.src"), Bind("Y", "eth.dst")))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(MismatchAny((("eth.src", Var("X")),
                                         ("eth.dst", Var("Y")))),))),
            ),
            key_vars=("X", "Y"),
        )
        m = fresh(prop)
        m.observe(arr(ethernet(1, 2), 0.0))
        m.observe(arr(ethernet(1, 2).refreshed(), 0.5))  # both equal: no
        assert m.violations == []
        m.observe(arr(ethernet(1, 3), 1.0))  # dst differs
        assert len(m.violations) == 1

    def test_mismatch_any_needs_all_fields_present(self):
        prop = PropertySpec(
            name="mm2", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("X", "ipv4.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(MismatchAny((("ipv4.src", Var("X")),)),))),
            ),
            key_vars=("X",),
        )
        m = fresh(prop)
        m.observe(arr(tcp_packet(1, 2, "10.0.0.1", "10.0.0.2", 1, 2), 0.0))
        m.observe(arr(ethernet(3, 4), 0.5))  # no ipv4.src at all
        assert m.violations == []


class TestTimeoutActions:
    def _prop(self, refresh="never", T=5.0):
        return PropertySpec(
            name="neg", description="",
            stages=(
                Observe("request", EventPattern(
                    kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
                Absent("no_reply", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)),
                    within=T, refresh=refresh),
            ),
            key_vars=("S",),
        )

    def test_timer_fires_violation(self):
        m = fresh(self._prop())
        m.observe(arr(ethernet(1, 2), 0.0))
        m.advance_to(5.0)
        assert len(m.violations) == 1
        assert m.violations[0].time == 5.0
        assert m.violations[0].trigger is None  # no packet fired it
        assert m.stats.timer_advances == 1

    def test_reply_discharges(self):
        m = fresh(self._prop())
        m.observe(arr(ethernet(1, 2), 0.0))
        m.observe(egr(ethernet(9, 1), 3.0))
        m.advance_to(10.0)
        assert m.violations == []
        assert m.stats.instances_discharged == 1

    def test_request_storm_detected_with_never_refresh(self):
        # Re-requests every T-1 must NOT reset the clock (the paper's
        # Feature 7 subtlety).
        m = fresh(self._prop(refresh="never", T=5.0))
        for k in range(4):
            m.observe(arr(ethernet(1, 2).refreshed(), k * 4.0))
        m.advance_to(20.0)
        assert len(m.violations) >= 1
        assert m.violations[0].time == 5.0  # original deadline held

    def test_request_storm_missed_with_on_prior_refresh(self):
        # The unsound policy: each re-request resets the timer, so a storm
        # every T-1 seconds never trips the deadline while it lasts.
        m = fresh(self._prop(refresh="on_prior", T=5.0))
        for k in range(4):
            m.observe(arr(ethernet(1, 2).refreshed(), k * 4.0))
        m.advance_to(16.9)
        assert m.violations == []
        m.advance_to(17.1)  # last request at 12.0 + 5.0
        assert len(m.violations) == 1

    def test_live_scheduler_fires_timeout_actions(self):
        from repro.netsim.scheduler import EventScheduler

        sched = EventScheduler()
        m = Monitor(scheduler=sched)
        m.add_property(self._prop())
        m.observe(arr(ethernet(1, 2), 0.0))
        sched.run()
        assert len(m.violations) == 1


class TestMultipleMatch:
    def _prop(self):
        return PropertySpec(
            name="oob", description="",
            stages=(
                Observe("learn", EventPattern(
                    kind=EventKind.ARRIVAL, binds=(Bind("D", "eth.src"),))),
                Observe("down", EventPattern(kind=EventKind.OOB,
                                             oob_kind=OobKind.PORT_DOWN)),
                Observe("stale", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("D")),))),
            ),
            key_vars=("D",),
        )

    def test_one_oob_event_advances_all_instances(self):
        m = fresh(self._prop())
        for i in range(1, 6):
            m.observe(arr(ethernet(i, 9), i * 0.1))
        m.observe(OutOfBandEvent(switch_id="s", time=1.0,
                                 oob_kind=OobKind.PORT_DOWN, port=2))
        for inst in m.store("oob").all():
            assert inst.stage == 2

    def test_violations_per_stale_destination(self):
        m = fresh(self._prop())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(2, 9), 0.1))
        m.observe(OutOfBandEvent(switch_id="s", time=1.0,
                                 oob_kind=OobKind.PORT_DOWN, port=2))
        m.observe(egr(ethernet(9, 1), 2.0))
        m.observe(egr(ethernet(9, 2), 2.1))
        assert len(m.violations) == 2

    def test_oob_kind_filter(self):
        m = fresh(self._prop())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(OutOfBandEvent(switch_id="s", time=1.0,
                                 oob_kind=OobKind.PORT_UP, port=2))
        assert next(iter(m.store("oob").all())).stage == 1  # unchanged


class TestProvenance:
    def test_full_records_events(self):
        m = Monitor(provenance=ProvenanceLevel.FULL)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        v = m.violations[0]
        assert len(v.history) == 2
        assert v.history[0].event is not None
        assert v.trigger is not None

    def test_limited_records_summaries(self):
        m = Monitor(provenance=ProvenanceLevel.LIMITED)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        v = m.violations[0]
        assert len(v.history) == 2
        assert v.history[0].event is None
        assert v.history[0].summary

    def test_none_records_nothing(self):
        m = Monitor(provenance=ProvenanceLevel.NONE)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        v = m.violations[0]
        assert v.history == ()
        assert v.trigger is None

    def test_bindings_always_available(self):
        # The paper's "limited provenance for free": match state rides along.
        m = Monitor(provenance=ProvenanceLevel.NONE)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        assert "S" in m.violations[0].bindings

    def test_internal_uid_vars_hidden(self):
        m = fresh(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        assert not any(k.startswith("__") for k in m.violations[0].bindings)

    def test_describe_renders(self):
        m = fresh(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 1.0))
        text = m.violations[0].describe()
        assert "VIOLATION p" in text


class TestSideEffectControl:
    def test_split_mode_defers_state(self):
        m = Monitor(mode=ProcessingMode.SPLIT, split_lag=0.01)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        # The response races the state update: at t=0.005 the instance
        # does not exist yet, so the violation is MISSED.
        m.observe(arr(ethernet(7, 1), 0.005))
        m.advance_to(1.0)
        assert m.violations == []

    def test_split_mode_catches_slow_responses(self):
        m = Monitor(mode=ProcessingMode.SPLIT, split_lag=0.01)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 0.5))  # update applied by now
        m.advance_to(1.0)
        assert len(m.violations) == 1

    def test_inline_mode_catches_fast_responses(self):
        m = Monitor(mode=ProcessingMode.INLINE)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        m.observe(arr(ethernet(7, 1), 0.000001))
        assert len(m.violations) == 1

    def test_meter_charged_per_op(self):
        from repro.switch.registers import StateCostMeter

        meter = StateCostMeter()
        m = Monitor(meter=meter, slow_path_updates=True)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        assert meter.slow_updates == 1

    def test_fast_path_meter(self):
        from repro.switch.registers import StateCostMeter

        meter = StateCostMeter()
        m = Monitor(meter=meter, slow_path_updates=False)
        m.add_property(two_stage())
        m.observe(arr(ethernet(1, 9), 0.0))
        assert meter.fast_updates == 1


class TestParseDepthLimit:
    def test_l7_invisible_to_l4_monitor(self):
        """The monitor alone limits the depth: packets decoded from a
        framed batch or read back from a JSONL trace are as unreadable
        past L4 as the ones built in memory."""
        import io

        from repro.netsim.serialize import (
            decode_frames, dump_trace, encode_frames)
        from repro.packet import dhcp_packet, DhcpMessageType
        from repro.serve import parse_frame

        prop = PropertySpec(
            name="l7", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("ip", "dhcp.yiaddr"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("dhcp.yiaddr", Var("ip")),))),
            ),
            key_vars=("ip",),
        )
        built = [
            arr(dhcp_packet(5, DhcpMessageType.ACK, yiaddr="10.0.0.9"), 0.0),
            arr(dhcp_packet(6, DhcpMessageType.ACK, yiaddr="10.0.0.9"), 1.0),
        ]
        jsonl = io.StringIO()
        dump_trace(built, jsonl)
        inputs = {
            "built": built,
            "rpf2": decode_frames(encode_frames(built)),
            "jsonl": [parse_frame(line.encode())
                      for line in jsonl.getvalue().splitlines()],
        }
        for name, events in inputs.items():
            deep = Monitor()
            deep.add_property(prop)
            shallow = Monitor(max_layer=4)
            shallow.add_property(prop)
            for e in events:
                deep.observe(e)
                shallow.observe(e)
            assert len(deep.violations) == 1, name
            assert shallow.violations == [], name  # fields never bound
