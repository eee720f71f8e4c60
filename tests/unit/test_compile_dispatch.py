"""Unit tests for the lowering (repro.core.compile) and the monitor/store
machinery built on it: emitted guard expressions, dispatch plans,
per-stage store buckets with O(1) back-pointer removal, observe_batch,
and the incrementally maintained live counter."""

from collections import deque

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
    Var,
    dispatch_plan,
    dispatch_summary,
    make_store,
    scan_watchers,
    uid_var,
)
from repro.core import codegen
from repro.core.compile import (
    _MISSING,
    CMP_HELPERS,
    bindable_source,
    event_class_label,
    guard_source,
    refinement_sources,
)
from repro.core.instances import Instance
from repro.fabric import ShardedMonitor
from repro.packet import ethernet
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)
from repro.switch.switch import ProcessingMode
from repro.telemetry import MetricsRegistry


def arrival(src, dst, t=1.0, port=1):
    return PacketArrival(switch_id="s", time=t, packet=ethernet(src, dst),
                         in_port=port)


def egress(src, dst, t=2.0, packet=None):
    return PacketEgress(switch_id="s", time=t,
                        packet=packet or ethernet(src, dst), out_port=2,
                        in_port=1, action=EgressAction.UNICAST)


def field_access(name):
    return f"_F.get({name!r}, _M)"


def emitted_match(pattern, fields, env):
    """Evaluate the expression the emitter generates for ``pattern``'s
    refinements and guards, against one field map and one env."""
    pool = codegen._ConstPool()
    terms = refinement_sources(pattern, field_access, pool)
    terms += [guard_source(g, field_access, pool, "_env", "_F")
              for g in pattern.guards]
    scope = {"_M": _MISSING, "_F": fields, "_env": env, **pool.globals,
             **{name: getattr(codegen, name) for name in CMP_HELPERS.values()}}
    return eval(" and ".join(terms) or "True", scope)


# ---------------------------------------------------------------------------
# Emitted guard expressions: exact parity with the interpreted dataclasses
# ---------------------------------------------------------------------------
class TestCompiledGuards:
    def parity(self, pattern, fields, env):
        expected = all(g.holds(fields, env) for g in pattern.guards)
        assert emitted_match(pattern, fields, env) is expected
        return expected

    def test_fieldeq_const_folded(self):
        pattern = EventPattern(kind=EventKind.ARRIVAL,
                               guards=(FieldEq("x", Const(5)),))
        assert self.parity(pattern, {"x": 5}, {}) is True
        assert self.parity(pattern, {"x": 6}, {}) is False
        # absent field: FieldEq can never hold
        assert self.parity(pattern, {}, {}) is False

    def test_fieldeq_var(self):
        pattern = EventPattern(kind=EventKind.ARRIVAL,
                               guards=(FieldEq("x", Var("V")),))
        assert self.parity(pattern, {"x": 7}, {"V": 7}) is True
        assert self.parity(pattern, {"x": 7}, {"V": 8}) is False
        assert self.parity(pattern, {}, {"V": 7}) is False

    def test_fieldne_absent_field_holds(self):
        pattern = EventPattern(kind=EventKind.ARRIVAL,
                               guards=(FieldNe("x", Const(5)),))
        assert self.parity(pattern, {"x": 6}, {}) is True
        assert self.parity(pattern, {"x": 5}, {}) is False
        # an absent field cannot equal the forbidden value
        assert self.parity(pattern, {}, {}) is True

    def test_fieldne_var(self):
        pattern = EventPattern(kind=EventKind.ARRIVAL,
                               guards=(FieldNe("x", Var("V")),))
        assert self.parity(pattern, {"x": 1}, {"V": 2}) is True
        assert self.parity(pattern, {"x": 2}, {"V": 2}) is False
        assert self.parity(pattern, {}, {"V": 2}) is True

    def test_mismatch_any_requires_all_fields(self):
        guard = MismatchAny((("a", Var("A")), ("p", Const(80))))
        pattern = EventPattern(kind=EventKind.ARRIVAL, guards=(guard,))
        env = {"A": 1}
        assert self.parity(pattern, {"a": 1, "p": 80}, env) is False
        assert self.parity(pattern, {"a": 2, "p": 80}, env) is True
        assert self.parity(pattern, {"a": 1, "p": 81}, env) is True
        # a packet lacking a compared field witnesses no mismatch
        assert self.parity(pattern, {"a": 2}, env) is False

    def test_predicate_passthrough(self):
        pattern = EventPattern(
            kind=EventKind.ARRIVAL,
            guards=(Predicate(lambda f, e: f["x"] > e["V"], "x > V",
                              fields_used=("x",)),))
        assert self.parity(pattern, {"x": 9}, {"V": 3}) is True
        assert self.parity(pattern, {"x": 1}, {"V": 3}) is False

    def test_many_guards_compose(self):
        pattern = EventPattern(
            kind=EventKind.ARRIVAL,
            guards=(FieldEq("a", Const(1)), FieldEq("b", Const(2)),
                    FieldNe("c", Const(3)), FieldEq("d", Var("D"))))
        fields = {"a": 1, "b": 2, "c": 0, "d": 4}
        assert self.parity(pattern, fields, {"D": 4}) is True
        assert self.parity(pattern, dict(fields, b=9), {"D": 4}) is False


class TestCompiledPattern:
    """What the generated program does with a whole pattern — event-class
    dispatch, refinements, the ``same_packet_as`` link, binds — probed
    through ``Monitor._evaluate`` with hand-made field maps.  Plans are
    read off SPLIT-mode monitors, whose program returns every op it
    plans; an INLINE program refreshes and creates as it goes."""

    def test_matches_checks_event_class(self):
        monitor = Monitor()
        monitor.add_property(PropertySpec(
            name="p", description="",
            stages=(Observe("a", EventPattern(
                kind=EventKind.EGRESS, binds=(Bind("S", "eth.src"),))),),
            key_vars=("S",)))
        monitor.observe(arrival(1, 2))
        assert monitor.violations == []
        monitor.observe(egress(1, 2))
        assert len(monitor.violations) == 1

    def test_oob_kind_refinement(self):
        pattern = EventPattern(kind=EventKind.OOB,
                               oob_kind=OobKind.PORT_DOWN)
        assert emitted_match(
            pattern, {"oob.kind": OobKind.PORT_DOWN}, {}) is True
        assert emitted_match(
            pattern, {"oob.kind": OobKind.PORT_UP}, {}) is False

    def test_match_instance_inlines_same_packet(self):
        prop = PropertySpec(
            name="p", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(kind=EventKind.EGRESS,
                                          same_packet_as="a")),
            ),
            key_vars=("S",),
        )
        # the uid-less instance sits in the scan bucket, offered to every
        # event, so the emitted uid comparison decides for it
        monitor = Monitor(mode=ProcessingMode.SPLIT)
        monitor.add_property(prop)
        store = monitor.store("p")
        store.add(Instance(prop, ("k",), {"S": "k", uid_var("a"): 42}, 0.0))
        # no uid bound at the linked stage: identity cannot hold
        store.add(Instance(prop, ("k2",), {"S": "k2"}, 0.0))

        def advanced(uid):
            return [op.instance.key
                    for op in monitor._evaluate(egress(1, 2), {"uid": uid})
                    if op.kind == "advance"]

        assert advanced(42) == [("k",)]
        assert advanced(43) == []

    def test_capture_and_bindable(self):
        prop = PropertySpec(
            name="p", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("P", "in_port")))),
                Observe("b", EventPattern(kind=EventKind.EGRESS)),
            ),
            key_vars=("S",))
        split, inline = Monitor(mode=ProcessingMode.SPLIT), Monitor()
        for monitor in (split, inline):
            monitor.add_property(prop)
        event = arrival(1, 2)
        fields = {"eth.src": "m", "in_port": 3, "uid": 9}
        env = {"S": "m", "P": 3, uid_var("a"): 9}
        (op,) = split._evaluate(event, fields)
        assert (op.kind, op.key, op.env) == ("create", ("m",), env)
        # INLINE: the program created the instance itself, nothing is left
        assert inline._evaluate(event, fields) == []
        created = inline.store("p").by_key(("m",))
        assert (created.stage, created.env) == (1, env)
        assert inline.stats.ops_applied == inline.stats.instances_created == 1
        # a bind whose field is absent blocks the match, it never raises
        assert split._evaluate(event, {"eth.src": "m", "uid": 9}) == []
        # the bind-free fast path emits no presence check at all
        assert bindable_source(
            EventPattern(kind=EventKind.ARRIVAL), field_access) == "True"


# ---------------------------------------------------------------------------
# Dispatch planning
# ---------------------------------------------------------------------------
def rich_prop():
    """Arrival-create, OOB unless, Absent egress discharge."""
    return PropertySpec(
        name="rich", description="",
        stages=(
            Observe("req", EventPattern(kind=EventKind.ARRIVAL,
                                        binds=(Bind("S", "eth.src"),))),
            Absent("reply", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.dst", Var("S")),)),
                within=2.0,
                unless=(EventPattern(kind=EventKind.OOB,
                                     oob_kind=OobKind.PORT_DOWN),)),
        ),
        key_vars=("S",),
    )


def _unless_prop(unless):
    """Two stages, the second indexable, cancelled by ``unless``."""
    return PropertySpec(
        name="cancelled", description="",
        stages=(
            Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                      binds=(Bind("S", "eth.src"),))),
            Observe("b", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.dst", Var("S")),)),
                unless=(unless,)),
        ),
        key_vars=("S",),
    )


class TestDispatchPlan:
    def test_roles_land_on_the_right_classes(self):
        plan = dispatch_plan(rich_prop())
        assert {(w.stage_idx, w.role) for w in plan[PacketArrival]} == {
            (0, "create")}
        assert {(w.stage_idx, w.role) for w in plan[PacketEgress]} == {
            (1, "discharge")}
        assert {(w.stage_idx, w.role) for w in plan[OutOfBandEvent]} == {
            (1, "unless")}
        assert PacketDrop not in plan
        assert TimerFired not in plan  # timers are not dispatchable events

    def test_any_packet_registers_three_classes(self):
        prop = PropertySpec(
            name="any", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ANY_PACKET,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        )
        plan = dispatch_plan(prop)
        for cls in (PacketArrival, PacketEgress, PacketDrop):
            assert any(w.role == "create" for w in plan[cls])

    def test_unless_watchers_indexed_by_env_guards(self):
        plan = dispatch_plan(rich_prop())
        (unless,) = plan[OutOfBandEvent]
        assert unless.indexed is False  # an oob kind test hashes nothing
        keyed = dispatch_plan(_unless_prop(
            EventPattern(kind=EventKind.ARRIVAL,
                         guards=(FieldEq("eth.src", Var("S")),))))
        assert [w.indexed for w in keyed[PacketArrival]
                if w.role == "unless"] == [True]

    def test_summary_and_labels(self):
        assert dispatch_summary(rich_prop()) == {
            "arrival": 1, "egress": 1, "oob": 1}
        assert event_class_label(PacketArrival) == "arrival"
        assert event_class_label(TimerFired) == "TimerFired"

    def test_scan_watchers_flags_unindexable_stages(self):
        hot = PropertySpec(
            name="hot", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(kind=EventKind.ARRIVAL,
                                          guards=(FieldEq("in_port",
                                                          Const(1)),))),
            ),
            key_vars=("S",),
        )
        assert scan_watchers(hot) == [("arrival", "b", "advance")]
        # an indexable stage produces no scans (the uid link indexes
        # ident); its unless has nothing to hash on, so that one scans
        assert scan_watchers(rich_prop()) == [("oob", "reply", "unless")]

    def test_scan_watchers_reports_unless_like_any_other_scan(self):
        unkeyed = EventPattern(kind=EventKind.ARRIVAL,
                               guards=(FieldEq("tcp.dst", Const(80)),))
        assert scan_watchers(_unless_prop(unkeyed)) == [
            ("arrival", "b", "unless")]
        keyed = EventPattern(kind=EventKind.ARRIVAL,
                             guards=(FieldEq("eth.src", Var("S")),))
        assert scan_watchers(_unless_prop(keyed)) == []


class TestMonitorDispatch:
    def test_unwatched_event_class_is_skipped(self):
        monitor = Monitor()
        monitor.add_property(rich_prop())
        drop = PacketDrop(switch_id="s", time=1.0, packet=ethernet(1, 2),
                          in_port=1)
        monitor.observe(drop)
        assert monitor.stats.events == 1
        assert monitor.stats.candidates_examined == 0

    def test_unknown_match_strategy_rejected(self):
        with pytest.raises(ValueError):
            Monitor(match_strategy="jit")

    def test_codegen_spelling_is_gone(self):
        with pytest.raises(ValueError):
            Monitor(match_strategy="codegen")


# ---------------------------------------------------------------------------
# Store buckets and back-pointers
# ---------------------------------------------------------------------------
class TestStoreBackpointers:
    def make(self):
        prop = PropertySpec(
            name="p", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.src", Var("S")),))),
                Observe("c", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("eth.dst", Var("S")),))),
            ),
            key_vars=("S",),
        )
        store = make_store(prop)
        inst = Instance(prop, ("m",), {"S": "m"}, 0.0)
        return store, inst

    def test_add_remove_maintains_buckets(self):
        store, inst = self.make()
        store.add(inst)
        assert inst.stage_bucket is not None
        assert list(store.at_stage(1)) == [inst]
        store.remove(inst)
        assert inst.stage_bucket is None
        assert inst.index_bucket is None
        assert list(store.at_stage(1)) == []
        assert store.live_count == 0

    def test_reindex_moves_between_stage_buckets(self):
        store, inst = self.make()
        store.add(inst)
        inst.stage = 2
        store.reindex(inst, old_stage=1)
        assert list(store.at_stage(1)) == []
        assert list(store.at_stage(2)) == [inst]
        assert store._buckets[1] == {("m",): {}}
        assert store._buckets[2] == {("m",): {inst.instance_id: inst}}
        assert inst.index_bucket is store._buckets[2][("m",)]

    def test_indexed_candidates_probe_not_scan(self):
        store, inst = self.make()
        store.add(inst)
        assert inst.index_bucket is store._buckets[1][("m",)]
        # filed under its binding, not in the scan bucket
        assert None not in store._buckets[1]
        assert list(store._buckets[1][("m",)].values()) == [inst]


# ---------------------------------------------------------------------------
# observe_batch, advance_to gauge hygiene, live-counter consistency
# ---------------------------------------------------------------------------
def echo_prop():
    return PropertySpec(
        name="echo", description="",
        stages=(
            Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                      binds=(Bind("S", "eth.src"),))),
            Observe("b", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.dst", Var("S")),)), within=5.0),
        ),
        key_vars=("S",),
    )


def sample_events():
    return [arrival(1, 2, t=1.0), arrival(2, 1, t=1.5),
            egress(1, 2, t=2.0), arrival(3, 4, t=2.5),
            arrival(4, 3, t=9.0)]  # after echo(3)'s deadline


def verdicts(monitor):
    return ([(v.property_name, v.time, sorted(map(str, v.bindings.values())))
             for v in monitor.violations],
            monitor.stats.events, monitor.stats.instances_created,
            monitor.stats.instances_expired)


class TestObserveBatch:
    def run_batch(self, container=list, **kwargs):
        monitor = Monitor(**kwargs)
        monitor.add_property(echo_prop())
        monitor.observe_batch(container(sample_events()))
        return monitor

    def fabric_verdicts(self, container=list):
        fabric = ShardedMonitor([echo_prop()], num_shards=2)
        try:
            fabric.observe_batch(container(sample_events()))
            return verdicts(fabric)
        finally:
            fabric.stop()

    def test_batch_equals_loop(self):
        looped = Monitor()
        looped.add_property(echo_prop())
        for event in sample_events():
            looped.observe(event)
        assert verdicts(self.run_batch()) == verdicts(looped)

    @pytest.mark.parametrize("container", [iter, deque, tuple])
    def test_batch_takes_any_iterable(self, container):
        whole = verdicts(self.run_batch())
        assert verdicts(self.run_batch(container)) == whole
        assert self.fabric_verdicts() == whole
        assert self.fabric_verdicts(container) == whole

    def test_batch_with_registry_falls_back_identically(self):
        assert (verdicts(self.run_batch(registry=MetricsRegistry()))
                == verdicts(self.run_batch()))

    def test_batch_in_split_mode(self):
        monitor = self.run_batch(mode=ProcessingMode.SPLIT, split_lag=0.01)
        monitor.advance_to(100.0)
        assert monitor.stats.events == len(sample_events())
        assert monitor.pending_op_count() == 0


class TestAdvanceToGauge:
    def test_pending_gauge_drains_through_set(self):
        """advance_to must go through Gauge.set (not poke .value), so the
        watermark records the pre-drain depth and the live value hits 0."""
        registry = MetricsRegistry()
        monitor = Monitor(mode=ProcessingMode.SPLIT, split_lag=5.0,
                          registry=registry)
        monitor.add_property(echo_prop())
        monitor.observe(arrival(1, 2, t=1.0))
        monitor.observe(arrival(5, 6, t=1.1))
        assert monitor.pending_op_count() == 2
        monitor.advance_to(50.0)
        assert monitor.pending_op_count() == 0
        gauge = registry.gauge("repro_monitor_pending_ops")
        assert gauge.value == 0.0
        assert monitor.stats.peak_pending_ops >= 2


class TestLiveTotal:
    @pytest.mark.parametrize("match_strategy", ["compiled", "interpreted"])
    def test_live_total_tracks_stores(self, match_strategy):
        monitor = Monitor(match_strategy=match_strategy)
        monitor.add_property(echo_prop())
        monitor.add_property(rich_prop())
        for event in sample_events():
            monitor.observe(event)
            assert monitor._live_total == monitor.live_instances()
        monitor.advance_to(1000.0)
        assert monitor._live_total == monitor.live_instances()
