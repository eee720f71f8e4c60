"""Unit tests: instance stores (Feature 8 machinery) and static analysis."""

import gc
import tracemalloc

import pytest

from repro.core import (
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldEq,
    MatchKind,
    Monitor,
    Observe,
    PropertySpec,
    Var,
    analyze,
    classify_match_kind,
    field_family,
    field_layer,
    stage_index_plan,
    uid_var,
)
from repro.core.degradation import EVICTION_POLICIES, DegradationPolicy
from repro.core.instances import Instance, InstanceStore, index_plans
from repro.packet import ethernet
from repro.props import build_table1, load_property
from repro.switch.events import (
    EgressAction,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)
from tests.applied_ops import record_applied


def simple_prop():
    return PropertySpec(
        name="sp", description="",
        stages=(
            Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                      binds=(Bind("S", "eth.src"),))),
            Observe("b", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.dst", Var("S")),))),
        ),
        key_vars=("S",),
    )


def arrival(src, dst, t):
    return PacketArrival(switch_id="s", time=t, in_port=1,
                         packet=ethernet(src, dst))


class TestInstanceStores:
    def _instance(self, prop, key=("k",), env=None):
        return Instance(prop, key, dict(env or {"S": "k"}), created_at=0.0)

    def test_add_and_by_key(self):
        prop = simple_prop()
        store = InstanceStore(prop)
        inst = self._instance(prop)
        store.add(inst)
        assert store.by_key(("k",)) is inst

    def test_duplicate_live_key_rejected(self):
        prop = simple_prop()
        store = InstanceStore(prop)
        store.add(self._instance(prop))
        with pytest.raises(ValueError):
            store.add(self._instance(prop))

    def test_dead_key_can_be_replaced(self):
        prop = simple_prop()
        store = InstanceStore(prop)
        first = self._instance(prop)
        store.add(first)
        store.remove(first)
        second = self._instance(prop)
        store.add(second)
        assert store.by_key(("k",)) is second

    @staticmethod
    def _examined(prop, events):
        """``candidates_examined`` after ``events``, equal under both match
        strategies: the generated program probes the index, the reference
        walk scans."""
        counts = set()
        for match_strategy in ("compiled", "interpreted"):
            monitor = Monitor(match_strategy=match_strategy)
            monitor.add_property(prop)
            monitor.observe_batch(events)
            counts.add(monitor.stats.candidates_examined)
        (count,) = counts
        return count

    def test_indexed_candidates_hit(self):
        prop = simple_prop()
        store = InstanceStore(prop)
        inst = self._instance(prop, env={"S": "mac1"})
        store.add(inst)
        assert store.index(1, prop.stages[1].pattern) == {
            ("mac1",): {inst.instance_id: inst}}
        assert self._examined(prop, [arrival(1, 2, 0.1),
                                     arrival(3, 1, 0.2)]) == 1

    def test_indexed_candidates_miss(self):
        prop = simple_prop()
        store = InstanceStore(prop)
        store.add(self._instance(prop, env={"S": "mac1"}))
        assert ("other",) not in store.index(1, prop.stages[1].pattern)
        assert self._examined(prop, [arrival(1, 2, 0.1),
                                     arrival(3, 4, 0.2)]) == 0

    def test_indexed_candidates_event_missing_field(self):
        # stage b hashes on ipv4.dst, which a plain ethernet frame lacks:
        # the equality cannot hold, so nothing is examined
        prop = PropertySpec(
            name="ip", description="",
            stages=(
                Observe("a", EventPattern(kind=EventKind.ARRIVAL,
                                          binds=(Bind("S", "eth.src"),))),
                Observe("b", EventPattern(
                    kind=EventKind.ARRIVAL,
                    guards=(FieldEq("ipv4.dst", Var("S")),))),
            ),
            key_vars=("S",),
        )
        assert self._examined(prop, [arrival(1, 2, 0.1),
                                     arrival(3, 1, 0.2)]) == 0

    def test_stage_index_plan_from_env_guards(self):
        prop = simple_prop()
        assert stage_index_plan(prop.stages[1]) == (("eth.dst", "S"),)

    def test_stage_index_plan_includes_uid(self):
        prop = load_property("nat-reverse-translation")
        plan = stage_index_plan(prop.stages[1])
        assert ("uid", uid_var("outbound_arrival")) in plan

    def test_oob_stage_has_empty_plan(self):
        prop = load_property("link-down-clears-learning")
        assert stage_index_plan(prop.stages[1]) == ()

    def test_reindex_moves_instance(self):
        prop = simple_prop()
        store = InstanceStore(prop)
        inst = self._instance(prop, env={"S": "m"})
        store.add(inst)
        inst.stage = 2  # completes; no longer waits anywhere
        store.reindex(inst, old_stage=1)
        assert ("m",) not in store.index(1, prop.stages[1].pattern)
        assert inst.slots == ()
        assert list(store.at_stage(1)) == []


class TestNoEmptyBucketSurvives:
    """An index drops a bucket when its last instance leaves, so state
    that instances on fresh keys leave behind is bounded by the live
    population, not by every key ever seen."""

    ROUND = 64  # instances created, then expired, per round

    @staticmethod
    def prop():
        """Stage b: an advance index on S and an ``unless`` index on D,
        and a deadline that expires every instance."""
        return PropertySpec(
            name="fresh", description="",
            stages=(
                Observe("a", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
                Observe("b", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("eth.dst", Var("S")),)),
                    within=1.0,
                    unless=(EventPattern(kind=EventKind.DROP, guards=(
                        FieldEq("eth.src", Var("D")),)),)),
            ),
            key_vars=("S",),
        )

    def expire(self, monitor, first, count):
        """``count`` instances on fresh keys from ``first`` on, created a
        round at a time, each round expired before the next."""
        for start in range(first, first + count, self.ROUND):
            t = start * 10.0
            monitor.observe_batch([
                arrival(k + 1, k + 2, t)
                for k in range(start, start + self.ROUND)])
            monitor.advance_to(t + 5.0)

    @staticmethod
    def indexes(store):
        return [store.index(stage_idx, pattern)
                for stage_idx in range(1, store.prop.num_stages)
                for pattern, _ in index_plans(store.prop.stages[stage_idx])]

    def test_expired_fresh_keys_leave_no_bucket(self):
        n = 1024
        monitor = Monitor()
        monitor.add_property(self.prop())
        store = monitor.store("fresh")
        self.expire(monitor, 0, self.ROUND)  # warm every code path
        gc.collect()
        tracemalloc.start()
        try:
            self.expire(monitor, self.ROUND, n)
            gc.collect()
            at_n = tracemalloc.get_traced_memory()[0]
            assert len(self.indexes(store)) == 2
            assert self.indexes(store) == [{}, {}]
            self.expire(monitor, self.ROUND + n, 3 * n)
            gc.collect()
            at_4n = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert monitor.stats.instances_created == self.ROUND + 4 * n
        assert store.live_count == 0
        assert self.indexes(store) == [{}, {}]
        # one leaked bucket per key (an empty dict under its key tuple)
        # is over 300 bytes; flat means well under 16 per instance
        assert at_4n - at_n < 16 * 3 * n


def cancel_prop():
    """Stage b: one unless keyed on D, one on S, one with nothing to hash
    on; stage c: one keyed on D again."""
    arrival = EventKind.ARRIVAL
    return PropertySpec(
        name="cp", description="",
        stages=(
            Observe("a", EventPattern(
                kind=arrival,
                binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
            Observe("b", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.dst", Var("S")),)),
                within=5.0,
                unless=(
                    EventPattern(kind=arrival, guards=(
                        FieldEq("eth.src", Var("D")),)),
                    EventPattern(kind=EventKind.DROP, guards=(
                        FieldEq("eth.dst", Var("S")),
                        FieldEq("in_port", Const(1)))),
                    EventPattern(kind=EventKind.DROP, guards=(
                        FieldEq("in_port", Const(9)),)),
                )),
            Observe("c", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.src", Var("S")),)),
                unless=(EventPattern(kind=arrival, guards=(
                    FieldEq("eth.dst", Var("D")),)),)),
        ),
        key_vars=("S", "D"),
    )


def contents(index):
    """{index key: [instance keys in order]}."""
    return {key: [inst.key for inst in bucket.values()]
            for key, bucket in index.items()}


def unless_contents(store):
    """(stage, unless position) -> its index's :func:`contents`."""
    out = {}
    for stage_idx, stage in enumerate(store.prop.stages):
        for j, unless in enumerate(getattr(stage, "unless", ())):
            index = store.index(stage_idx, unless)
            if index is not None:
                out[stage_idx, j] = contents(index)
    return out


def check_index_invariant(store):
    """Every index — advance, discharge and cancel alike — holds exactly
    the live instances waiting at its stage, filed under their current
    bindings, in stage-population order, and no empty bucket is kept."""
    for stage_idx in range(1, store.prop.num_stages):
        waiting = list(store.at_stage(stage_idx))
        for pattern, plan in index_plans(store.prop.stages[stage_idx]):
            expected = {}
            for inst in waiting:
                key = tuple(inst.env[var] for _, var in plan)
                expected.setdefault(key, []).append(inst.key)
            assert contents(store.index(stage_idx, pattern)) == expected


class TestUnlessIndex:
    def _instance(self, prop, s, d):
        return Instance(prop, (s, d), {"S": s, "D": d}, created_at=0.0)

    def test_plans_cover_only_hashable_patterns(self):
        prop = cancel_prop()
        b, c = prop.stages[1], prop.stages[2]
        assert index_plans(prop.stages[0]) == ()
        assert index_plans(b) == (
            (b.pattern, (("eth.dst", "S"),)),
            (b.unless[0], (("eth.src", "D"),)),
            (b.unless[1], (("eth.dst", "S"),)))
        store = InstanceStore(prop)
        assert store.index(1, b.unless[2]) is None  # constant guards only
        assert store.index(2, c.unless[0]) == {}

    def test_add_and_remove(self):
        prop = cancel_prop()
        store = InstanceStore(prop)
        one, two = self._instance(prop, "s", "d"), self._instance(prop, "t", "d")
        store.add(one)
        store.add(two)
        assert unless_contents(store) == {
            (1, 0): {("d",): [("s", "d"), ("t", "d")]},
            (1, 1): {("s",): [("s", "d")], ("t",): [("t", "d")]},
            (2, 0): {},
        }
        store.remove(one)
        assert one.slots == ()
        assert unless_contents(store) == {
            (1, 0): {("d",): [("t", "d")]},
            (1, 1): {("t",): [("t", "d")]},
            (2, 0): {},
        }
        store.remove(two)
        assert unless_contents(store) == {(1, 0): {}, (1, 1): {}, (2, 0): {}}

    def test_refresh_rebinds_and_moves_to_the_back(self):
        prop = cancel_prop()
        store = InstanceStore(prop)
        one, two = self._instance(prop, "s", "d"), self._instance(prop, "t", "d")
        store.add(one)
        store.add(two)
        store.reindex(one, old_stage=1)  # a refresh: same stage, re-entered
        assert [i.key for i in store.at_stage(1)] == [("t", "d"), ("s", "d")]
        assert unless_contents(store)[1, 0] == {
            ("d",): [("t", "d"), ("s", "d")]}
        assert one.stage_entry > two.stage_entry
        one.env["D"] = "e"  # a refresh that re-binds an indexed variable
        store.reindex(one, old_stage=1)
        assert unless_contents(store)[1, 0] == {
            ("d",): [("t", "d")], ("e",): [("s", "d")]}
        check_index_invariant(store)

    def test_advance_moves_to_the_next_stage_index(self):
        prop = cancel_prop()
        store = InstanceStore(prop)
        inst = self._instance(prop, "s", "d")
        store.add(inst)
        inst.stage = 2
        store.reindex(inst, old_stage=1)
        assert unless_contents(store) == {
            (1, 0): {}, (1, 1): {}, (2, 0): {("d",): [("s", "d")]}}
        inst.stage = 3  # complete: waits nowhere
        store.reindex(inst, old_stage=2)
        assert unless_contents(store) == {(1, 0): {}, (1, 1): {}, (2, 0): {}}

    @staticmethod
    def _events():
        """Creates, refreshes, cancels by each pattern, an advance, and a
        violation."""
        def egress(src, dst, t):
            return PacketEgress(
                switch_id="s", time=t, packet=ethernet(src, dst), out_port=2,
                in_port=1, action=EgressAction.UNICAST)
        pairs = [(1, 2), (3, 4), (5, 6), (1, 2), (7, 8), (2, 9), (3, 5),
                 (9, 1), (4, 7), (5, 6), (6, 3), (8, 2)]
        events = [arrival(s, d, 0.1 * (n + 1)) for n, (s, d) in enumerate(pairs)]
        events.append(egress(2, 8, 1.5))  # (8, 2) moves on to stage c
        events.append(PacketDrop(switch_id="s", time=1.6, in_port=1,
                                 packet=ethernet(1, 9)))  # cancels S == 9
        events += [arrival(s, d, 1.7 + 0.1 * n)
                   for n, (s, d) in enumerate([(1, 3), (4, 4), (2, 6)])]
        events.append(egress(8, 5, 2.1))  # (8, 2) completes: a violation
        return events

    @pytest.mark.parametrize("eviction", EVICTION_POLICIES)
    def test_index_follows_the_monitor_lifecycle(self, eviction):
        monitor = Monitor(degradation=DegradationPolicy(
            max_instances=4, eviction=eviction))
        monitor.add_property(cancel_prop())
        store = monitor.store("cp")
        for event in self._events():
            monitor.observe(event)
            check_index_invariant(store)
        assert monitor.stats.instances_cancelled > 0
        assert monitor.stats.refreshes > 0
        assert (monitor.stats.instances_evicted
                + monitor.stats.instances_rejected) > 0
        assert any(unless_contents(store).values())
        monitor.advance_to(1000.0)  # stage b expires; stage c waits forever
        check_index_invariant(store)
        for inst in list(store.all()):
            store.remove(inst)
        assert not any(unless_contents(store).values())

    def test_restored_monitor_probes_like_the_original(self):
        """A restore re-adds instances in export (key-map) order, which a
        refresh can make differ from the exporter's stage order — for the
        scan as much as for the index; here the one refreshed instance is
        cancelled before the checkpoint, so even the order carries over."""
        events = self._events()
        original, restored = Monitor(), Monitor()
        applied = []
        for monitor in (original, restored):
            monitor.add_property(cancel_prop())
            applied.append(record_applied(monitor))
        for event in events[:9]:
            original.observe(event)
        restored.restore_state(original.export_state())
        already = len(original.violations)
        check_index_invariant(restored.store("cp"))
        assert (unless_contents(restored.store("cp"))
                == unless_contents(original.store("cp")))
        for event in events[9:]:
            for monitor, ops in zip((original, restored), applied):
                ops.clear()
                monitor.observe(event)
            assert applied[0] == applied[1]
        assert applied[0]  # the last event advances (8, 2) to completion
        assert len(original.violations) > already
        assert ([(v.time, v.bindings) for v in restored.violations]
                == [(v.time, v.bindings)
                    for v in original.violations[already:]])


class TestFieldClassification:
    @pytest.mark.parametrize(
        "field,layer",
        [
            ("eth.src", 2), ("vlan.vid", 2), ("arp.op", 3), ("ipv4.dst", 3),
            ("tcp.src", 4), ("udp.dst", 4), ("icmp.type", 4),
            ("dhcp.yiaddr", 7), ("ftp.data_port", 7), ("in_port", 2),
        ],
    )
    def test_field_layer(self, field, layer):
        assert field_layer(field) == layer

    @pytest.mark.parametrize(
        "field,family",
        [
            ("eth.src", "l2"), ("arp.target_ip", "arp"), ("ipv4.src", "inet"),
            ("tcp.dst", "inet"), ("ftp.data_port", "inet"),
            ("dhcp.yiaddr", "dhcp"), ("out_port", "meta"), ("uid", "meta"),
        ],
    )
    def test_field_family(self, field, family):
        assert field_family(field) == family


class TestAnalysis:
    def test_firewall_basic(self):
        req = analyze(load_property("firewall-basic"))
        assert req.history and not req.timeouts and not req.obligation
        assert req.match_kind is MatchKind.SYMMETRIC
        assert req.drop_visibility
        assert req.max_layer == 3

    def test_firewall_timed_adds_timeouts(self):
        assert analyze(load_property("firewall-timed")).timeouts

    def test_firewall_with_close_adds_obligation(self):
        req = analyze(load_property("firewall-with-close"))
        assert req.obligation and req.timeouts

    def test_nat_property(self):
        req = analyze(load_property("nat-reverse-translation"))
        assert req.identity
        assert req.negative_match
        assert req.match_kind is MatchKind.SYMMETRIC
        assert req.max_layer == 4

    def test_learning_switch_negmatch_on_metadata(self):
        req = analyze(load_property("learned-unicast-port"))
        assert req.negative_match
        assert req.max_layer == 2

    def test_link_down_property_is_multiple_match(self):
        req = analyze(load_property("link-down-clears-learning"))
        assert req.multiple_match
        assert req.out_of_band

    def test_non_oob_props_not_multiple(self):
        assert not analyze(load_property("firewall-basic")).multiple_match

    def test_table1_rows_all_match_paper(self):
        entries = build_table1()
        assert len(entries) == 13
        for entry in entries:
            assert entry.matches_paper(), (
                f"{entry.description}: computed {entry.computed_row()}, "
                f"paper says {entry.expected_row}"
            )

    def test_no_unfounded_reply_row_survives_structured_unless(self):
        """Its lease-ACK unless is the structured ``dhcp.yiaddr == $ip``
        the store can hash; the wandering-match cell still comes from the
        stage-0 predicate's history fields."""
        (entry,) = [e for e in build_table1()
                    if e.prop.name == "no-unfounded-reply"]
        ack, reply = entry.prop.stages[1].unless
        assert ack.env_guards() == (("dhcp.yiaddr", "ip"),)
        assert reply.env_guards() == (("arp.sender_ip", "ip"),)
        assert analyze(entry.prop).match_kind is MatchKind.WANDERING
        assert entry.matches_paper()

    def test_table1_groups(self):
        groups = [e.group for e in build_table1()]
        assert groups.count("ARP Cache Proxy") == 2
        assert groups.count("Port Knocking") == 2
        assert groups.count("Load Balancing") == 3
        assert groups.count("FTP") == 1
        assert groups.count("DHCP") == 3
        assert groups.count("DHCP + ARP Proxy") == 2

    def test_match_kind_override_respected(self):
        assert classify_match_kind(
            load_property("dhcp-no-overlap")) is MatchKind.SYMMETRIC

    def test_table1_render(self):
        from repro.props import render_table1

        text = render_table1()
        assert "wandering" in text and "[OK ]" in text and "DIFF" not in text
