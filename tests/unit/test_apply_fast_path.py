"""Structural guard on the op-apply fast path — counts, not timing.

A fabric shard's monitor over keyed flow traffic is mostly stage-0
refreshes.  Two things keep them cheap, and both are counted here on a
``build_shard_monitor`` fed every event of a two-shard split (so half of
the keys belong to the other shard):

* the ownership predicate is asked only on the create branch — never for
  a key that already has a live instance in that property's store, which
  exists only because the predicate admitted it;
* a refresh of a flow property, whose index plan reads key variables only,
  moves its instance in place and builds no index key.

The counters and violations are held to the interpreted reference walk
under the same key filter: the fast path changes no op.
"""

import random
from collections import Counter

import pytest

from repro.core import (
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldEq,
    Observe,
    PropertySpec,
    Var,
)
from repro.fabric.routing import build_routes
from repro.fabric.shard import build_shard_monitor
from repro.packet import tcp_packet
from repro.switch.events import EgressAction, PacketArrival, PacketEgress

FLOWS = 256
EVENTS = 2000


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


def flow_events():
    """Arrivals (60 %) and egresses over ``FLOWS`` flows; one flow in 16
    aims at a port some property waits for."""
    packets = [
        tcp_packet(i % 8, (i + 1) % 8, f"10.0.{i}.1", "198.51.100.9",
                   1024 + i, 80 if i % 16 else 1 + (i // 16) % 6)
        for i in range(FLOWS)
    ]
    rng = random.Random(5)
    events = []
    for n in range(EVENTS):
        packet, t = packets[rng.randrange(FLOWS)], 1.0 + n * 1e-4
        if rng.random() < 0.6:
            events.append(PacketArrival(
                switch_id="s", time=t, packet=packet, in_port=1))
        else:
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packet, in_port=1,
                out_port=2, action=EgressAction.UNICAST))
    return events


@pytest.fixture(scope="module")
def shard_run():
    """Shard 0 of 2 over every event, with the key filter, the op hook
    and each store's index-key builder wrapped to count."""
    props = flow_props()
    monitor = build_shard_monitor(props, 0, 2, build_routes(props, 2))
    owns = monitor.key_filter
    asked_with_live = []

    def key_filter(name, key):
        existing = monitor.store(name).by_key(key)
        asked_with_live.append(existing is not None and existing.alive)
        return owns(name, key)

    monitor.key_filter = key_filter
    applying = [None]
    apply_op = monitor._apply

    def recording_apply(op):
        applying[0] = op.kind
        apply_op(op)
        applying[0] = None

    monitor._apply = recording_apply
    keyed_by_op = Counter()
    for prop in props:
        store = monitor.store(prop.name)

        def counting(instance, _index_key=store._instance_index_key):
            keyed_by_op[applying[0]] += 1
            return _index_key(instance)

        store._instance_index_key = counting
    monitor.observe_batch(flow_events())
    return monitor, asked_with_live, keyed_by_op


def test_key_filter_is_never_asked_about_a_live_key(shard_run):
    _, asked_with_live, _ = shard_run
    assert asked_with_live  # the create branch did ask
    assert not any(asked_with_live)


def test_a_refresh_builds_no_index_key(shard_run):
    monitor, _, keyed_by_op = shard_run
    assert monitor.stats.refreshes > 0
    assert keyed_by_op == {"create": monitor.stats.instances_created}


def test_ops_and_violations_are_the_parents(shard_run):
    """The same shard, run by the interpreted reference walk under the
    same key filter, plans and applies the same ops and raises the same
    violations."""
    monitor, _, _ = shard_run
    props = flow_props()
    reference = build_shard_monitor(
        props, 0, 2, build_routes(props, 2),
        {"match_strategy": "interpreted"})
    reference.observe_batch(flow_events())

    def observed(m):
        return ((m.stats.ops_applied, m.stats.instances_created,
                 m.stats.refreshes),
                Counter(v.property_name for v in m.violations))

    counts, violations = observed(reference)
    assert counts[1] and counts[2] and sum(violations.values())
    assert observed(monitor) == (counts, violations)
