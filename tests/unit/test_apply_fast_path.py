"""Structural guard on the op-apply fast path — counts, not timing.

A fabric shard's monitor over keyed flow traffic is mostly stage-0
refreshes.  Two things keep them cheap, and both are counted here on a
``build_shard_monitor`` fed every event of a two-shard split (so half of
the keys belong to the other shard):

* the ownership predicate is asked only on the create branch — never for
  a key that already has a live instance in that property's store, which
  exists only because the predicate admitted it;
* a refresh of a flow property, whose index plan reads key variables only,
  moves its instance in place and builds no index key;
* the six properties share one stage-0 key per event (one create group),
  and the ownership predicate keeps its last keyed answer, so a key is
  hashed once per event however many of the six ask about it.

That the fast path changes no op, counter or violation is the
differential lattice's ``flows`` case (``test_lattice.py``), under a key
filter and in a partition.  Last, a backend's ``StateCostMeter`` is
charged once per applied op, on catalog traffic, whether ``_apply`` or
the generated program applied it.
"""

from collections import Counter

import pytest

import repro.fabric.routing

from repro.core import Monitor
from repro.fabric.routing import build_routes
from repro.fabric.shard import build_shard_monitor
from repro.faults.rounds import catalog_trace
from repro.props.catalog import build_table1
from repro.switch.registers import StateCostMeter
from tests.workloads import flow_events, flow_props


@pytest.fixture(scope="module")
def shard_run():
    """Shard 0 of 2 over every event, with the key filter, the op leaves,
    each store index's key getter and the partition hash wrapped to
    count."""
    props = flow_props()
    monitor = build_shard_monitor(props, 0, 2, build_routes(props, 2))
    owns = monitor.key_filter
    asked_with_live = []
    asked_keys = []  # held, so that no two asked keys share an id

    def key_filter(name, key):
        existing = monitor.store(name).by_key(key)
        asked_with_live.append(existing is not None and existing.alive)
        asked_keys.append(key)
        return owns(name, key)

    monitor.key_filter = key_filter
    applying = [None]

    def tagging(kind, leaf):
        def tagged(*args):
            applying[0] = kind
            leaf(*args)
            applying[0] = None
        return tagged

    # the generated program refreshes and creates through these leaves,
    # bound when it is built: the shard's build did that, so it is
    # dropped and rebuilt over the wrapped ones
    monitor._create = tagging("create", monitor._create)
    monitor._refresh = tagging("refresh", monitor._refresh)
    monitor._apply_advance = tagging("advance", monitor._apply_advance)
    monitor._apply_kill = tagging("kill", monitor._apply_kill)
    monitor._codegen_program = None
    keyed_by_op = Counter()

    def counting(key_of):
        def counted(env):
            keyed_by_op[applying[0]] += 1
            return key_of(env)
        return counted

    # every index key is built by its index's key getter
    for prop in props:
        store = monitor.store(prop.name)
        store._indexes = {
            stage: tuple((pattern, index, counting(key_of))
                         for pattern, index, key_of in indexes)
            for stage, indexes in store._indexes.items()}
    hashed = []
    stable_hash = repro.fabric.routing.stable_hash

    def counting_hash(key):
        hashed.append(key)
        return stable_hash(key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.fabric.routing, "stable_hash", counting_hash)
        monitor.observe_batch(flow_events())
    return monitor, asked_with_live, keyed_by_op, asked_keys, hashed


def test_key_filter_is_never_asked_about_a_live_key(shard_run):
    _, asked_with_live, *_ = shard_run
    assert asked_with_live  # the create branch did ask
    assert not any(asked_with_live)


def test_a_refresh_builds_no_index_key(shard_run):
    monitor, _, keyed_by_op, *_ = shard_run
    assert monitor.stats.refreshes > 0
    assert keyed_by_op == {"create": monitor.stats.instances_created}


def test_a_key_is_hashed_once_per_event(shard_run):
    """The create branch hashes once per key it is asked about, not once
    per property asking: the six properties of the create group hand the
    filter one key object, and it answers the repeats from its memo.  So
    the keys this shard owns are hashed about a sixth as often as
    instances are created (one property's instance, dead after its
    violation, is re-created alone)."""
    monitor, _, _, asked_keys, hashed = shard_run
    assert [id(key) for key in hashed] == list(
        {id(key): key for key in asked_keys})
    assert len(asked_keys) > 5 * len(hashed)
    owned = [key for key in hashed
             if repro.fabric.routing.stable_hash(key) % 2 == 0]
    created = monitor.stats.instances_created
    assert 5 * len(owned) < created <= 6 * len(owned)


@pytest.mark.parametrize("slow_path", [False, True])
def test_meter_charges_every_applied_op_once(slow_path):
    """A backend's ``StateCostMeter`` is charged once per applied op,
    whether ``_apply`` applied it or the generated INLINE program
    refreshed or created in place: on catalog traffic the generated
    monitor charges what the interpreted walk charges, on the path the
    backend asked for, and exactly ``ops_applied`` updates."""
    events = catalog_trace(seed=7, num_events=1500)
    charged = {}
    for match in ("compiled", "interpreted"):
        meter = StateCostMeter()
        monitor = Monitor(match_strategy=match, meter=meter,
                          slow_path_updates=slow_path)
        for entry in build_table1():
            monitor.add_property(entry.prop)
        monitor.observe_batch(events)
        updates = (meter.fast_updates, meter.slow_updates)
        ops = monitor.stats.ops_applied
        assert updates == ((0, ops) if slow_path else (ops, 0))
        charged[match] = updates
    assert charged["compiled"] == charged["interpreted"]
    assert sum(charged["compiled"]) > 0
