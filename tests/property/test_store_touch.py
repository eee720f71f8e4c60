"""``InstanceStore.touch`` is ``reindex`` without the re-keying.

Twin stores over one property take the same random add / advance /
refresh / remove sequence; a refresh is ``touch`` on one twin and
``reindex`` on the other.  After every step both must iterate the same
instances in the same order: each stage population and each bucket of
each index — advance and ``unless`` alike; an index is only ever probed
by key, never iterated, so the order of its keys is not compared — and
they must carry the same ``stage_entry`` stamps, which order merged
``unless`` hits.
A refresh re-binds stage 0's variables: key variables to equal values
(that is what found the instance), every other one — and the stage-0
packet uid — to fresh ones.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Bind,
    EventKind,
    EventPattern,
    FieldEq,
    Observe,
    PropertySpec,
    Var,
)
from repro.core.instances import Instance, InstanceStore, uid_var
from tests.workloads import cancel_prop, flow_props, ident_prop


def flow_prop(i):
    """The benchmark's keyed flow shape: the stage-1 plan reads the key."""
    return flow_props()[i]


def loose_unless_prop():
    """Keyed on S; stage 1's ``unless`` hashes on D, which a refresh may
    re-bind."""
    return PropertySpec(
        name="loose", description="",
        stages=(
            Observe("a", EventPattern(
                kind=EventKind.ARRIVAL,
                binds=(Bind("S", "eth.src"), Bind("D", "eth.dst")))),
            Observe("b", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.dst", Var("S")),)),
                unless=(EventPattern(kind=EventKind.ARRIVAL, guards=(
                    FieldEq("eth.src", Var("D")),)),)),
            Observe("c", EventPattern(
                kind=EventKind.EGRESS,
                guards=(FieldEq("eth.src", Var("D")),))),
        ),
        key_vars=("S",),
    )


PROPS = {
    **{f"flow-{i}": (lambda i=i: flow_prop(i)) for i in range(6)},
    "cancelly": cancel_prop,
    "samepacket": ident_prop,
    "loose-unless": loose_unless_prop,
}

#: (op, which live instance / key, fresh value)
steps = st.lists(
    st.tuples(st.sampled_from(("add", "advance", "refresh", "remove")),
              st.integers(0, 5), st.integers(0, 3)),
    max_size=60)


def key_of(prop, pick):
    """One of six keys; two-variable keys share components, so index and
    ``unless`` buckets hold several instances."""
    if len(prop.key_vars) == 1:
        return (f"k{pick}",)
    return (f"k{pick % 3}", f"k{pick // 3}")


def stage0_env(prop, key, value, uid):
    stage0 = prop.stages[0]
    env = dict(zip(prop.key_vars, key))
    for bind in stage0.pattern.binds:
        env.setdefault(bind.var, value)
    env[uid_var(stage0.name)] = uid
    return env


def layout(store):
    """Everything whose order a refresh could disturb, by instance key."""
    keys = lambda bucket: [inst.key for inst in bucket.values()]  # noqa: E731
    return {
        "stages": {i: keys(pop) for i, pop in store._stage_pop.items()},
        "indexes": {(i, n): {k: keys(b) for k, b in index.items()}
                    for i, indexes in store._indexes.items()
                    for n, (_, index, _) in enumerate(indexes)},
        "entries": sorted((inst.key, inst.stage_entry)
                          for inst in store.all()),
    }


@pytest.mark.parametrize("name", sorted(PROPS))
@settings(max_examples=60, deadline=None)
@given(steps)
# Two keys sharing S, then a refresh of the first: it must go behind the
# second in the bucket they share.
@example(script=[("add", 0, 0), ("add", 3, 0), ("refresh", 0, 1)])
def test_touch_orders_like_reindex(name, script):
    prop = PROPS[name]()
    touched, reindexed = InstanceStore(prop), InstanceStore(prop)
    twins = {}  # key -> (instance in touched, instance in reindexed)
    uids = iter(range(10**6))
    for op, pick, value in script:
        live = sorted(twins)
        if op == "add":
            key = key_of(prop, pick)
            if key in twins:
                continue
            env = stage0_env(prop, key, value, next(uids))
            pair = tuple(Instance(prop, key, dict(env), created_at=0.0)
                         for _ in range(2))
            touched.add(pair[0])
            reindexed.add(pair[1])
            twins[key] = pair
            continue
        if not live:
            continue
        key = live[pick % len(live)]
        a, b = twins[key]
        if op == "remove":
            touched.remove(a)
            reindexed.remove(b)
            del twins[key]
        elif op == "refresh" and a.stage == 1:
            env = stage0_env(prop, key, value, next(uids))
            a.env.update(env)
            b.env.update(env)
            touched.touch(a)
            reindexed.reindex(b, 1)
        elif op == "advance":
            binds = {uid_var(prop.stages[a.stage].name): next(uids)}
            for inst, store in ((a, touched), (b, reindexed)):
                inst.env.update(binds)
                inst.stage += 1
                if inst.complete:
                    store.remove(inst)
                else:
                    store.reindex(inst, inst.stage - 1)
            if a.complete:
                del twins[key]
        assert layout(touched) == layout(reindexed)


def test_fast_path_only_where_no_index_reads_a_non_key_variable():
    assert InstanceStore(flow_prop(0))._touch_in_place == {1}
    assert InstanceStore(cancel_prop())._touch_in_place == {1, 2}
    assert InstanceStore(ident_prop())._touch_in_place == set()
    assert InstanceStore(loose_unless_prop())._touch_in_place == set()
