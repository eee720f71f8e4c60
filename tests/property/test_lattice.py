"""The differential lattice: every execution configuration against the
reference walk.

A monitor's verdict must not depend on how it runs.  Each example draws
a property set, a stream for it and one configuration, runs the
configuration, and holds it to the oracle: the reference walk
(``Monitor(match_strategy="interpreted")``, :mod:`repro.core.reference`)
fed with ``observe`` one event at a time.

The configuration has two parts.  Its *semantic settings* — parse depth,
provenance level, a capped store with its eviction policy, a two-way key
filter, SPLIT at a lag above 0 behind a seeded lossy control channel —
change what the monitor reports, so the oracle gets them too.  Its
*axes* must not show, so only the tested monitor gets them:

* evaluator: the generated program, or the reference walk itself;
* mode: INLINE, or SPLIT at lag 0 against the INLINE oracle;
* entry: ``observe``; ``observe_batch`` at a drawn batch size; the
  events through the RPF2 codec or the JSONL codec; or the key
  partition of :mod:`tests.partition` at N in {1, 2, 3} (where no cap,
  key filter or op fault is set);
* telemetry: a ``MetricsRegistry`` and a ``Tracer``, or neither.

It compares the violations (fingerprint, history depth and whether a
packet triggered it) in emission order; every ``MonitorStats`` counter;
the overflow ledger's counts; the gauge peaks where the tested monitor
runs in the oracle's mode; and the applied-op sequence wherever one
monitor runs in the oracle's mode, because op order feeds the seeded
control-channel faults.  A partition is held to the same violations in
any order (see ``UNORDERED``).

The generated program probes the instance store's hash indexes and the
reference walk scans each stage's population, so every example also
holds the indexes to a scan.  The forked fabric is compared on fixed
workloads in ``tests/integration/test_fabric_differential.py``: a fork
per example would cost more than the whole lattice.  Nor is there a
checkpoint entry: a checkpoint is a forked copy of the process, which
translates no state that a configuration could get wrong; what is
built around it — promotion and the journal replay — is the fault
machine's (``tests/property/test_fault_machine.py``).
"""

import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Monitor
from repro.core.degradation import EVICTION_POLICIES, DegradationPolicy
from repro.core.monitor import MonitorStats
from repro.core.provenance import ProvenanceLevel
from repro.fabric import Router, build_routes
from repro.faults.profiles import ControlFaultProfile
from repro.faults.rounds import catalog_trace, fingerprint
from repro.netsim.serialize import decode_frames, encode_frames, event_to_dict
from repro.props import build_table1
from repro.serve.ingest import parse_frame
from repro.switch.switch import ProcessingMode
from repro.telemetry import MetricsRegistry, Tracer
from tests.applied_ops import record_applied
from tests.partition import Partitioned
from tests.workloads import (
    ADVANCE_THEN_CREATE,
    HALF_THE_KEYS,
    PUSHED_ACROSS_STORES,
    REFRESH_STORM,
    REFRESHED_BEFORE_THE_CUT,
    REORDERED_DOUBLE_HIT,
    TIED_CREATIONS,
    cancel_prop,
    event_streams,
    flow_events,
    flow_props,
    keyed_refresh_props,
    probe_catalog,
    timed_pair_props,
)

CATALOG = [entry.prop for entry in build_table1()]
_ROUTES = build_routes(CATALOG, 2)

#: property set -> its properties (built once: specs are immutable)
PROPERTY_SETS = {
    "probe": probe_catalog(),
    "catalog": CATALOG,
    # A shard registers every keyed property and only the pinned ones
    # pinned to it; a "catalog" partition draws that registration whole.
    # But at 2 and 3 shards the catalog's pins cover every shard and
    # watch every class but PacketDrop, so those events reach every
    # shard whatever their keys: only the keyed properties on their own
    # let a partition show where the router sends a keyed event.
    "keyed-catalog": [p for p in CATALOG if _ROUTES[p.name].keyed],
    "flows": flow_props(),
    "cancel": [cancel_prop()],
    "keyed-refresh": keyed_refresh_props(),
    "timed-pair": timed_pair_props(),
}

#: property sets drawn as slices of one fixed trace; the others draw
#: their own stream
CATALOG_TRACE = catalog_trace(seed=7, num_events=1500)
TRACES = {
    "catalog": CATALOG_TRACE,
    "keyed-catalog": CATALOG_TRACE,
    "flows": flow_events(flows=8, num_events=1000),
}

#: quiet time after the last event: enough for every window to close
SETTLE = {"catalog": 600.0, "keyed-catalog": 600.0}

#: entries whose order of same-instant work is not the oracle's: a
#: partition merges its shards' violations in its own order.  It draws
#: no lossy control channel, whose drops follow op order.
UNORDERED = ("partition",)

COUNTERS = tuple(MonitorStats._COUNTERS)
GAUGES = tuple(MonitorStats._GAUGES)


@dataclass(frozen=True)
class Case:
    """One property set, one stream and one configuration."""

    props: str
    #: a drawn stream, or ``(start, stop)`` into the property set's trace
    stream: object
    # -- semantic settings: the oracle's too ---------------------------------
    max_layer: int = 7
    provenance: ProvenanceLevel = ProvenanceLevel.LIMITED
    #: ``(max_instances, eviction)`` per property store, or unbounded
    cap: Optional[Tuple[int, str]] = None
    key_filter: bool = False
    #: ``(lag, fault seed or None)``: SPLIT at that lag behind a seeded
    #: lossy control channel (or a perfect one), or INLINE
    split: Optional[Tuple[float, Optional[int]]] = None
    # -- axes: the tested monitor's only --------------------------------------
    evaluator: str = "compiled"
    #: SPLIT at lag 0 against an INLINE oracle
    lag0: bool = False
    #: ``("observe",)``, ``("batch", size)``, ``("rpf2",)``,
    #: ``("jsonl",)`` or ``("partition", shards)``
    entry: Tuple = ("observe",)
    telemetry: bool = False

    @property
    def events(self):
        trace = TRACES.get(self.props)
        return self.stream if trace is None else trace[slice(*self.stream)]

    def semantic_kwargs(self):
        """The settings both monitors run under; a fresh control channel
        on every call, each from the same seed."""
        kwargs = dict(max_layer=self.max_layer, provenance=self.provenance)
        if self.cap is not None:
            max_instances, eviction = self.cap
            kwargs["degradation"] = DegradationPolicy(
                max_instances=max_instances, eviction=eviction)
        if self.key_filter:
            kwargs["key_filter"] = HALF_THE_KEYS
        if self.split is not None:
            lag, seed = self.split
            kwargs.update(mode=ProcessingMode.SPLIT, split_lag=lag)
            if seed is not None:
                kwargs["op_faults"] = ControlFaultProfile(
                    drop=0.3, extra_lag=0.01, jitter=0.05,
                    seed=seed).channel()
        return kwargs

    def tested_kwargs(self):
        kwargs = self.semantic_kwargs()
        kwargs["match_strategy"] = self.evaluator
        if self.lag0:
            kwargs.update(mode=ProcessingMode.SPLIT, split_lag=0.0)
        if self.telemetry:
            kwargs.update(registry=MetricsRegistry(), tracer=Tracer())
        return kwargs


@st.composite
def cases(draw):
    props = draw(st.sampled_from(sorted(PROPERTY_SETS)))
    trace = TRACES.get(props)
    if trace is None:
        stream = draw(event_streams(max_events=40))
        n = len(stream)
    else:
        n = draw(st.integers(1, 300))
        start = draw(st.integers(0, len(trace) - n))
        stream = (start, start + n)
    kind = draw(st.sampled_from(
        ("observe", "partition", "batch", "rpf2", "jsonl")))
    arg = {"batch": st.integers(1, 64),
           "partition": st.integers(1, 3)}.get(kind)
    entry = (kind,) if arg is None else (kind, draw(arg))
    partition = kind == "partition"
    no = st.just(None)
    cap = draw(no if partition else no | st.tuples(
        st.integers(1, 6), st.sampled_from(EVICTION_POLICIES)))
    faults = no if kind in UNORDERED else no | st.integers(0, 3)
    split = draw(no | st.tuples(st.floats(0.001, 0.5), faults))
    return Case(
        props=props, stream=stream,
        max_layer=draw(st.sampled_from((3, 4, 7))),
        provenance=draw(st.sampled_from(list(ProvenanceLevel))),
        cap=cap, key_filter=not partition and draw(st.booleans()),
        split=split,
        evaluator=draw(st.sampled_from(("compiled", "interpreted"))),
        lag0=split is None and draw(st.booleans()),
        entry=entry,
        telemetry=draw(st.booleans()),
    )


def new_monitor(case, **kwargs):
    monitor = Monitor(**kwargs)
    for prop in PROPERTY_SETS[case.props]:
        monitor.add_property(prop)
    return monitor


def settle(case, monitor):
    events = case.events
    monitor.advance_to(events[-1].time + SETTLE.get(case.props, 100.0))


def verdicts(found):
    return [
        print_ + (len(v.history), v.trigger is None)
        for print_, v in zip(fingerprint(found), found)]


def run_oracle(case):
    monitor = new_monitor(case, match_strategy="interpreted",
                          **case.semantic_kwargs())
    applied = record_applied(monitor)
    for event in case.events:
        monitor.observe(event)
    settle(case, monitor)
    return monitor, applied


def run_tested(case):
    """``(violations, counter reader, ledger counts, monitor, applied
    ops)`` of the tested configuration; a partition is no one monitor
    and has no one op sequence, so its last two are None."""
    events = case.events
    kind, *arg = case.entry
    if kind == "partition":
        partitioned = Partitioned(PROPERTY_SETS[case.props], arg[0],
                                  case.tested_kwargs)
        partitioned.observe_batch(events)
        settle(case, partitioned)
        ledger = Counter()
        for shard in partitioned.shards:
            ledger.update(shard.ledger.counts)
        return (partitioned.violations, partitioned.counter, dict(ledger),
                None, None)
    monitor = new_monitor(case, **case.tested_kwargs())
    applied = record_applied(monitor)
    if kind == "observe":
        for event in events:
            monitor.observe(event)
    elif kind == "batch":
        for i in range(0, len(events), arg[0]):
            monitor.observe_batch(events[i:i + arg[0]])
    elif kind == "rpf2":
        monitor.observe_batch(decode_frames(encode_frames(events)))
    else:
        monitor.observe_batch([
            parse_frame(json.dumps(event_to_dict(event)).encode())
            for event in events])
    settle(case, monitor)
    return (monitor.violations, lambda name: getattr(monitor.stats, name),
            dict(monitor.ledger.counts), monitor, applied)


def check(case):
    oracle, oracle_applied = run_oracle(case)
    found, counter, ledger, monitor, applied = run_tested(case)
    expected = verdicts(oracle.violations)
    if case.entry[0] not in UNORDERED:
        assert verdicts(found) == expected
    else:
        assert sorted(verdicts(found)) == sorted(expected)
    assert {name: counter(name) for name in COUNTERS} \
        == {name: getattr(oracle.stats, name) for name in COUNTERS}
    assert ledger == dict(oracle.ledger.counts)
    if monitor is not None and not case.lag0:
        assert {name: getattr(monitor.stats, name) for name in GAUGES} \
            == {name: getattr(oracle.stats, name) for name in GAUGES}
        assert applied == oracle_applied


@settings(max_examples=300, deadline=None)
@given(cases())
@example(Case("cancel", REORDERED_DOUBLE_HIT))
@example(Case("cancel", REORDERED_DOUBLE_HIT, split=(0.02, 0)))
@example(Case("keyed-refresh", REFRESH_STORM, key_filter=True))
@example(Case("keyed-refresh", REFRESH_STORM, key_filter=True,
              split=(0.02, 1)))
@example(Case("timed-pair", ADVANCE_THEN_CREATE, entry=("batch", 2)))
@example(Case("probe", REFRESHED_BEFORE_THE_CUT, max_layer=3,
              entry=("batch", 5)))
@example(Case("timed-pair", PUSHED_ACROSS_STORES, entry=("batch", 3)))
@example(Case("timed-pair", TIED_CREATIONS, cap=(3, "evict-oldest"),
              entry=("batch", 3)))
def test_configuration_matches_the_reference(case):
    check(case)


def test_the_partition_entry_reaches_both_routing_branches():
    """``Router.split`` sends an event of a class that only pinned
    properties watch to their pins, reading no key, and any other event
    to its keys' shards as well.  The partition entry's property sets
    reach both branches at every drawn shard count: the catalog sets
    only the keyed one (no catalog class is watched by pins alone), the
    drawn-stream sets with pinned properties the other."""
    for num_shards in (1, 2, 3):
        branches = {}
        for name, props in PROPERTY_SETS.items():
            plan = Router(build_routes(props, num_shards), num_shards)._plan
            for _, load, _ in plan.values():
                branch = "pins only" if load is None else "keyed"
                branches.setdefault(branch, set()).add(name)
        assert {"catalog", "keyed-catalog", "flows"} <= branches["keyed"]
        assert {"probe", "cancel", "keyed-refresh"} \
            <= branches["pins only"]
        assert not {"catalog", "keyed-catalog"} & branches["pins only"]


def test_the_reference_keeps_the_pinned_orders():
    """What the hand-made streams pin, read off the oracle: the scan
    cancels in stage-entry order, a refresh storm refreshes more than it
    creates, and equal deadlines fire in the order their ops applied."""
    _, applied = run_oracle(Case("cancel", REORDERED_DOUBLE_HIT))
    kills = [key for kind, _, key, _ in applied if kind == "kill"]
    assert [tuple(map(int, key)) for key in kills] == [(3, 4), (1, 2)]

    _, applied = run_oracle(
        Case("keyed-refresh", REFRESH_STORM, key_filter=True))
    kinds = [kind for kind, *_ in applied]
    assert kinds.count("refresh") > kinds.count("create") > 0

    oracle, applied = run_oracle(Case("timed-pair", ADVANCE_THEN_CREATE))
    assert [(kind, name, tuple(map(int, key)), reason)
            for kind, name, key, reason in applied[2:]] == [
        ("advance", "advancer", (1,), ""),
        ("create", "advancer", (2,), ""),
        ("create", "waiter", (2,), ""),
    ]
    assert [(v.property_name, v.time) for v in oracle.violations] == [
        ("waiter", 1.1), ("advancer", 1.5), ("waiter", 1.5)]
