"""Key-partitioned routing: which shard owns which monitor instance.

The paper's observation — and the blueprint paper's ("Relaxing
state-access constraints in stateful programmable data planes",
PAPERS.md) — is that keyed monitor state needs no synchronization when
every event for a key lands on the same executor.  This module derives
that placement statically from the compiler's dispatch plans:

* A property is **keyed** when, for every event class it watches, every
  watcher fully determines the property's key tuple from the event's own
  fields — stage-0 creates via their binds (``key_vars`` is always a
  subset of stage-0 binds, enforced by ``PropertySpec``), later stages
  via ``FieldEq(field, Var)`` guards (``EventPattern.env_guards``).
  Events then route by ``stable_hash(key) % num_shards``: an integer
  hash of the key's values, so the parent and every forked worker place
  a key on the same shard in every run.
* Any gap — an unless scan, a stage matching on fewer than all key
  variables, an empty key — makes the property **pinned**: all of its
  events go to one deterministic shard and its instances never span
  shards.  Pinned properties lose parallelism, never correctness.

The :class:`Router` folds every property's route into one per-event-class
plan, so splitting a batch costs at most one field-loader call per event
— a :func:`~repro.core.refs.field_loader` over the union of the class's
key fields, so nothing but key fields is read, and nothing at all for a
class that only pinned properties watch — plus one :func:`stable_hash`
per distinct extractor: no per-property dispatch and no field map.
The partition only has to be deterministic (the blueprint paper's point
is which events share state, not how keys are spelled), so the hash
multiplies the key's integer values rather than formatting them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type)

from ..core.compile import Watcher, dispatch_plan
from ..core.refs import MISSING, field_loader
from ..core.spec import PropertySpec
from ..switch.events import DataplaneEvent
from ..telemetry import MetricsRegistry, NullRegistry
from ..telemetry.metrics import COUNT_BUCKETS
from ..telemetry.tracing import FIB64, MASK64


def stable_hash(key: Tuple[object, ...]) -> int:
    """Deterministic 32-bit hash of a key tuple, stable across processes.

    ``hash()`` is salted per interpreter (PYTHONHASHSEED), so a
    partition built on it would move between runs, and between a router
    and any process it did not fork.  Instead each value folds in as an
    integer, by the Fibonacci multiply
    :func:`~repro.telemetry.tracing.uid_sampled` uses: ints, bools,
    IntEnums and addresses (which are integers underneath) as
    ``int(value)``; strings as the CRC32 of their UTF-8 bytes; anything
    with no ``int`` (``None``, a plain enum) as the CRC32 of its repr,
    which is deterministic for every key type a property binds.  Equal
    keys hash equal (``(True,)`` and ``(1,)`` alike).  The high half of
    the product is returned: a multiply mixes upward, so its low bits —
    which ``% num_shards`` would read — are the input's own.
    """
    h = 0
    for value in key:
        if isinstance(value, str):
            x = zlib.crc32(value.encode("utf-8"))
        else:
            try:
                x = int(value)
            except (TypeError, ValueError, OverflowError):
                x = zlib.crc32(repr(value).encode("utf-8"))
        h = (h ^ x) * FIB64 & MASK64
    return h >> 32


@dataclass(frozen=True)
class PropRoute:
    """Where one property's instances live.

    ``extractors`` (keyed properties only) maps each concrete event
    class to the deduplicated field tuples — in ``key_vars`` order —
    that recover the instance key from an event of that class.
    """

    prop_name: str
    keyed: bool
    #: shard owning ALL of this property's instances when not keyed
    pin: int
    extractors: Mapping[Type[DataplaneEvent], Tuple[Tuple[str, ...], ...]]
    #: every event class any watcher of this property reacts to
    classes: frozenset


def _watcher_key_fields(
    watcher: Watcher, key_vars: Sequence[str]
) -> Optional[Tuple[str, ...]]:
    """The event fields that carry the key for one watcher, or None.

    Creates bind the key variables directly; advance/discharge/unless
    stages only tie an event to an instance through ``field == Var``
    guards, so the key is recoverable exactly when every key variable
    appears in one.
    """
    if watcher.role == "create":
        mapping = {b.var: b.field for b in watcher.pattern.binds}
    else:
        mapping: Dict[str, str] = {}
        for fieldname, var in watcher.pattern.env_guards():
            mapping.setdefault(var, fieldname)
    try:
        return tuple(mapping[k] for k in key_vars)
    except KeyError:
        return None


def build_route(prop: PropertySpec, num_shards: int) -> PropRoute:
    """Analyze one property's dispatch plan into a :class:`PropRoute`."""
    pin = stable_hash((prop.name,)) % num_shards
    plan = dispatch_plan(prop)
    classes = frozenset(plan)
    if not prop.key_vars:
        return PropRoute(prop.name, False, pin, {}, classes)
    extractors: Dict[Type[DataplaneEvent], Tuple[Tuple[str, ...], ...]] = {}
    for cls, watchers in plan.items():
        fields_seen: List[Tuple[str, ...]] = []
        for watcher in watchers:
            key_fields = _watcher_key_fields(watcher, prop.key_vars)
            if key_fields is None:
                # One watcher that cannot name the key (an unless scan,
                # a partial-key stage) poisons the whole property: its
                # events must all see the full instance population.
                return PropRoute(prop.name, False, pin, {}, classes)
            if key_fields not in fields_seen:
                fields_seen.append(key_fields)
        extractors[cls] = tuple(fields_seen)
    return PropRoute(prop.name, True, pin, extractors, classes)


def build_routes(
    props: Iterable[PropertySpec], num_shards: int
) -> Dict[str, PropRoute]:
    return {p.name: build_route(p, num_shards) for p in props}


def shard_key_filter(routes, shard_idx, num_shards):
    """The ownership predicate one shard's :class:`Monitor` runs with.

    Installed as ``Monitor(key_filter=...)``: a routed event reaches
    every shard that *some* property needs it on, so each shard must
    refuse to create instances for keyed keys it does not own — without
    this, one event fanned out for property P would also seed property
    Q's instance on P's shard.  Only its pin registers a pinned property.

    A keyed answer depends on the key alone, and the generated program
    hands every property of one create group the same key tuple, so the
    last keyed answer is kept, matched by the key object's identity (the
    kept reference stops that id from being reused): a new flow's creates
    hash its key once, not once per property.  Pinned answers are a
    lookup already and are not kept.
    """
    keyed = frozenset(name for name, route in routes.items() if route.keyed)
    last_key: object = None
    last_owned = False

    def key_filter(prop_name: str, key: Tuple[object, ...]) -> bool:
        nonlocal last_key, last_owned
        if prop_name not in keyed:
            return True
        if key is not last_key:
            last_owned = stable_hash(key) % num_shards == shard_idx
            last_key = key
        return last_owned

    return key_filter


class Router:
    """Split event batches into per-shard sub-batches.

    One event can target several shards (different properties extract
    different keys from it); an event no property watches targets none.
    Routing loads each event's key fields once — nothing when its class
    has pins only — and reuses the per-class union of all properties'
    pins and extractors, each extractor held as the positions of its
    fields in the class's loader tuple.
    """

    def __init__(
        self,
        routes: Mapping[str, PropRoute],
        num_shards: int,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.routes = dict(routes)
        self.num_shards = num_shards
        registry = registry if registry is not None else NullRegistry()
        # Per event class: (static pin shards, deduped extractor tuples).
        plan: Dict[Type[DataplaneEvent],
                   Tuple[List[int], List[Tuple[str, ...]]]] = {}
        for route in self.routes.values():
            for cls in route.classes:
                pins, extractors = plan.setdefault(cls, ([], []))
                if route.keyed:
                    for key_fields in route.extractors[cls]:
                        if key_fields not in extractors:
                            extractors.append(key_fields)
                elif route.pin not in pins:
                    pins.append(route.pin)
        # Per event class: (pins, its key-field loader or None, each
        # extractor as positions in the loaded tuple).
        self._plan: Dict[Type[DataplaneEvent], Tuple[
            Tuple[int, ...], Optional[Callable],
            Tuple[Tuple[int, ...], ...]]] = {}
        for cls, (pins, extractors) in plan.items():
            names = list(dict.fromkeys(f for key in extractors for f in key))
            self._plan[cls] = (
                tuple(pins),
                field_loader(cls, names) if names else None,
                tuple(tuple(map(names.index, key)) for key in extractors))
        self.events_total = 0
        self.shard_events = [0] * num_shards
        self._c_events = registry.counter(
            "repro_fabric_router_events_total",
            help="Events offered to the fabric router")
        self._c_shard = [
            registry.counter(
                "repro_fabric_shard_events_total",
                help="Events forwarded to one shard",
                labels={"shard": str(i)})
            for i in range(num_shards)
        ]
        self._h_batch = [
            registry.histogram(
                "repro_fabric_shard_batch_events",
                help="Sub-batch sizes forwarded to one shard per split",
                labels={"shard": str(i)}, buckets=COUNT_BUCKETS)
            for i in range(num_shards)
        ]
        self._g_imbalance = registry.gauge(
            "repro_fabric_router_imbalance",
            help="Max over mean of cumulative per-shard event counts "
                 "(1.0 = perfectly balanced, 0 = no events yet)")

    def split(
        self, events: Sequence[DataplaneEvent]
    ) -> List[List[DataplaneEvent]]:
        batches: List[List[DataplaneEvent]] = [
            [] for _ in range(self.num_shards)
        ]
        plan = self._plan
        num_shards = self.num_shards
        for event in events:
            entry = plan.get(type(event))
            if entry is None:
                continue  # e.g. a replayed TimerFired: no watcher anywhere
            pins, load, extractors = entry
            if load is None:
                # Pinned properties only: no key to read off the event.
                for shard in pins:
                    batches[shard].append(event)
                continue
            values = load(event)
            targets = set(pins)
            for positions in extractors:
                key = tuple([values[i] for i in positions])
                for value in key:  # by identity: no address __eq__ runs
                    if value is MISSING:
                        break  # field absent: the guarded match would fail
                else:
                    targets.add(stable_hash(key) % num_shards)
            for shard in targets:
                batches[shard].append(event)
        self.events_total += len(events)
        self._c_events.inc(len(events))
        for idx, batch in enumerate(batches):
            if batch:
                self.shard_events[idx] += len(batch)
                self._c_shard[idx].inc(len(batch))
                self._h_batch[idx].observe(len(batch))
        total = sum(self.shard_events)
        if total:
            mean = total / self.num_shards
            self._g_imbalance.set(max(self.shard_events) / mean)
        return batches
