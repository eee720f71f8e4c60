"""Monitor instances and instance stores (Feature 8).

An *instance* is a partially completed attempt to witness a violation: the
values bound so far, plus the next observation stage to match (the paper's
definition in Sec. 2.4).  When an event arrives, the monitor must decide
which instances it advances — the instance-identification problem whose
variants (exact / symmetric / wandering / multiple match) Table 1
catalogues.

Two store implementations share one interface:

* :class:`IndexedInstanceStore` — builds, per stage, an *index plan* from
  the stage's variable-referencing equality guards (plus the packet-uid
  linkage of ``same_packet_as``), and hashes waiting instances by their
  bound values for those variables.  An event yields candidates by direct
  lookup.  Stages with no indexable guards (e.g. an out-of-band link-down,
  which must advance *every* instance — multiple match) fall back to
  scanning that stage's population.  The same treatment covers the
  cancel path: every ``unless`` pattern (Feature 4) with a
  ``field == $var`` guard gets its own hash index over the instances
  waiting at its stage (:func:`unless_index_plans`), so a cancelling
  event probes one bucket instead of walking the stage population; an
  ``unless`` with no such guard still scans.

* :class:`LinearInstanceStore` — always scans, advances and cancels
  alike.  It exists as the ablation baseline for
  ``benchmarks/bench_instance_index.py``, quantifying why instance
  identification is a switch-design axis and not a lookup detail, and as
  the oracle the differential suite holds the indexed store to.

Order is part of the contract.  The scan visits a stage's population in
stage-entry order (a refresh re-inserts, so this is not instance-id
order) and cancels are emitted in the order visited; op order feeds the
seeded per-op control-channel faults in SPLIT mode.  Every bucket is an
insertion-ordered dict re-inserted at the same moments as the stage
population, so one bucket iterates in scan order, and
:func:`merge_by_stage_entry` restores it across buckets.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .degradation import EVICT_LRU, EVICT_OLDEST, EVICT_REJECT
from .refs import EventPattern
from .spec import PropertySpec, Stage

_instance_ids = itertools.count(1)

#: env key under which each packet stage records its packet uid, enabling
#: Feature 5 (packet identity) linkage via ``same_packet_as``.
def uid_var(stage_name: str) -> str:
    return f"__uid_{stage_name}"


class Instance:
    """One partially-completed violation witness."""

    __slots__ = (
        "prop",
        "key",
        "env",
        "stage",
        "deadline",
        "deadline_kind",
        "provenance",
        "created_at",
        "advanced_at",
        "alive",
        "instance_id",
        "stage_bucket",
        "index_bucket",
        "unless_slots",
        "stage_entry",
        "timer_gen",
    )

    def __init__(
        self,
        prop: PropertySpec,
        key: Tuple,
        env: Dict[str, object],
        created_at: float,
    ) -> None:
        self.prop = prop
        self.key = key
        self.env = env
        self.stage = 1  # index of the next stage to match
        self.deadline: Optional[float] = None
        self.deadline_kind: str = ""  # "expire" (F3) or "advance" (F7)
        self.provenance: List[object] = []
        self.created_at = created_at
        self.advanced_at = created_at
        self.alive = True
        self.instance_id = next(_instance_ids)
        # Store back-pointers: the per-stage population dict and (for the
        # indexed store) the index bucket currently holding this instance.
        # They make removal O(1) instead of a walk over stages × buckets.
        self.stage_bucket: Optional[Dict[int, "Instance"]] = None
        self.index_bucket: Optional[Dict[int, "Instance"]] = None
        #: (unless index, key) per indexed ``unless`` pattern of the
        #: current stage — where the indexed store filed this instance.
        self.unless_slots: Tuple[Tuple[Dict, Tuple], ...] = ()
        #: per-store stamp of the moment this instance (re-)entered its
        #: stage population; orders instances drawn from several buckets.
        self.stage_entry = 0
        #: bumped whenever the instance's timer is re-armed or its stage
        #: moves; an agenda entry carrying an older value is stale.
        self.timer_gen = 0

    @property
    def complete(self) -> bool:
        return self.stage >= self.prop.num_stages

    def current_stage(self) -> Optional[Stage]:
        if self.complete:
            return None
        return self.prop.stages[self.stage]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Instance({self.prop.name}, key={self.key}, stage={self.stage}, "
            f"alive={self.alive})"
        )


def stage_index_plan(stage: Stage) -> Tuple[Tuple[str, str], ...]:
    """The (event_field, env_var) pairs an index can hash this stage on."""
    plan = list(stage.pattern.env_guards())
    if stage.pattern.same_packet_as is not None:
        plan.append(("uid", uid_var(stage.pattern.same_packet_as)))
    return tuple(plan)


def unless_index_plans(
    stage: Stage,
) -> Tuple[Tuple[int, Tuple[Tuple[str, str], ...]], ...]:
    """``(position in stage.unless, (event_field, env_var) pairs)`` for
    every ``unless`` pattern of the stage a cancel index can hash on."""
    return tuple(
        (j, plan)
        for j, unless in enumerate(getattr(stage, "unless", ()))
        if (plan := unless.env_guards())
    )


def merge_by_stage_entry(
    a: Mapping[int, Instance], b: Mapping[int, Instance]
) -> Dict[int, Instance]:
    """The union of two buckets of one stage, in stage-population order.

    Called by the generated cancel path when two ``unless`` patterns of
    one stage both hit on one event: the scan would have met the
    instances interleaved by stage entry, not bucket by bucket.
    """
    return {
        inst.instance_id: inst
        for inst in sorted(
            {**a, **b}.values(), key=lambda inst: inst.stage_entry)
    }


def _key_getter(env_vars: Tuple[str, ...]):
    """``env -> tuple(env[v] for v in env_vars)``: one C call for two or
    more variables (``itemgetter`` returns a lone value bare)."""
    get = itemgetter(*env_vars)
    return get if len(env_vars) > 1 else lambda env: (get(env),)


#: shared empty dict backing ``at_stage`` misses (never written to).
_EMPTY_STAGE: Dict[int, Instance] = {}


class InstanceStore:
    """Interface: tracks live instances of ONE property.

    Beyond the key map, the base class maintains one dict per stage
    holding exactly the live instances waiting there, so ``at_stage`` —
    the linear store's candidate lookup, and the scan behind any
    ``unless`` pattern with nothing to hash on — is O(stage population)
    and allocates nothing per event.
    """

    def __init__(self, prop: PropertySpec, capacity: Optional[int] = None) -> None:
        self.prop = prop
        #: bounded-store capacity (None = unbounded); enforced by the
        #: monitor's degradation layer, not by ``add`` itself, so the
        #: eviction decision (and its ledger entry) stays in one place.
        self.capacity = capacity
        #: key -> instance; never replaced, so the generated program binds
        #: its ``get`` directly.
        self._by_key: Dict[Tuple, Instance] = {}
        self._live = 0
        #: stage -> {instance_id: instance}.  The per-stage dicts are
        #: pre-created (and never replaced — ``setdefault`` below reuses
        #: them), so the codegen backend can bind them directly into its
        #: generated evaluators as stable references.
        self._stage_pop: Dict[int, Dict[int, Instance]] = {
            i: {} for i in range(1, prop.num_stages + 1)
        }

    # -- shared key-based access ------------------------------------------
    def by_key(self, key: Tuple) -> Optional[Instance]:
        return self._by_key.get(key)

    @property
    def live_count(self) -> int:
        """Live instances, maintained incrementally: the telemetry gauges
        (and ``Monitor.live_instances``) read this O(1) counter instead of
        scanning the population on every event."""
        return self._live

    def add(self, instance: Instance) -> None:
        existing = self._by_key.get(instance.key)
        if existing is not None and existing.alive:
            raise ValueError(f"duplicate live instance for key {instance.key!r}")
        self._by_key[instance.key] = instance
        self._live += 1
        bucket = self._stage_pop.setdefault(instance.stage, {})
        bucket[instance.instance_id] = instance
        instance.stage_bucket = bucket
        self._index_add(instance)

    def remove(self, instance: Instance) -> None:
        if instance.alive:
            self._live -= 1
        instance.alive = False
        if self._by_key.get(instance.key) is instance:
            del self._by_key[instance.key]
        bucket = instance.stage_bucket
        if bucket is not None:
            bucket.pop(instance.instance_id, None)
            instance.stage_bucket = None
        self._index_remove(instance)

    def reindex(self, instance: Instance, old_stage: int) -> None:
        """Called after an instance advances stages (or rebinds in place)."""
        bucket = instance.stage_bucket
        if bucket is not None:
            bucket.pop(instance.instance_id, None)
        bucket = self._stage_pop.setdefault(instance.stage, {})
        bucket[instance.instance_id] = instance
        instance.stage_bucket = bucket
        self._index_move(instance, old_stage)

    def touch(self, instance: Instance) -> None:
        """Called after a refresh: the instance re-enters its own stage
        (at the back), exactly as ``reindex`` leaves it."""
        self.reindex(instance, instance.stage)

    def candidates(
        self, stage_idx: int, fields: Mapping[str, object]
    ) -> Iterable[Instance]:
        raise NotImplementedError

    def unless_index(
        self, stage_idx: int, pattern_idx: int
    ) -> Optional[Dict[Tuple, Dict[int, Instance]]]:
        """The cancel index of ``stages[stage_idx].unless[pattern_idx]``
        (index_key -> waiting instances), or None when there is none:
        that pattern is answered by scanning ``at_stage``."""
        return None

    def at_stage(self, stage_idx: int) -> Iterable[Instance]:
        """Live instances waiting at a stage — a view, no allocation."""
        return self._stage_pop.get(stage_idx, _EMPTY_STAGE).values()

    # -- bounded-store support (static-Varanus style tables) ---------------
    def at_capacity(self) -> bool:
        return self.capacity is not None and self._live >= self.capacity

    def choose_victim(self, policy: str) -> Optional[Instance]:
        """The live instance an eviction policy would shed, or None.

        ``reject-new`` never evicts (the *new* creation is refused);
        ``evict-oldest`` sheds the earliest-created live instance;
        ``evict-lru`` the least-recently-advanced/refreshed one.  Ties
        break on instance id, keeping eviction order deterministic.
        """
        if policy == EVICT_REJECT:
            return None
        if policy not in (EVICT_OLDEST, EVICT_LRU):
            raise ValueError(f"unknown eviction policy {policy!r}")
        by_age = policy == EVICT_OLDEST
        best: Optional[Instance] = None
        best_rank: Optional[Tuple[float, int]] = None
        for instance in self._by_key.values():
            if not instance.alive:
                continue
            stamp = instance.created_at if by_age else instance.advanced_at
            rank = (stamp, instance.instance_id)
            if best_rank is None or rank < best_rank:
                best, best_rank = instance, rank
        return best

    def all(self) -> Iterable[Instance]:
        return [i for i in self._by_key.values() if i.alive]

    def __len__(self) -> int:
        return len(self._by_key)

    # -- hooks --------------------------------------------------------------
    def _index_add(self, instance: Instance) -> None:
        pass

    def _index_remove(self, instance: Instance) -> None:
        pass

    def _index_move(self, instance: Instance, old_stage: int) -> None:
        pass


class LinearInstanceStore(InstanceStore):
    """Ablation baseline: candidate lookup is a full scan of the stage."""

    def candidates(
        self, stage_idx: int, fields: Mapping[str, object]
    ) -> Iterable[Instance]:
        return self.at_stage(stage_idx)


class IndexedInstanceStore(InstanceStore):
    """Hash-indexed store keyed on each stage's index plan."""

    def __init__(self, prop: PropertySpec, capacity: Optional[int] = None) -> None:
        super().__init__(prop, capacity=capacity)
        self._plans: Dict[int, Tuple[Tuple[str, str], ...]] = {
            i: stage_index_plan(stage)
            for i, stage in enumerate(prop.stages)
            if i >= 1
        }
        # stage -> index_key (or None for unindexable) -> instances, as an
        # insertion-ordered dict keyed by instance id.  NOT a set: default
        # object hashing would make candidate iteration order (and thus
        # same-timestamp violation order) depend on memory addresses,
        # breaking run-to-run determinism.
        self._buckets: Dict[int, Dict[Optional[Tuple], Dict[int, Instance]]] = {
            i: {} for i in self._plans
        }
        # The cancel-path twin: stage -> one (position in stage.unless,
        # index, env vars) per hashable ``unless`` pattern, each index
        # mapping index_key -> instances in the same insertion-ordered
        # shape.  The index dicts are created here and never replaced
        # (the generated program binds them, see ``unless_index``); a
        # bucket is dropped when its last instance leaves, so an index
        # holds live instances only.
        self._unless: Dict[int, Tuple[Tuple[int, Dict, Tuple[str, ...]], ...]] = {
            i: tuple(
                (j, {}, tuple(var for _, var in plan)) for j, plan in plans)
            for i, stage in enumerate(prop.stages)
            if (plans := unless_index_plans(stage))
        }
        self._stage_entries = itertools.count(1)
        #: stage -> env -> its index key, for stages with a plan.
        self._plan_keys = {
            i: _key_getter(tuple(var for _, var in plan))
            for i, plan in self._plans.items() if plan
        }
        # A refresh keeps its key by construction; where every index of
        # the stage reads key variables only, it cannot change a bucket.
        key_vars = set(prop.key_vars)
        self._touch_in_place = frozenset(
            i for i, plan in self._plans.items()
            if key_vars.issuperset(var for _, var in plan)
            and all(key_vars.issuperset(env_vars)
                    for _, _, env_vars in self._unless.get(i, ())))

    def unless_index(
        self, stage_idx: int, pattern_idx: int
    ) -> Optional[Dict[Tuple, Dict[int, Instance]]]:
        """None when the pattern has no ``field == $var`` guard to hash
        on."""
        for j, index, _ in self._unless.get(stage_idx, ()):
            if j == pattern_idx:
                return index
        return None

    def touch(self, instance: Instance) -> None:
        """After a refresh: move the instance to the back of its stage
        population, index bucket and ``unless`` buckets in place — the
        order ``reindex`` gives, with no key built or hashed — where
        ``_touch_in_place`` says the refresh cannot re-key it.  Elsewhere
        (a ``samepacket`` uid plan, an ``unless`` on a non-key binding)
        the refreshed bindings may file it elsewhere: ``reindex``."""
        if instance.stage not in self._touch_in_place:
            self.reindex(instance, instance.stage)
            return
        iid = instance.instance_id
        for bucket in (instance.stage_bucket, instance.index_bucket):
            del bucket[iid]
            bucket[iid] = instance
        if instance.unless_slots:
            for index, key in instance.unless_slots:
                bucket = index[key]
                del bucket[iid]
                bucket[iid] = instance
            instance.stage_entry = next(self._stage_entries)

    def _instance_index_key(self, instance: Instance) -> Optional[Tuple]:
        key_of = self._plan_keys.get(instance.stage)
        if key_of is None:
            return None
        try:
            return key_of(instance.env)
        except KeyError:
            # A plan variable is not bound (possible only for patterns whose
            # binding stage was skipped — spec validation prevents it, but a
            # scan bucket keeps the store safe regardless).
            return None

    def _index_add(self, instance: Instance) -> None:
        if instance.complete or instance.stage not in self._buckets:
            return
        key = self._instance_index_key(instance)
        bucket = self._buckets[instance.stage].setdefault(key, {})
        bucket[instance.instance_id] = instance
        instance.index_bucket = bucket
        unless = self._unless.get(instance.stage)
        if unless is not None:
            # Spec validation guarantees every $var an unless reads is
            # bound before its stage, so there is no unhashable case.
            env = instance.env
            slots = []
            for _, index, env_vars in unless:
                key = tuple(env[var] for var in env_vars)
                index.setdefault(key, {})[instance.instance_id] = instance
                slots.append((index, key))
            instance.unless_slots = tuple(slots)
            instance.stage_entry = next(self._stage_entries)

    def _index_remove(self, instance: Instance) -> None:
        # The back-pointer makes this O(1); the historical implementation
        # walked every bucket of every stage per removal.
        bucket = instance.index_bucket
        if bucket is not None:
            bucket.pop(instance.instance_id, None)
            instance.index_bucket = None
        if instance.unless_slots:
            for index, key in instance.unless_slots:
                bucket = index[key]
                del bucket[instance.instance_id]
                if not bucket:
                    del index[key]
            instance.unless_slots = ()

    def _index_move(self, instance: Instance, old_stage: int) -> None:
        self._index_remove(instance)
        self._index_add(instance)

    def candidates(
        self, stage_idx: int, fields: Mapping[str, object]
    ) -> Iterable[Instance]:
        """Candidates for a stage — dict views where one bucket suffices.

        Buckets hold only live instances (removal always goes through the
        back-pointer), so no alive filter — and usually no copy — is
        needed; a list is built only when both an indexed hit and the
        scan bucket contribute.
        """
        buckets = self._buckets.get(stage_idx)
        if not buckets:
            return ()
        plan = self._plans[stage_idx]
        hit = None
        if plan:
            try:
                key = tuple(fields[field] for field, _ in plan)
            except KeyError:
                key = None  # event lacks an indexed field: equality can't hold
            if key is not None:
                hit = buckets.get(key)
        # The scan bucket holds instances whose stage is unindexable; for an
        # empty plan this is the whole stage population (multiple match).
        scan = buckets.get(None)
        if scan is None:
            return hit.values() if hit is not None else ()
        if hit is None:
            return scan.values()
        out: List[Instance] = list(hit.values())
        out.extend(scan.values())
        return out


def make_store(
    prop: PropertySpec,
    strategy: str = "indexed",
    capacity: Optional[int] = None,
) -> InstanceStore:
    """Factory: ``"indexed"`` (default) or ``"linear"`` (ablation)."""
    if strategy == "indexed":
        return IndexedInstanceStore(prop, capacity=capacity)
    if strategy == "linear":
        return LinearInstanceStore(prop, capacity=capacity)
    raise ValueError(f"unknown instance store strategy {strategy!r}")
