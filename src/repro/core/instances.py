"""Monitor instances and instance stores (Feature 8).

An *instance* is a partially completed attempt to witness a violation: the
values bound so far, plus the next observation stage to match (the paper's
definition in Sec. 2.4).  When an event arrives, the monitor must decide
which instances it advances — the instance-identification problem whose
variants (exact / symmetric / wandering / multiple match) Table 1
catalogues.

One store, :class:`InstanceStore`, answers it.  Every pattern watched
at a stage that has something to hash on gets an *index*: the stage's
own pattern on its variable-referencing equality guards plus the
packet-uid linkage of ``same_packet_as`` (:func:`stage_index_plan`),
each ``unless`` pattern (Feature 4) on its ``field == $var`` guards
(:func:`index_plans`).  An index maps a waiting instance's bindings of
those variables to the instances waiting there, so an event yields its
candidates — to advance, discharge or cancel — by one probe, and a
bucket is dropped when its last instance leaves.  The spec guarantees
every variable an index reads is bound by the time an instance waits at
the stage (:meth:`~repro.core.spec.PropertySpec._check_bindings`), so
every waiting instance has a key in every index of its stage.  A pattern
with nothing to hash on (e.g. an out-of-band link-down, which must
advance *every* instance — multiple match) is answered from the stage
population itself.

Only the generated program (:mod:`repro.core.codegen`) reads the
indexes.  The reference walk (:mod:`repro.core.reference`) scans each
stage's population and applies the index's rules by definition, so
every compiled-versus-interpreted comparison holds the indexes against a
scan.

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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

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
        "slots",
        "stage_entry",
        "timer_seq",
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
        # Store back-pointers: the per-stage population dict holding this
        # instance, and one (index, key, bucket) slot per index of its
        # stage — where the store filed it.  Touch and removal follow
        # them, building and hashing no key.
        self.stage_bucket: Optional[Dict[int, "Instance"]] = None
        self.slots: Tuple[Tuple[Dict, Tuple, Dict[int, "Instance"]], ...] = ()
        #: per-store stamp of the moment this instance (re-)entered its
        #: stage population; orders instances drawn from several buckets.
        self.stage_entry = 0
        #: the monitor's agenda number of this instance's armed timer (0:
        #: none); an agenda entry under any other number is stale.
        self.timer_seq = 0

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


def index_plans(
    stage: Stage,
) -> Tuple[Tuple[EventPattern, Tuple[Tuple[str, str], ...]], ...]:
    """``(pattern, (event_field, env_var) pairs)`` for every pattern
    watched at the stage that an index can hash on: the stage's own
    pattern first (:func:`stage_index_plan`), then each ``unless`` with a
    ``field == $var`` guard."""
    watched = ((stage.pattern, stage_index_plan(stage)),) + tuple(
        (unless, unless.env_guards())
        for unless in getattr(stage, "unless", ()))
    return tuple((pattern, plan) for pattern, plan in watched if plan)


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
    """Hash-indexed live instances of ONE property.

    Beside the key map it keeps one dict per stage holding exactly the
    live instances waiting there, so ``at_stage`` — the candidates of a
    pattern with nothing to hash on, and the reference walk's candidate
    source — is O(stage population) and allocates nothing per event.
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
        # stage -> one (pattern, index, key of env) per pattern watched
        # there with something to hash on (``index_plans``: the stage's
        # own pattern first).  An index maps index key -> instances, as an
        # insertion-ordered dict keyed by instance id.  NOT a set: default
        # object hashing would make candidate iteration order (and thus
        # same-timestamp violation order) depend on memory addresses,
        # breaking run-to-run determinism.  The index dicts are created
        # here and never replaced (the generated program binds them, see
        # ``index``); a bucket is dropped when its last instance leaves,
        # so an index holds live instances only.
        self._indexes: Dict[int, Tuple[Tuple[EventPattern, Dict, Callable], ...]] = {
            i: tuple(
                (pattern, {}, _key_getter(tuple(var for _, var in plan)))
                for pattern, plan in plans)
            for i, stage in enumerate(prop.stages)
            if i >= 1 and (plans := index_plans(stage))
        }
        self._stage_entries = itertools.count(1)
        # A refresh keeps its key by construction; where every index of
        # the stage reads key variables only, it cannot change a bucket.
        key_vars = set(prop.key_vars)
        self._touch_in_place = frozenset(
            i for i in range(1, prop.num_stages)
            if all(key_vars.issuperset(var for _, var in plan)
                   for _, plan in index_plans(prop.stages[i])))

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
        self._index_remove(instance)
        self._index_add(instance)

    def touch(self, instance: Instance) -> None:
        """After a refresh: move the instance to the back of its stage
        population and of every index bucket in place — the order
        ``reindex`` gives, with no key built or hashed — where
        ``_touch_in_place`` says the refresh cannot re-key it.  Elsewhere
        (a ``samepacket`` uid plan, an index on a non-key binding) the
        refreshed bindings may file it elsewhere: ``reindex``."""
        if instance.stage not in self._touch_in_place:
            self.reindex(instance, instance.stage)
            return
        iid = instance.instance_id
        bucket = instance.stage_bucket
        del bucket[iid]
        bucket[iid] = instance
        if instance.slots:
            for _, _, bucket in instance.slots:
                del bucket[iid]
                bucket[iid] = instance
            instance.stage_entry = next(self._stage_entries)

    def index(
        self, stage_idx: int, pattern: EventPattern
    ) -> Optional[Dict[Tuple, Dict[int, Instance]]]:
        """The index of ``pattern`` — the stage's own pattern or one of
        its ``unless`` patterns — over the instances waiting at the stage
        (index key -> instances), or None when the pattern has no
        ``field == $var`` guard or ``samepacket`` to hash on: it is
        answered by ``at_stage``."""
        for watched, index, _ in self._indexes.get(stage_idx, ()):
            if watched is pattern:
                return index
        return None

    def at_stage(self, stage_idx: int) -> Iterable[Instance]:
        """Live instances waiting at a stage, in stage-entry order — a
        view, no allocation."""
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

    def all(self) -> List[Instance]:
        """Live instances in creation order."""
        return [i for i in self._by_key.values() if i.alive]

    def __len__(self) -> int:
        return len(self._by_key)

    # -- index maintenance ------------------------------------------------
    def _index_add(self, instance: Instance) -> None:
        indexes = self._indexes.get(instance.stage)
        if indexes is None:
            return
        env, iid = instance.env, instance.instance_id
        slots = []
        for _, index, key_of in indexes:
            key = key_of(env)
            bucket = index.setdefault(key, {})
            bucket[iid] = instance
            slots.append((index, key, bucket))
        instance.slots = tuple(slots)
        instance.stage_entry = next(self._stage_entries)

    def _index_remove(self, instance: Instance) -> None:
        iid = instance.instance_id
        for index, key, bucket in instance.slots:
            del bucket[iid]
            if not bucket:
                del index[key]
        instance.slots = ()
