"""The reference evaluator — ``match_strategy="interpreted"``.

A direct transcription of the matching semantics in DESIGN.md: for every
event, walk every property and every stage and evaluate the guard trees
through ``EventPattern.matches``.  No dispatch plans, no generated source,
and no instance index: each stage's candidates come from scanning its
population (``InstanceStore.at_stage``) in stage-entry order, keeping the
instances an index probe would yield by the index's own rule
(:func:`_probe_hits`): every plan field present in the event and equal
to the instance's binding, which the spec guarantees is bound.  It is
never the production path; it exists so
the generated program (:mod:`repro.core.codegen`) and the store's hash
indexes have something independent to be held equal to — the
differential lattice (``tests/property/test_lattice.py``) requires the
reference's violations, counters, ledgers and applied ops from every
execution configuration — and
``benchmarks/e2e`` pins its expected violation counts against it.

:class:`~repro.core.monitor.Monitor` imports this module only when
constructed with ``match_strategy="interpreted"``; everything past
evaluation (op application, timers, degradation) is the monitor's own and
shared by both strategies.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

from ..switch.events import DataplaneEvent
from .instances import Instance, stage_index_plan, uid_var
from .monitor import Monitor, _Op
from .refs import EventPattern, event_fields, kind_matches
from .spec import Absent, refresh_applies


def evaluate_interpreted(monitor: Monitor, event: DataplaneEvent) -> List[_Op]:
    """The ops one event plans against ``monitor``'s current state, read
    off the event's whole field map (:func:`event_fields`)."""
    fields = event_fields(event, max_layer=monitor.max_layer)
    ops: List[_Op] = []
    t = event.time
    for prop in monitor._props.values():
        store = monitor._stores[prop.name]
        doomed: Set[int] = set()

        # 1. Cancellations: unless patterns (Feature 4) and Absent
        #    discharges (the awaited event happened: obligation met).
        for stage_idx in range(1, prop.num_stages):
            stage = prop.stages[stage_idx]
            unless = getattr(stage, "unless", ())
            if unless:
                for inst in store.at_stage(stage_idx):
                    if inst.instance_id in doomed:
                        continue
                    for pattern in unless:
                        if _pattern_matches(pattern, event, fields, inst):
                            doomed.add(inst.instance_id)
                            ops.append(_Op("kill", prop, instance=inst,
                                           reason="unless", time=t))
                            break
            if isinstance(stage, Absent) and kind_matches(
                stage.pattern.kind, event
            ):
                plan = stage_index_plan(stage)
                for inst in store.at_stage(stage_idx):
                    if inst.instance_id in doomed or not _probe_hits(
                            plan, fields, inst.env):
                        continue
                    monitor._c_candidates.inc()
                    if _pattern_matches(stage.pattern, event, fields, inst):
                        doomed.add(inst.instance_id)
                        ops.append(_Op("kill", prop, instance=inst,
                                       reason="discharged", time=t))

        # 2. Advancement of positive stages.
        for stage_idx in range(1, prop.num_stages):
            stage = prop.stages[stage_idx]
            if isinstance(stage, Absent):
                continue
            if not kind_matches(stage.pattern.kind, event):
                continue
            plan = stage_index_plan(stage)
            for inst in store.at_stage(stage_idx):
                if inst.instance_id in doomed or not _probe_hits(
                        plan, fields, inst.env):
                    continue
                monitor._c_candidates.inc()
                if not _pattern_matches(stage.pattern, event, fields, inst):
                    continue
                if not stage.pattern.bindable(fields):
                    continue
                binds = dict(stage.pattern.capture(fields))
                if "uid" in fields:
                    binds[uid_var(stage.name)] = fields["uid"]
                doomed.add(inst.instance_id)  # at most one transition/event
                ops.append(_Op("advance", prop, instance=inst, binds=binds,
                               event=event, time=t))

        # 3. Creation / refresh at stage 0.
        stage0 = prop.stages[0]
        pattern0 = stage0.pattern
        if (
            kind_matches(pattern0.kind, event)
            and pattern0.matches(event, fields, {})
            and pattern0.bindable(fields)
        ):
            env0 = pattern0.capture(fields)
            if "uid" in fields:
                env0[uid_var(stage0.name)] = fields["uid"]
            key = tuple(env0[k] for k in prop.key_vars)
            if monitor.key_filter is not None and not monitor.key_filter(
                prop.name, key
            ):
                continue
            existing = store.by_key(key)
            if existing is not None and existing.alive:
                if existing.stage == 1 and existing.instance_id not in doomed:
                    if refresh_applies(prop):
                        ops.append(_Op("refresh", prop, instance=existing,
                                       binds=env0, event=event, time=t))
            else:
                ops.append(_Op("create", prop, key=key, env=env0,
                               event=event, time=t))
    return ops


def _pattern_matches(
    pattern: EventPattern,
    event: DataplaneEvent,
    fields: Mapping[str, object],
    instance: Instance,
) -> bool:
    if pattern.same_packet_as is not None:
        expected = instance.env.get(uid_var(pattern.same_packet_as))
        if expected is None or fields.get("uid") != expected:
            return False
    return pattern.matches(event, fields, instance.env)


def _probe_hits(
    plan: Tuple[Tuple[str, str], ...],
    fields: Mapping[str, object],
    env: Dict[str, object],
) -> bool:
    """Whether an index probe for an event would yield an instance
    waiting at a stage with this index plan: when the event has every
    plan field and each equals the instance's binding (its key bucket) —
    always, for an empty plan (the stage population)."""
    return all(
        field in fields and fields[field] == env[var] for field, var in plan)
