"""Record the ops a monitor applies, at the four places ops apply.

The generated INLINE program refreshes and creates through
``Monitor._refresh`` and ``Monitor._create`` directly, never through
``Monitor._apply``; every other path reaches the same two leaves through
``_apply``.  Advances and kills always go through ``_apply_advance`` /
``_apply_kill``.  Wrapping those four sees every applied op, whichever
path applied it.
"""

from typing import List, Tuple

Applied = Tuple[str, str, tuple, str]


def record_applied(monitor) -> List[Applied]:
    """Wrap ``monitor``'s op leaves; return the list they append
    ``(kind, property, instance key, reason)`` to, in application order.

    Call it before the monitor's first event: the generated program
    binds ``_refresh`` and ``_create`` when it is built.
    """
    assert monitor._codegen_program is None, "record before the first event"
    applied: List[Applied] = []
    create, refresh = monitor._create, monitor._refresh

    def recording_create(prop, key, env, event, time):
        applied.append(("create", prop.name, key, ""))
        create(prop, key, env, event, time)

    def recording_refresh(instance, binds, time):
        applied.append(("refresh", instance.prop.name, instance.key, ""))
        refresh(instance, binds, time)

    def recording(apply_op):
        def recording_apply(op):
            applied.append(
                (op.kind, op.prop.name, op.instance.key, op.reason))
            apply_op(op)
        return recording_apply

    monitor._create = recording_create
    monitor._refresh = recording_refresh
    monitor._apply_advance = recording(monitor._apply_advance)
    monitor._apply_kill = recording(monitor._apply_kill)
    return applied
