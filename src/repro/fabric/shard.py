"""One shard: a plain :class:`Monitor` over the properties it owns.

A shard is not a new engine — it is the existing monitor with a
``key_filter`` installed, so every semantic feature (timers, split mode,
degradation, provenance) works unchanged per shard.  This module builds
shard monitors and snapshots their state into picklable deltas the
fabric merges into its single external view.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set

from ..core.degradation import ShedKey
from ..core.monitor import Monitor
from ..core.spec import PropertySpec
from ..core.violations import Violation
from .routing import PropRoute, shard_key_filter


def build_shard_monitor(
    props: Sequence[PropertySpec],
    shard_idx: int,
    num_shards: int,
    routes: Mapping[str, PropRoute],
    monitor_kwargs: Optional[Mapping[str, object]] = None,
) -> Monitor:
    """The monitor of shard ``shard_idx``: every keyed property (the key
    filter splits their instances by key) and only the pinned properties
    pinned here.  Its program and the function of every class they watch
    are compiled now, so a worker forked from it compiles nothing."""
    kwargs = dict(monitor_kwargs or {})
    kwargs["key_filter"] = shard_key_filter(routes, shard_idx, num_shards)
    monitor = Monitor(**kwargs)
    watched: Set[type] = set()
    for prop in props:
        route = routes[prop.name]
        if route.keyed or route.pin == shard_idx:
            monitor.add_property(prop)
            watched |= route.classes
    eval_fns = monitor._program().eval_fns
    for cls in watched:
        eval_fns[cls]  # a class's function is compiled on first lookup
    return monitor


@dataclass
class ShardSnapshot:
    """A shard's state delta since the previous snapshot.

    Counters and the ledger's shed counts are cumulative (cheap,
    idempotent to re-read); violations are the ones raised since the
    previous snapshot, handed over and forgotten by the shard, so the
    fabric appends each exactly once and only the fabric keeps it.
    Everything here pickles — violations carry events and provenance
    records, which are plain dataclasses — so the same type crosses the
    multiprocessing result channel.
    """

    shard: int
    now: float
    live_instances: int
    pending_ops: int
    counters: Dict[str, float]
    violations: List[Violation] = field(default_factory=list)
    sheds: Dict[ShedKey, int] = field(default_factory=dict)
    #: full recoverable state, attached only on checkpoint requests —
    #: regular syncs stay cheap deltas.  It is the shard's pickled
    #: :class:`~repro.core.monitor.MonitorState`, pickled once where it
    #: was exported and opaque from there on: whoever holds a checkpoint
    #: only ever forwards these bytes to a replacement worker.
    state: Optional[bytes] = None
    #: ``MonitorState.lost_pending_ops`` of that state, beside the bytes
    #: so the holder can ledger them without opening it.
    lost_pending_ops: int = 0
    #: CPU seconds the exporting process spent on ``export_state`` plus
    #: the pickle — what the checkpoint cost the worker, off the clock
    #: of whoever waits for the reply.
    export_seconds: float = 0.0


def take_snapshot(
    monitor: Monitor,
    shard_idx: int,
    with_state: bool = False,
) -> ShardSnapshot:
    """Snapshot ``monitor``, handing over (and clearing) the violations
    it raised since the previous snapshot.

    ``with_state=True`` additionally exports and pickles the monitor's
    recoverable state (:meth:`Monitor.export_state`), turning the
    snapshot into a checkpoint a replacement worker can be rehydrated
    from, and times that work (``export_seconds``).
    """
    counters, _ = monitor.stats.export()
    snapshot = ShardSnapshot(
        shard=shard_idx,
        now=monitor.now,
        live_instances=monitor.live_instances(),
        pending_ops=monitor.pending_op_count(),
        counters=counters,
        violations=monitor.violations,
        sheds=dict(monitor.ledger.counts),
    )
    monitor.violations = []
    if with_state:
        started = time.process_time()
        state = monitor.export_state()
        snapshot.state = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
        snapshot.export_seconds = time.process_time() - started
        snapshot.lost_pending_ops = state.lost_pending_ops
    return snapshot
