"""Sharded monitor fabric: key-partitioned multi-core execution.

Every shard is a forked worker process under a supervisor.  See
:mod:`repro.fabric.fabric` for the :class:`ShardedMonitor` facade,
:mod:`repro.fabric.routing` for the key-partitioning analysis,
:mod:`repro.fabric.shard` for the monitor each worker inherits,
:mod:`repro.fabric.mp` for the forked-worker transport, and
:mod:`repro.fabric.supervise` for crash detection and recovery.
"""

from .fabric import FabricStats, ShardedMonitor
from .mp import MpShard, ShardDied, ShardTimeout, fork_available
from .routing import PropRoute, Router, build_route, build_routes, \
    shard_key_filter, stable_hash
from .shard import ShardSnapshot, build_shard_monitor, take_snapshot
from .supervise import Supervisor, SupervisorPolicy

__all__ = [
    "FabricStats",
    "MpShard",
    "PropRoute",
    "Router",
    "ShardDied",
    "ShardSnapshot",
    "ShardTimeout",
    "ShardedMonitor",
    "Supervisor",
    "SupervisorPolicy",
    "build_route",
    "build_routes",
    "build_shard_monitor",
    "fork_available",
    "shard_key_filter",
    "stable_hash",
    "take_snapshot",
]
