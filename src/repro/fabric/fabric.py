"""The sharded monitor fabric: N shards behind one Monitor-shaped facade.

:class:`ShardedMonitor` is drop-in for the call surface the rest of the
system uses — ``observe``/``observe_batch``, ``advance_to``/``flush``,
``start``/``drain``/``stop``, ``violations``, ``stats``, ``ledger``,
``live_instances``/``pending_op_count`` — so ``repro replay``,
``repro serve``, and the stats plane are shard-transparent.

Every shard is a forked worker process fed serialized event frames
(``fabric.mp``), owned by a :class:`~repro.fabric.supervise.Supervisor`
that turns worker deaths into restarts and ledger entries.  Workers
acknowledge nothing per event; state flows back as snapshot deltas (a
worker hands over its new violations and forgets them) on explicit
``sync()``, and with the supervisor's periodic cuts, which are
requested and then taken in whenever their reply has arrived — no
batch waits for one.  A cut's reply hands over a forked standby of the
worker, which a crash promotes (``fabric.mp``).  The only waits left
on the data path are back-pressure for socket space when a worker is
behind, and a cut that must land once a worker's recovery journal is
past its bound, each ended only by the policy's one
``heartbeat_timeout`` of silence from the worker; ``sync()`` and
``stop()`` are the explicit barriers (see ``fabric.mp``'s module
docstring).  How many events each shard has not yet confirmed is the
supervisor's count, published as ``repro_fabric_shard_queue_depth``.
After ``stop()`` the workers are gone for good: intake raises, and no
shard reads as recovering.

Merging rules (the parts worth being careful about):

* ``stats.events`` is the router's count — each offered event once —
  not the sum of shard counters, which double-counts fan-out.
* All other counters sum across shards.  With the default indexed
  stores this reproduces the single-monitor counts exactly: every
  candidate probe touches instances sharing the event's full key, all
  of which live on the shard the event routed to.  A standby holds its
  worker's counters as of the cut, so the sum stays exact across a
  crash whose ledger is empty.
* There are no merged peak gauges: shards peak at different moments,
  and no exact global peak can be rebuilt from theirs.
* Violations merge into one list ordered by (time, property, bindings).
* Each shard reports its ledger as a cumulative count table, and the
  supervisor takes into the fabric-owned :class:`OverflowLedger` only
  what a row grew by over the highest count seen from that shard.  A
  promoted standby holds the cut's counts and replays, so its
  re-detected sheds add nothing.  The interval spans all shards plus
  the supervisor's own ink and anything the serve ingest queue sheds
  into the same ledger; those rows belong to no property, so they
  widen every property's interval.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.degradation import OverflowLedger
from ..core.monitor import MonitorStats
from ..core.spec import PropertySpec
from ..core.violations import Violation
from ..switch.events import DataplaneEvent
from ..telemetry import NULL_TRACER, MetricsRegistry, NullRegistry, Tracer
from ..telemetry.tracing import open_event_root
from .mp import MpShard, ProcessGroup
from .routing import Router, build_routes
from .shard import ShardSnapshot, build_shard_monitor
from .supervise import Supervisor, SupervisorPolicy


def _violation_order(violation: Violation) -> Tuple:
    return (
        violation.time,
        violation.property_name,
        tuple(sorted((k, str(v)) for k, v in violation.bindings.items())),
    )


class FabricStats:
    """A :class:`MonitorStats`-shaped view over the merged shard state.

    ``events`` reads the router; counters sum across shards; there are
    no ``peak_*`` gauges.  Reads trigger a fabric sync, which is a no-op
    unless events or time advanced since the last one.
    """

    def __init__(self, fabric: "ShardedMonitor") -> None:
        self._fabric = fabric

    def __getattr__(self, name: str) -> int:
        fabric = self._fabric
        if name == "events":
            return int(fabric.router.events_total)
        if name in MonitorStats._COUNTERS:
            fabric.sync()
            return int(sum(s.counters[name] for s in fabric._snapshots))
        raise AttributeError(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = {name: getattr(self, name)
                  for name in MonitorStats._COUNTERS}
        inner = ", ".join(f"{k}={v}" for k, v in fields.items())
        return f"FabricStats({inner})"


class ShardedMonitor:
    """Key-partitioned monitor execution behind the Monitor call surface."""

    def __init__(
        self,
        props: Sequence[PropertySpec],
        num_shards: int = 2,
        mode: str = "mp",
        registry: Optional[MetricsRegistry] = None,
        monitor_kwargs: Optional[Mapping[str, object]] = None,
        supervision: Optional[SupervisorPolicy] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if mode != "mp":
            raise ValueError(
                f"unknown fabric mode {mode!r}: shards are always forked "
                f"workers (mode='mp')")
        self.num_shards = num_shards
        self.registry = registry if registry is not None else NullRegistry()
        props = list(props)
        routes = build_routes(props, num_shards)
        self.router = Router(routes, num_shards, registry=self.registry)
        self.ledger = OverflowLedger()
        self.stats = FabricStats(self)
        self.started_at: Optional[float] = None
        self._now = 0.0
        self._tracer: Tracer = NULL_TRACER
        self._violations: List[Violation] = []
        self._sorted_violations: Optional[List[Violation]] = None
        self._snapshots: List[ShardSnapshot] = [
            ShardSnapshot(shard=i, now=0.0, live_instances=0, pending_ops=0,
                          counters=dict.fromkeys(MonitorStats._COUNTERS, 0))
            for i in range(num_shards)
        ]
        self._dirty = False
        self._stopped = False
        self._mirrored: Dict[str, float] = {}

        policy = supervision if supervision is not None \
            else SupervisorPolicy()
        # Built once, before the first fork, and never fed here: every
        # worker, replacements included, inherits the same untouched
        # copy (a control channel's RNG included).
        shard_monitors = [
            build_shard_monitor(props, idx, num_shards, routes,
                                monitor_kwargs)
            for idx in range(num_shards)]

        #: every process of this fabric, unknown leftovers included
        self._group = ProcessGroup()

        def spawn(idx: int) -> MpShard:
            return MpShard.fork(shard_monitors[idx], idx,
                                heartbeat_timeout=policy.heartbeat_timeout,
                                group=self._group)

        try:
            self.supervisor = Supervisor(
                spawn, num_shards, self.ledger, self._merge, policy=policy,
                registry=self.registry, now_fn=lambda: self._now)
        except BaseException:
            self._group.close()
            raise

    # -- event intake ------------------------------------------------------
    def observe(self, event: DataplaneEvent) -> None:
        self.observe_batch((event,))

    def observe_batch(self, events: Iterable[DataplaneEvent]) -> None:
        supervisor = self._running()
        if not isinstance(events, Sequence):
            events = list(events)  # sized and indexed below, and by split
        if not events:
            return
        batches = self.router.split(events)
        tracer = self._tracer
        if tracer.enabled:
            # Arrival roots only, of the events the tracer keeps: the
            # shards' own spans stay in their processes.  Each closes at
            # the fabric's time as of its event.
            keeps = tracer.keeps
            now = self._now
            for event in events:
                if event.time > now:
                    now = event.time
                if keeps(event):
                    tracer.end(open_event_root(tracer, event), now)
        last = events[-1].time
        if last > self._now:
            self._now = last
        for idx, batch in enumerate(batches):
            if batch:
                supervisor.send_batch(idx, batch)
        supervisor.tick()
        self._dirty = True

    def advance_to(self, when: float) -> None:
        supervisor = self._running()
        if when > self._now:
            self._now = when
        supervisor.advance_to(when)
        self._dirty = True

    def flush(self, until: float) -> None:
        self.advance_to(until)

    def start(self, now: float = 0.0) -> None:
        self.started_at = now
        self.advance_to(now)

    def drain(self, until: Optional[float] = None) -> int:
        if until is not None:
            self.advance_to(until)
        else:
            self._running().drain()
            self._dirty = True
        self.sync()
        return self.pending_op_count()

    def _running(self) -> Supervisor:
        if self._stopped:
            raise RuntimeError("fabric is stopped: its workers are gone")
        return self.supervisor

    # -- merged state ------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        # Shards keep their null tracers: spans are a single-process
        # debug instrument.  The fabric records the root span of each
        # event the tracer keeps as it routes the batch (observe_batch),
        # and nothing under it.
        self._tracer = tracer

    def sync(self) -> None:
        """Refresh merged state from every shard (no-op when clean)."""
        if not self._dirty:
            return
        self._dirty = False
        # The supervisor delivers each shard's snapshot through
        # self._merge (after trimming replayed violations); shards that
        # are down this round simply skip a beat and their state
        # arrives with a later sync.
        self.supervisor.sync_snapshots()
        self._mirror_monitor_metrics()

    def _merge(self, snapshot: ShardSnapshot) -> None:
        """Fold one shard snapshot into the merged view."""
        self._snapshots[snapshot.shard] = snapshot
        if snapshot.violations:
            self._violations.extend(snapshot.violations)
            self._sorted_violations = None

    def _mirror_monitor_metrics(self) -> None:
        """Reflect shard totals into the fabric's registry.

        Shard monitors run NullRegistries (their counters still count;
        they export nothing), so the fabric republishes the merged
        ``repro_monitor_*`` families — a scrape of a sharded daemon
        shows the same names a single-monitor daemon does.
        """
        if not self.registry.enabled:
            return
        for attr, name in MonitorStats._COUNTERS.items():
            if attr == "events":
                total = float(self.router.events_total)
            else:
                total = float(sum(
                    s.counters[attr] for s in self._snapshots))
            delta = total - self._mirrored.get(name, 0.0)
            # Only positive deltas: a replacement that lost events to a
            # ledgered gap or a quarantine can report less than its
            # predecessor did, and a Prometheus counter must never
            # decrease.
            if delta > 0:
                self.registry.counter(name).inc(delta)
                self._mirrored[name] = total
        self.registry.gauge("repro_monitor_live_instances").set(
            float(sum(s.live_instances for s in self._snapshots)))
        self.registry.gauge("repro_monitor_pending_ops").set(
            float(sum(s.pending_ops for s in self._snapshots)))

    @property
    def violations(self) -> List[Violation]:
        self.sync()
        if self._sorted_violations is None:
            self._sorted_violations = sorted(
                self._violations, key=_violation_order)
        return self._sorted_violations

    def live_instances(self) -> int:
        self.sync()
        return sum(s.live_instances for s in self._snapshots)

    def pending_op_count(self) -> int:
        self.sync()
        return sum(s.pending_ops for s in self._snapshots)

    # -- supervision surface ----------------------------------------------
    def tick(self) -> None:
        """Periodic supervision duty (heartbeats, due restarts).

        The data path already ticks per batch; poll loops (the serve
        daemon) call this so an idle fabric still notices dead workers.
        """
        self.supervisor.tick()

    def recovering_shards(self) -> List[int]:
        """Shards currently down and rebuilding (readiness degrades)."""
        return self.supervisor.recovering()

    def shard_liveness(self) -> List[Dict[str, object]]:
        """Per-shard health rows for /healthz, /stats, and reports."""
        return self.supervisor.liveness()

    def recovery(self) -> Dict[str, object]:
        """What supervision has done so far, for ``/stats`` and the
        serve and chaos reports: ``restarts`` and
        ``quarantined_batches`` over all shards, the ``failed_shards``,
        and one :meth:`shard_liveness` row per shard (``shards``)."""
        rows = self.shard_liveness()
        return {
            "restarts": sum(row["restarts"] for row in rows),
            "quarantined_batches": sum(
                row["quarantined_batches"] for row in rows),
            "failed_shards": [row["shard"] for row in rows if row["failed"]],
            "shards": rows,
        }

    # -- lifecycle ---------------------------------------------------------
    def stop(self, now: Optional[float] = None) -> Dict[str, object]:
        """Drain every shard and return a Monitor-compatible summary."""
        if not self._stopped:
            self._stopped = True
            if now is not None and now > self._now:
                self._now = now
            self.supervisor.advance_to(self._now)
            if now is None:
                self.supervisor.drain()
            # quiesce() forces down shards through recovery first, then
            # bounded-quits each worker; snapshots arrive via
            # self._merge, and a hung worker is killed + ledgered
            # instead of deadlocking this call.
            self.supervisor.quiesce()
            self._group.close()
            self._dirty = False
            self._mirror_monitor_metrics()
            self._tracer.close_all(self._now)
        observed = len(self.violations)
        return {
            "started_at": self.started_at,
            "stopped_at": self._now,
            "events": self.stats.events,
            "violations": observed,
            "violations_interval": list(self.ledger.interval(observed)),
            "live_instances": self.live_instances(),
            "pending_ops": self.pending_op_count(),
            "ledger": self.ledger.summary(),
        }

    def close(self) -> None:
        """Tear down workers without draining (error paths, __del__)."""
        self._stopped = True
        self.supervisor.close()
        self._group.close()
