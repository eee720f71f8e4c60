"""The property-monitor engine — the paper's "ideal switch monitor".

The :class:`Monitor` consumes the dataplane event stream (attach it to a
switch with ``switch.add_tap(monitor.observe)``, or replay a recorded trace
into it) and tracks, per property, a population of instances — partially
completed violation witnesses.  It implements all the semantic features of
Sec. 2:

* F1  field access        — guards read the fields the properties demand,
                            loaded to the monitor's ``max_layer`` parse
                            capability (``refs.field_loader``);
* F2  event history       — instances persist across packets;
* F3  timeouts            — ``Observe.within`` expires stale instances, and
                            re-seeing stage 0 for an existing key refreshes;
* F4  persistent obligation — ``unless`` patterns cancel waiting instances;
* F5  packet identity     — ``same_packet_as`` compares packet uids;
* F6  negative match      — ``FieldNe`` / ``MismatchAny`` guards;
* F7  timeout actions     — ``Absent`` stages advance (and may fire a
                            violation) when their timer elapses with no
                            discharging event;
* F8  instance identification — exact/symmetric/wandering matching via the
                            indexed store; multiple match via scan stages;
* F9  side-effect control — ``ProcessingMode.INLINE`` applies monitor state
                            transitions atomically with event processing;
                            ``SPLIT`` defers them by ``split_lag`` seconds,
                            letting monitor state lag behind the traffic
                            (observable monitor errors, per the paper);
* F10 provenance          — NONE / LIMITED / FULL per-stage recording.

F3, F7 and F9 are one mechanism — *something the monitor must do later,
in time order* — so the engine keeps one **agenda**: a single heap of
``(time, rank, seq, payload…)`` entries that :meth:`Monitor.advance_to` pops
and dispatches.  At one instant a due backpressure retry (rank 0) re-enters
the queue before a deferred op (rank 1) applies before a timer (rank 2)
fires; within a rank, push order.  When an event at time *t* arrives,
everything due ``<= t`` runs first.  This is what makes "a drop that comes
after a valid timeout will still trigger a violation" come out *false* once
the property carries its timeout — the instance is gone before the late
drop is seen.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..netsim.scheduler import EventScheduler
from ..switch.events import DataplaneEvent
from ..switch.registers import StateCostMeter
from ..switch.switch import DEFAULT_SPLIT_LAG, ProcessingMode
from ..telemetry import NULL_TRACER, MetricsRegistry, NullRegistry, Tracer
from ..telemetry.metrics import COUNT_BUCKETS, LATENCY_BUCKETS, StatsView
from ..telemetry.tracing import open_event_root
from .degradation import (
    _PRIMARY,
    IMPACT_MISSED,
    DegradationPolicy,
    OverflowLedger,
    ShedKey,
)
from .instances import Instance, InstanceStore
from .provenance import ProvenanceLevel, StageRecord, record_stage
from .spec import Absent, PropertySpec, refresh_applies
from .violations import Violation

ViolationSink = Callable[[Violation], None]


@dataclass(frozen=True)
class MonitorState:
    """A picklable checkpoint of a monitor's recoverable state.

    Covers every live instance (with its armed timer), the clock, the
    :class:`MonitorStats` counters and gauge high-watermarks, and the
    overflow ledger's count table (``sheds``), so a restored monitor's
    interval is the exporter's.
    Deferred split-mode ops are *not* exportable — they hold spec and
    instance references — so their count is carried instead; a restore
    path that cares (the fabric supervisor) ledgers them as lost.

    ``instances`` holds one ``(property name, rows, entry)`` triple per
    store.  Specs do not pickle (compiled predicate closures), so a
    store is named and re-linked to its spec on restore.  Each live
    instance is one plain tuple, ``(key, env, stage, created_at,
    advanced_at, deadline, deadline_kind, timer_seq, provenance)``, and
    each of its provenance records a ``(stage_name, time, event,
    subject)`` tuple: rows export and pickle several times faster than
    an object per instance and per record.  ``entry`` orders the rows
    (see :meth:`Monitor.export_state`).
    """

    now: float
    instances: Tuple[Tuple[str, Tuple[Tuple, ...]], ...]
    lost_pending_ops: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    peaks: Dict[str, int] = field(default_factory=dict)
    sheds: Dict[ShedKey, int] = field(default_factory=dict)

#: ``"compiled"`` runs the generated program (:mod:`repro.core.codegen`);
#: ``"interpreted"`` runs the reference walk (:mod:`repro.core.reference`).
MATCH_STRATEGIES = ("compiled", "interpreted")

#: Agenda ranks — the tie-break between entries due at the same instant.
#: A due retry re-enters the queue before any later work runs (it was
#: already perturbed, it is only waiting for a slot); ops apply before
#: timers fire, so a deferred creation arms its timer first.
_RETRY, _OP, _TIMER = 0, 1, 2


#: Every unlabelled instrument of the engine, named once: (Monitor handle
#: attribute, registry method, metric name, help, MonitorStats attribute
#: or None, registry options).
_INSTRUMENTS = (
    ("_c_events", "counter", "repro_monitor_events_total",
     "Dataplane events the monitor observed", "events", {}),
    ("_c_violations", "counter", "repro_monitor_violations_total",
     "Violations raised", "violations", {}),
    ("_c_created", "counter", "repro_monitor_instances_created_total",
     "Monitor instances created (stage-0 matches)", "instances_created", {}),
    ("_c_expired", "counter", "repro_monitor_instances_expired_total",
     "Instances expired by a within deadline (F3)", "instances_expired", {}),
    ("_c_discharged", "counter", "repro_monitor_instances_discharged_total",
     "Absent stages discharged by the awaited event (F7)",
     "instances_discharged", {}),
    ("_c_cancelled", "counter", "repro_monitor_instances_cancelled_total",
     "Instances cancelled by an unless pattern (F4)",
     "instances_cancelled", {}),
    ("_c_timer_advances", "counter", "repro_monitor_timer_advances_total",
     "Stage advances driven by timeout actions (F7)", "timer_advances", {}),
    ("_c_refreshes", "counter", "repro_monitor_refreshes_total",
     "Stage-0 refreshes of existing instances", "refreshes", {}),
    ("_c_candidates", "counter", "repro_monitor_candidates_examined_total",
     "Instances examined as advance/discharge candidates",
     "candidates_examined", {}),
    ("_c_ops", "counter", "repro_monitor_ops_applied_total",
     "State transitions applied (inline or after split lag)",
     "ops_applied", {}),
    ("_c_evicted", "counter", "repro_monitor_instances_evicted_total",
     "Instances evicted by a bounded store's eviction policy",
     "instances_evicted", {}),
    ("_c_rejected", "counter", "repro_monitor_instances_rejected_total",
     "Creations rejected by a full bounded store (reject-new)",
     "instances_rejected", {}),
    ("_c_shed_ops", "counter", "repro_monitor_ops_shed_total",
     "Split-mode ops shed: control-channel drops plus backpressure give-ups",
     "ops_shed", {}),
    ("_c_op_retries", "counter", "repro_monitor_op_retries_total",
     "Split-mode ops deferred by pending-queue backpressure",
     "op_retries", {}),
    ("_g_live", "gauge", "repro_monitor_live_instances",
     "Live instances across all monitored properties",
     "peak_live_instances", {}),
    ("_g_pending", "gauge", "repro_monitor_pending_ops",
     "Split-mode state transitions still in flight", "peak_pending_ops", {}),
    ("_h_candidates", "histogram", "repro_monitor_candidates_per_event",
     "Candidate-scan width per observed event", None,
     {"buckets": COUNT_BUCKETS}),
    ("_h_pending_depth", "histogram", "repro_monitor_pending_queue_depth",
     "Pending-op queue depth sampled at each split-mode enqueue", None,
     {"buckets": COUNT_BUCKETS}),
    ("_h_backoff", "histogram", "repro_monitor_retry_backoff_seconds",
     "Backoff applied to backpressured split-mode ops", None,
     {"unit": "seconds", "buckets": LATENCY_BUCKETS}),
)


class MonitorStats(StatsView):
    """The counters the benchmarks read — ``monitor.stats.events`` and the
    exported ``repro_monitor_events_total`` sample are the SAME cell (see
    :class:`~repro.telemetry.StatsView`); gauges read as their peaks."""

    _COUNTERS = {stat: name for _, kind, name, _, stat, _ in _INSTRUMENTS
                 if stat and kind == "counter"}
    _GAUGES = {stat: name for _, kind, name, _, stat, _ in _INSTRUMENTS
               if stat and kind == "gauge"}
    __slots__ = ()


# ---------------------------------------------------------------------------
# Planned state transitions (the unit Feature 9 defers)
# ---------------------------------------------------------------------------
@dataclass
class _Op:
    kind: str  # "create" | "advance" | "kill" | "refresh"
    prop: PropertySpec
    instance: Optional[Instance] = None
    key: Tuple = ()
    env: Dict[str, object] = field(default_factory=dict)
    binds: Dict[str, object] = field(default_factory=dict)
    event: Optional[DataplaneEvent] = None
    reason: str = ""
    time: float = 0.0


def _uid(event: Optional[DataplaneEvent]) -> Optional[int]:
    """Packet uid of an op's or violation's event, for span correlation."""
    packet = getattr(event, "packet", None)
    return packet.uid if packet is not None else None


class Monitor:
    """Cross-packet property monitor over a dataplane event stream.

    One production evaluator: the program :mod:`repro.core.codegen`
    generates from the properties' dispatch plans, probing each
    property's hash-indexed :class:`~repro.core.instances.InstanceStore`.
    ``match_strategy="interpreted"`` exists for tests and benchmarks only:
    it swaps in the reference walk (:mod:`repro.core.reference`), which
    scans the stage populations instead of probing the indexes — a
    Python-only oracle with no CLI selector.
    """

    def __init__(
        self,
        scheduler: Optional[EventScheduler] = None,
        provenance: ProvenanceLevel = ProvenanceLevel.LIMITED,
        match_strategy: str = "compiled",
        mode: ProcessingMode = ProcessingMode.INLINE,
        split_lag: float = DEFAULT_SPLIT_LAG,
        max_layer: int = 7,
        meter: Optional[StateCostMeter] = None,
        slow_path_updates: bool = False,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        degradation: Optional[DegradationPolicy] = None,
        op_faults: Optional[object] = None,
        key_filter: Optional[Callable[[str, Tuple[object, ...]], bool]] = None,
    ) -> None:
        if match_strategy not in MATCH_STRATEGIES:
            raise ValueError(
                f"unknown match strategy {match_strategy!r} "
                f"(expected one of {MATCH_STRATEGIES})")
        self.scheduler = scheduler
        self.provenance = provenance
        self.match_strategy = match_strategy
        self.mode = mode
        self.split_lag = split_lag
        self.max_layer = max_layer
        self.meter = meter
        self.slow_path_updates = slow_path_updates
        #: bounded-state policy (None = classic unbounded monitor)
        self.degradation = degradation
        #: control-channel fault source for deferred ops: any object with
        #: ``perturb() -> Optional[float]`` (None = drop the update, float
        #: = extra lag); see ControlFaultProfile.channel() in faults.profiles.
        self.op_faults = op_faults
        #: ownership predicate ``(prop_name, key) -> bool`` consulted before
        #: creating an instance.  The sharded fabric (repro.fabric) installs
        #: one per shard so each instance key has exactly one owner even when
        #: an event batch is forwarded to several shards; None = own all keys.
        self.key_filter = key_filter
        self.ledger = OverflowLedger()
        self.registry = registry if registry is not None else NullRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._init_instruments()
        self.stats = MonitorStats(self.registry)
        self.violations: List[Violation] = []
        self._sinks: List[ViolationSink] = []
        self._props: Dict[str, PropertySpec] = {}
        self._stores: Dict[str, InstanceStore] = {}
        #: property -> per stage, the timer an instance arms on entering
        #: it: ("advance", within) for an Absent stage (F7), ("expire",
        #: within) for an Observe deadline (F3), ("", None) for none.
        self._timer_rows: Dict[str, Tuple[Tuple[str, Optional[float]], ...]] = {}
        #: live instances across all stores, maintained incrementally so
        #: the telemetry-disabled path never iterates stores per event.
        self._live_total = 0
        #: properties whose store gained or lost an instance since their
        #: live gauge was last written (see ``_track_peak``).
        self._live_dirty: set = set()
        if self.match_strategy == "interpreted":
            from .reference import evaluate_interpreted

            self._evaluate = functools.partial(evaluate_interpreted, self)
        else:
            self._evaluate = self._evaluate_codegen
        #: the exec'd generated program; built lazily on first evaluation
        #: (off the set-up path) and invalidated whenever a property is
        #: added.
        self._codegen_program = None
        #: everything the monitor must do later, in ``(time, rank, seq)``
        #: order: ``(retry_at, _RETRY, seq, op, ideal_apply_at, attempt)``,
        #: ``(apply_at, _OP, seq, op)``, ``(deadline, _TIMER, seq,
        #: instance)``.  ``_queued[rank]`` counts the entries of each rank.
        self._agenda: List[Tuple] = []
        self._seq = itertools.count(1)
        self._queued = [0, 0, 0]
        self._now = 0.0
        #: set by start(); None for replay monitors that never start()
        self.started_at: Optional[float] = None

    def _init_instruments(self) -> None:
        """Cache hot-path instrument handles (no per-event dict lookups)."""
        for handle, kind, name, help, _, options in _INSTRUMENTS:
            setattr(self, handle, getattr(self.registry, kind)(
                name, help=help, **options))
        # Per-property handles, filled in by add_property.
        self._stage_advance_counters: Dict[str, Tuple] = {}
        self._prop_violation_counters: Dict[str, object] = {}
        self._prop_live_gauges: Dict[str, object] = {}

    # -- configuration -------------------------------------------------------
    def add_property(self, prop: PropertySpec) -> None:
        if prop.name in self._props:
            raise ValueError(f"duplicate property {prop.name!r}")
        self._props[prop.name] = prop
        capacity = (
            self.degradation.max_instances
            if self.degradation is not None else None
        )
        self._stores[prop.name] = InstanceStore(prop, capacity=capacity)
        self._timer_rows[prop.name] = tuple(
            ("advance", stage.within) if isinstance(stage, Absent)
            else ("expire", stage.within) if stage.within is not None
            else ("", None)
            for stage in prop.stages)
        r = self.registry
        self._stage_advance_counters[prop.name] = tuple(
            r.counter(
                "repro_monitor_stage_advances_total",
                help="Stage advances per property and stage",
                labels={"property": prop.name, "stage": stage.name})
            for stage in prop.stages
        )
        self._prop_violation_counters[prop.name] = r.counter(
            "repro_monitor_property_violations_total",
            help="Violations per property",
            labels={"property": prop.name})
        self._prop_live_gauges[prop.name] = r.gauge(
            "repro_instance_store_live_instances",
            help="Live instances in one property's store",
            labels={"property": prop.name})
        self._codegen_program = None  # stale: rebuilt on next evaluation

    def on_violation(self, sink: ViolationSink) -> None:
        """Call ``sink`` with each violation as it is raised.

        An INLINE monitor applies one property's ops before it plans the
        next property's (see :mod:`repro.core.codegen`), so a sink can run
        before the later properties of the same event are planned.  A
        sink must not change the monitor.
        """
        self._sinks.append(sink)

    def store(self, prop_name: str) -> InstanceStore:
        return self._stores[prop_name]

    def live_instances(self) -> int:
        return sum(s.live_count for s in self._stores.values())

    @property
    def now(self) -> float:
        return self._now

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        # ``_spans`` is where the current event's spans go: the tracer,
        # or NULL_TRACER while observe_batch runs an event its sampling
        # tracer does not keep.
        self._tracer = self._spans = tracer

    # -- event intake ----------------------------------------------------------
    def observe(self, event: DataplaneEvent) -> None:
        """Process one dataplane event (the tap entry point)."""
        self.advance_to(event.time)
        self._c_events.inc()
        telemetry = self.registry.enabled
        candidates_before = self._c_candidates.value if telemetry else 0.0
        ops = self._evaluate(event)
        if self.mode is ProcessingMode.INLINE:
            # what the program left unapplied (see ``_program``)
            for op in ops:
                self._apply(op)
        else:
            apply_at = event.time + self.split_lag
            if self.op_faults is None and self.degradation is None:
                for op in ops:
                    self._push(apply_at, _OP, op)
                self._wake(apply_at, "monitor-split-apply")
            else:
                # Degraded split path: each op individually traverses the
                # (possibly faulty) control channel and the bounded queue.
                for op in ops:
                    self._enqueue_split(op, apply_at, attempt=0)
            self._g_pending.set(self._queued[_OP])
            if telemetry and ops:
                self._h_pending_depth.observe(self._queued[_OP])
        if telemetry:
            self._h_candidates.observe(
                self._c_candidates.value - candidates_before
            )
        self._track_peak()

    def observe_batch(self, events: Iterable[DataplaneEvent]) -> None:
        """Process a stream of events in order — the entry point of
        replay, the daemon's dispatcher and the fabric workers.

        With a tracer on, each event it keeps gets its root span here:
        nothing upstream of a batch opened one (:meth:`observe`, the live
        tap, stays rootless because a traced switch already did).  An
        event a sampling tracer does not keep runs untraced — no span,
        no attrs — but for its violations (see :meth:`_violate`).
        """
        tracer = self._tracer
        if not tracer.enabled:
            for event in events:
                self.observe(event)
            return
        keeps = tracer.keeps
        try:
            for event in events:
                if keeps(event):
                    self._spans = tracer
                    root = open_event_root(tracer, event)
                    self.observe(event)
                    tracer.end(root, self._now)
                else:
                    self._spans = NULL_TRACER
                    self.observe(event)
        finally:
            self._spans = tracer

    def advance_to(self, when: float) -> None:
        """Move monitor time forward, running every agenda entry —
        retry, deferred op or timer — due by ``when``, in agenda order."""
        if when < self._now:
            return  # events carry non-decreasing times; tolerate equal
        agenda = self._agenda
        queued = self._queued
        while agenda and agenda[0][0] <= when:
            due, rank, seq, *payload = heapq.heappop(agenda)
            queued[rank] -= 1
            if due > self._now:
                self._now = due
            if rank == _TIMER:
                self._fire_timer(due, seq, *payload)
            elif rank == _OP:
                # Drains go through Gauge.set like every other call site,
                # keeping the watermark bookkeeping in one place (a drain
                # only lowers the value, so the peak is unaffected).
                self._g_pending.set(float(queued[_OP]))
                self._apply(*payload)
            else:
                self._enqueue_split(*payload)
        if when > self._now:
            self._now = when

    def _push(self, when: float, rank: int, *payload: object,
              seq: int = 0) -> int:
        """Put one entry on the agenda — the only way onto it — under the
        next agenda number, or under ``seq`` (a restored timer's own);
        returns the number."""
        seq = seq or next(self._seq)
        self._queued[rank] += 1
        heapq.heappush(self._agenda, (when, rank, seq, *payload))
        return seq

    def _wake(self, when: float, label: str) -> None:
        """Have a live simulation's scheduler run the agenda at ``when``
        (replay and the daemon have none: events and ticks drive time)."""
        if self.scheduler is not None:
            self.scheduler.call_at(
                when, lambda: self.advance_to(when), label=label)

    def _enqueue_split(self, op: _Op, apply_at: float, attempt: int) -> None:
        """Route one deferred op through the control channel and the
        bounded pending queue (degraded split mode only).

        First attempt: the op may be dropped or delayed by ``op_faults``.
        When the queue is at ``max_pending_ops``, the op backs off
        (``retry_backoff * 2**attempt``) up to ``max_retries`` times, then
        is shed.  Every drop/shed/late-apply lands in the ledger.
        """
        if attempt == 0 and self.op_faults is not None:
            extra = self.op_faults.perturb()
            if extra is None:
                self._c_shed_ops.inc()
                self._ledger_op("op-dropped", op)
                return
            if extra > 0.0:
                apply_at += extra
                self._ledger_op("op-delayed", op)
        policy = self.degradation
        limit = policy.max_pending_ops if policy is not None else None
        if limit is not None and self._queued[_OP] >= limit:
            if attempt >= policy.max_retries:
                self._c_shed_ops.inc()
                self._ledger_op("op-shed", op)
                return
            backoff = policy.retry_backoff * (2.0 ** attempt)
            retry_at = max(self._now, op.time) + backoff
            self._c_op_retries.inc()
            self._h_backoff.observe(backoff)
            if retry_at > apply_at:
                # The op cannot possibly apply on time any more.
                self._ledger_op("op-retried", op)
            self._push(retry_at, _RETRY, op, apply_at, attempt + 1)
            self._wake(retry_at, "monitor-split-retry")
            return
        self._push(apply_at, _OP, op)
        self._wake(max(apply_at, self._now), "monitor-split-apply")

    def _ledger_op(self, kind: str, op: _Op) -> None:
        self.ledger.record(kind, op.prop.name, _PRIMARY[op.kind])

    def pending_op_count(self) -> int:
        """Deferred ops still in flight (queued plus awaiting retry)."""
        return self._queued[_OP] + self._queued[_RETRY]

    # -- evaluation --------------------------------------------------------------
    # The generated program plans against current state.  In INLINE mode
    # it also applies: at a property's refresh/create point it first
    # applies the kills and advances that event has planned so far, then
    # refreshes or creates through the leaves below, so it returns only
    # the ops it planned after the last such point.  The interpreted walk
    # and SPLIT mode plan the whole event and apply nothing.
    def _program(self):
        """The generated program for the current properties.

        Emitted and exec'd on first use, not in ``add_property``: a
        daemon's set-up path stays free of the build.  Deferred import:
        :mod:`repro.core.codegen` is only needed by a monitor that
        evaluates, and the ``_Op`` class it binds lives here.
        """
        program = self._codegen_program
        if program is None:
            from .codegen import build_program

            entries = [
                (prop, self._stores[name], refresh_applies(prop))
                for name, prop in self._props.items()
            ]
            program = self._codegen_program = build_program(
                entries, host=self, op_cls=_Op,
                inc_candidates=self._c_candidates.inc,
                inline=self.mode is ProcessingMode.INLINE,
                max_layer=self.max_layer,
            )
        return program

    def codegen_source(self) -> str:
        """The full generated-program source (``repro explain --codegen``)."""
        return self._program().source

    def _evaluate_codegen(self, event: DataplaneEvent) -> List[_Op]:
        """Run one event through the generated program; return the ops
        it planned and left for the caller to apply or defer.

        One exec'd function per concrete event class: its field loader
        reads the fields it demands into locals, constants are folded
        into compares, store probes inlined.  In SPLIT mode it returns
        exactly the ops the reference walk (:mod:`repro.core.reference`)
        would; in INLINE mode it has applied a prefix of them already
        (see the comment above :meth:`_program`).  Either way the
        differential lattice holds the two to identical applied ops,
        violations, counters and ledgers.
        """
        program = self._codegen_program or self._program()
        fn = program.eval_fns[type(event)]
        if fn is None:
            return []
        return fn(event)

    # -- state transitions -------------------------------------------------------
    def _apply(self, op: _Op) -> None:
        """Apply one planned op: the deferred (SPLIT) path, the
        interpreted walk's, and a kill or an advance of the generated
        INLINE program."""
        self._count_op()
        kind = op.kind
        if kind == "refresh":  # the commonest op on keyed traffic
            self._refresh(op.instance, op.binds, op.time)
        elif kind == "create":
            self._create(op.prop, op.key, op.env, op.event, op.time)
        elif kind == "advance":
            self._apply_advance(op)
        elif kind == "kill":
            self._apply_kill(op)
        else:  # pragma: no cover - internal invariant
            raise ValueError(f"unknown op kind {kind!r}")

    def _count_op(self) -> None:
        """Count one applied op — through ``_apply``, or where the
        generated INLINE program refreshes or creates directly."""
        self._c_ops.inc()
        if self.meter is not None:
            if self.slow_path_updates:
                self.meter.charge_slow_update()
            else:
                self.meter.charge_fast_update()

    def _flush_ops(self, ops: List[_Op]) -> None:
        """Apply, in order, and clear the kills and advances an INLINE
        program planned this event before it refreshes or creates."""
        for op in ops:
            self._apply(op)
        ops.clear()

    def _create(self, prop: PropertySpec, key: Tuple, env: Dict[str, object],
                event: Optional[DataplaneEvent], time: float) -> None:
        """Create ``prop``'s instance under ``key`` (the op is counted by
        the caller).  A leaf: the generated INLINE program calls it
        directly, ``_apply`` for every other path."""
        store = self._stores[prop.name]
        existing = store.by_key(key)
        if existing is not None and existing.alive:
            return  # split-mode race: created twice before first applied
        policy = self.degradation
        if policy is not None and store.at_capacity():
            victim = store.choose_victim(policy.eviction)
            if victim is None:  # reject-new: the full table refuses entry
                self._c_rejected.inc()
                self.ledger.record(
                    "instance-rejected", prop.name, IMPACT_MISSED)
                return
            store.remove(victim)
            self._live_changed(prop.name, -1)
            self._c_evicted.inc()
            self.ledger.record(
                "instance-evicted", prop.name, IMPACT_MISSED)
            if self._spans.enabled:
                self._spans.event(
                    "monitor.evict", time, property=prop.name,
                    key=repr(victim.key))
        instance = Instance(prop, key, dict(env), created_at=time)
        record = record_stage(
            self.provenance, prop.stages[0].name, time, event)
        if record is not None:
            instance.provenance.append(record)
        store.add(instance)
        self._live_changed(prop.name, +1)
        self._c_created.inc()
        if self._spans.enabled:
            self._spans.event(
                "monitor.create", time, uid=_uid(event),
                property=prop.name, key=repr(key))
        if instance.complete:  # single-stage property: immediate violation
            self._violate(instance, event, time)
            store.remove(instance)
            self._live_changed(prop.name, -1)
            return
        self._arm_timer(instance, time)

    def _refresh(self, instance: Instance, binds: Dict[str, object],
                 time: float) -> None:
        """Restart a stage-1 instance's clock with a repeat stage-0 match
        (the op is counted by the caller).  A leaf, like :meth:`_create`."""
        if not instance.alive or instance.stage != 1:
            return
        instance.advanced_at = time  # a refresh is a touch for evict-lru
        instance.env.update(binds)
        # Re-binding may change indexed values (a re-learned port, or the
        # stage-0 packet uid that a same_packet stage keys on): the store's
        # index must follow, or the refreshed instance becomes unfindable.
        # ``touch`` does that, or moves it in place where it cannot happen.
        self._stores[instance.prop.name].touch(instance)
        self._c_refreshes.inc()
        self._arm_timer(instance, time)

    def _apply_advance(self, op: _Op) -> None:
        instance = op.instance
        assert instance is not None
        if not instance.alive:
            return  # split-mode race: advanced after expiry
        instance.env.update(op.binds)
        if self._spans.enabled:
            self._spans.event(
                "monitor.advance", op.time, uid=_uid(op.event),
                property=op.prop.name,
                stage=op.prop.stages[instance.stage].name,
                to_stage=instance.stage + 1)
        self._advance(instance, op.time, op.event)

    def _advance(self, instance: Instance, when: float,
                 event: Optional[DataplaneEvent]) -> None:
        """Move a live instance one stage on — the one place a stage
        advances, for the event path (an ``advance`` op, ``event`` its
        trigger) and the timer path (a timeout action, no event) alike."""
        name = instance.prop.name
        old_stage = instance.stage
        instance.stage += 1
        instance.advanced_at = when
        self._stage_advance_counters[name][old_stage].inc()
        record = record_stage(
            self.provenance, instance.prop.stages[old_stage].name, when, event)
        if record is not None:
            instance.provenance.append(record)
        store = self._stores[name]
        if instance.complete:
            self._violate(instance, event, when)
            store.remove(instance)
            self._live_changed(name, -1)
            return
        store.reindex(instance, old_stage)
        self._arm_timer(instance, when)

    def _apply_kill(self, op: _Op) -> None:
        instance = op.instance
        assert instance is not None
        if not instance.alive:
            return
        self._stores[op.prop.name].remove(instance)
        self._live_changed(op.prop.name, -1)
        if op.reason == "discharged":
            self._c_discharged.inc()
        else:
            self._c_cancelled.inc()
        if self._spans.enabled:
            self._spans.event(
                "monitor.kill", op.time, uid=_uid(op.event),
                property=op.prop.name, reason=op.reason)

    # -- timers ---------------------------------------------------------------------
    def _arm_timer(self, instance: Instance, now: float) -> None:
        """Arm the timer of the stage a live, incomplete instance waits at."""
        instance.timer_seq = 0  # whatever the agenda holds is stale now
        kind, within = self._timer_rows[instance.prop.name][instance.stage]
        if kind:
            self._set_deadline(instance, now + within, kind)
        else:
            instance.deadline = None
            instance.deadline_kind = ""

    def _set_deadline(self, instance: Instance, deadline: float,
                      kind: str, seq: int = 0) -> None:
        instance.deadline = deadline
        instance.deadline_kind = kind
        instance.timer_seq = self._push(deadline, _TIMER, instance, seq=seq)
        if kind == "advance":
            # Only negative observations need a live wakeup: their firing
            # produces externally-visible behaviour (possibly a violation)
            # even if no further packets arrive.  Expiry is lazy.
            self._wake(deadline, "monitor-timeout-action")

    def _fire_timer(self, deadline: float, seq: int,
                    instance: Instance) -> None:
        if not instance.alive or instance.timer_seq != seq:
            return  # stale agenda entry (lazy cancellation)
        name = instance.prop.name
        if instance.deadline_kind == "expire":
            self._stores[name].remove(instance)
            self._live_changed(name, -1)
            self._c_expired.inc()
            return
        # Timeout action (Feature 7): the negative observation is satisfied.
        self._c_timer_advances.inc()
        if self._spans.enabled:
            self._spans.event(
                "monitor.timer_advance", deadline, property=name,
                stage=instance.current_stage().name)
        self._advance(instance, deadline, None)

    # -- violations ------------------------------------------------------------------
    def _violate(
        self,
        instance: Instance,
        trigger: Optional[DataplaneEvent],
        when: float,
    ) -> None:
        bindings = {
            k: v for k, v in instance.env.items() if not k.startswith("__")
        }
        violation = Violation(
            property_name=instance.prop.name,
            time=when,
            bindings=bindings,
            message=instance.prop.violation_message
            or instance.prop.description,
            trigger=trigger if self.provenance is not ProvenanceLevel.NONE else None,
            history=tuple(instance.provenance),
        )
        self.violations.append(violation)
        self._c_violations.inc()
        self._prop_violation_counters[instance.prop.name].inc()
        # Always, sampled trigger or not: a violation is what the ring
        # is for, and its uid must answer ``GET /trace?uid=``.
        tracer = self._tracer
        if tracer.enabled:
            tracer.event(
                "monitor.violation", when, uid=_uid(trigger),
                property=instance.prop.name)
        for sink in self._sinks:
            sink(violation)

    def _live_changed(self, prop_name: str, delta: int) -> None:
        """One instance entered (+1) or left (-1) ``prop_name``'s store."""
        self._live_total += delta
        self._live_dirty.add(prop_name)

    def _track_peak(self) -> None:
        """Event-end gauge update: the incrementally maintained total
        keeps the peak-live watermark exact at O(1) per event, and with
        telemetry on only the stores that changed since the last write
        get their per-property gauge set (an unchanged store's gauge
        already holds its value and its watermark)."""
        self._g_live.set(float(self._live_total))
        dirty = self._live_dirty
        if dirty and self.registry.enabled:
            for name in dirty:
                self._prop_live_gauges[name].set(
                    float(self._stores[name].live_count))
            dirty.clear()

    # -- lifecycle (the serve daemon's start/drain/stop contract) --------------------
    def start(self, now: float = 0.0) -> None:
        """Mark the monitor live at ``now`` (a long-running process's t0).

        Replay never needs this — the first event's timestamp starts the
        clock implicitly.  A daemon does: it records when monitoring
        began so the final report can bound the covered interval even if
        the first event arrives much later (or never).
        """
        self.started_at = now
        self.advance_to(now)

    def drain(self, until: Optional[float] = None) -> int:
        """Apply every deferred op and due timer; returns ops left.

        With no horizon, time advances just far enough to flush the
        agenda's deferred ops and retries (a retry may re-enqueue with
        backoff, so this loops until none is left); a later timer stays
        armed.  A nonzero return means ``until`` cut the drain short.
        """
        if until is not None:
            self.advance_to(until)
            return self.pending_op_count()
        while self.pending_op_count():
            horizon = max(
                entry[0] for entry in self._agenda if entry[1] != _TIMER)
            self.advance_to(max(horizon, self._now))
        return 0

    def stop(self, now: Optional[float] = None) -> Dict[str, object]:
        """Drain, close trace spans, and return the lifecycle summary.

        The summary is what ``repro serve`` folds into its final
        degradation report: totals, the overflow ledger's digest, and
        the uncertainty interval around the observed violation count.
        """
        remaining = self.drain(until=None if now is None else max(now, self._now))
        self.tracer.close_all(self._now)
        observed = len(self.violations)
        return {
            "started_at": self.started_at,
            "stopped_at": self._now,
            "events": self.stats.events,
            "violations": observed,
            "violations_interval": list(self.ledger.interval(observed)),
            "live_instances": self.live_instances(),
            "pending_ops": remaining,
            "ledger": self.ledger.summary(),
        }

    # -- checkpoint / restore ----------------------------------------------------------
    def export_state(self) -> MonitorState:
        """Flatten recoverable state into a picklable :class:`MonitorState`.

        Three orders survive a restore, because each breaks a tie: rows
        are in creation order (evictions tie-break on instance id),
        ``entry`` lists them in stage-entry order (the order candidates
        are advanced and cancelled in), and each keeps its timer's
        agenda number (equal deadlines fire in push order).  All of it
        is read off the live instances, not the agenda: O(live).
        """
        instances = []
        for name, store in self._stores.items():
            live = store.all()
            position = {inst.instance_id: i for i, inst in enumerate(live)}
            rows = tuple([
                (inst.key, dict(inst.env), inst.stage, inst.created_at,
                 inst.advanced_at, inst.deadline, inst.deadline_kind,
                 inst.timer_seq,
                 tuple([(r.stage_name, r.time, r.event, r.subject)
                        for r in inst.provenance]))
                for inst in live])
            entry = tuple([position[inst.instance_id]
                           for inst in store.in_stage_entry_order()])
            instances.append((name, rows, entry))
        counters, peaks = self.stats.export()
        return MonitorState(
            now=self._now,
            instances=tuple(instances),
            lost_pending_ops=self.pending_op_count(),
            counters=counters,
            peaks=peaks,
            sheds=dict(self.ledger.counts),
        )

    def restore_state(self, state: MonitorState) -> None:
        """Rebuild instances (and their timers) from a checkpoint.

        The monitor must be fresh (nothing live, nothing on its agenda)
        and have every property registered that the exporter had; both
        are checked before anything is added, so a rejected checkpoint
        leaves the monitor as it was.  The exporter's counters, gauge
        high-watermarks and ledger counts are taken over as they were
        (restoring an instance counts nothing), and so are its three
        orders (:meth:`export_state`), so from here on this monitor
        reports, in the same order, what the exporter would have.
        Timers re-arm at their saved absolute deadlines, under their
        saved agenda numbers: a deadline in a checkpoint is always
        strictly in the checkpoint's future (an elapsed timer would have
        fired before the export), so nothing fires during restore.
        """
        unknown = [name for name, _, _ in state.instances
                   if name not in self._props]
        if unknown:
            raise ValueError(
                f"checkpoint references unknown properties {unknown!r}")
        if self._live_total or self._agenda:
            raise ValueError(
                f"restore_state needs a fresh monitor; this one has "
                f"{self._live_total} live instances")
        last_seq = 0
        for name, rows, entry in state.instances:
            prop, store = self._props[name], self._stores[name]
            restored = []
            for (key, env, stage, created_at, advanced_at, deadline,
                 deadline_kind, timer_seq, provenance) in rows:
                instance = Instance(prop, key, dict(env),
                                    created_at=created_at)
                instance.stage = stage
                instance.advanced_at = advanced_at
                instance.provenance = [StageRecord(*r) for r in provenance]
                store.add(instance)
                restored.append(instance)
                if deadline is not None:
                    self._set_deadline(instance, deadline, deadline_kind,
                                       seq=timer_seq)
                    last_seq = max(last_seq, timer_seq)
            # add() filed them in creation order: re-file each at the
            # back of its stage population and buckets, in entry order.
            for i in entry:
                store.reindex(restored[i], restored[i].stage)
            if rows:
                self._live_changed(name, len(rows))
        self._seq = itertools.count(max(next(self._seq), last_seq + 1))
        if state.now > self._now:
            self._now = state.now
        self._track_peak()
        self.stats.restore(state.counters, state.peaks)
        self.ledger.counts = dict(state.sheds)

    # -- conveniences ------------------------------------------------------------------
    def attach(self, switch) -> None:
        """Attach to a switch's dataplane event stream."""
        switch.add_tap(self.observe)

    def flush(self, until: float) -> None:
        """Drive monitor time to ``until`` (fires due timers/pending ops)."""
        self.advance_to(until)
