"""The software switch.

A :class:`Switch` owns a match-action :class:`~repro.switch.pipeline.Pipeline`,
register state, ports, an optional controller application, and a set of
**event taps** — the hook a monitor attaches to.  Taps receive the full
dataplane event stream of Sec. 2: arrivals, egresses (with the switch's own
output decision visible), drops (if the switch supports drop visibility),
out-of-band events, and timer firings.

Two design axes from the paper are explicit constructor knobs:

* **Side-effect control (Feature 9)** — ``ProcessingMode.INLINE`` applies
  state updates before the packet departs, adding the update cost to the
  packet's forwarding latency; ``ProcessingMode.SPLIT`` forwards
  immediately and applies updates after ``split_lag`` seconds of virtual
  time, so state can lag behind packets issued in response (the monitor
  error the paper predicts).
* **Drop visibility** — ``drop_visibility=False`` reproduces the
  OpenFlow-1.5 gap where dropped packets never reach the egress stage, so
  taps see no :class:`PacketDrop` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from ..netsim.scheduler import EventScheduler
from ..packet.packet import Packet
from ..telemetry import NULL_TRACER, MetricsRegistry, NullRegistry, Tracer
from ..telemetry.metrics import LATENCY_BUCKETS, StatsView
from .actions import (
    Action,
    DeleteRules,
    Learn,
    Notify,
    Output,
    RegisterWrite,
    SetField,
)
from .events import (
    DataplaneEvent,
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
    TimerFired,
)
from .match import MatchSpec
from .pipeline import Alert, MissPolicy, Pipeline, PipelineResult, StateUpdate
from .registers import GlobalArrays, RegisterArray, StateCostMeter
from .tables import ExpiredRule, FlowRule

#: Seconds of simulated latency per abstract cost tick (inline mode).
TICK_SECONDS = 1e-6
#: Baseline store-and-forward latency for any packet.
BASE_FORWARD_LATENCY = 5e-6

#: Canonical split-mode state-update lag (Sec. 3.3): how long a deferred
#: update stays in flight.  The Monitor, BackendMonitor, the
#: split-vs-inline bench, and the linter's hazard classification all key
#: off this one value.
DEFAULT_SPLIT_LAG = 500e-6


class ProcessingMode(Enum):
    """Feature 9: how state updates interleave with forwarding."""

    INLINE = "inline"
    SPLIT = "split"


class SwitchApp(Protocol):
    """Controller-application interface (packet-in style)."""

    def setup(self, switch: "Switch") -> None:
        """Install initial rules / state when attached."""

    def on_packet_in(self, switch: "Switch", packet: Packet, in_port: int) -> None:
        """Handle a punted packet."""

    def on_oob(self, switch: "Switch", event: OutOfBandEvent) -> None:
        """Handle an out-of-band event (link/port status)."""


Tap = Callable[[DataplaneEvent], None]
Receiver = Callable[[Packet], None]


class SwitchStats(StatsView):
    """Aggregate forwarding statistics — ``switch.stats.arrivals`` and the
    exported ``repro_switch_arrivals_total`` sample are the SAME cell (see
    :class:`~repro.telemetry.StatsView`)."""

    _COUNTERS = {
        "arrivals": "repro_switch_arrivals_total",
        "unicasts": "repro_switch_unicasts_total",
        "floods": "repro_switch_floods_total",
        "drops": "repro_switch_drops_total",
        "controller_punts": "repro_switch_controller_punts_total",
        "alerts": "repro_switch_alerts_total",
    }

    __slots__ = ()

    @property
    def total_forward_latency(self) -> float:
        return self._registry.counter(
            "repro_switch_forward_latency_seconds_total").value

    @property
    def mean_forward_latency(self) -> float:
        done = self.unicasts + self.floods
        return self.total_forward_latency / done if done else 0.0


class Switch:
    """A single software switch on virtual time."""

    def __init__(
        self,
        switch_id: str,
        scheduler: EventScheduler,
        num_ports: int = 4,
        num_tables: int = 1,
        num_egress_tables: int = 0,
        miss_policy: MissPolicy = MissPolicy.FLOOD,
        max_parse_layer: int = 7,
        mode: ProcessingMode = ProcessingMode.INLINE,
        split_lag: float = DEFAULT_SPLIT_LAG,
        drop_visibility: bool = True,
        app: Optional[SwitchApp] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if num_ports < 1:
            raise ValueError("switch needs at least one port")
        self.switch_id = switch_id
        self.scheduler = scheduler
        self.meter = StateCostMeter()
        self.registry = registry if registry is not None else NullRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pipeline = Pipeline(
            num_tables=num_tables,
            num_egress_tables=num_egress_tables,
            miss_policy=miss_policy,
            max_parse_layer=max_parse_layer,
            meter=self.meter,
            registry=self.registry,
        )
        self.ports: Dict[int, bool] = {p: True for p in range(1, num_ports + 1)}
        self.mode = mode
        self.split_lag = split_lag
        self.drop_visibility = drop_visibility
        self._init_instruments()
        self.stats = SwitchStats(self.registry)
        self.globals = GlobalArrays(meter=self.meter)
        self._registers: Dict[str, RegisterArray] = {}
        self._taps: List[Tap] = []
        self._alert_sinks: List[Callable[[Alert], None]] = []
        self._receivers: Dict[int, Receiver] = {}
        self._expiry_timer = None
        self._app = app
        if app is not None:
            app.setup(self)

    def _init_instruments(self) -> None:
        """Cache hot-path instrument handles (no per-packet dict lookups)."""
        r = self.registry
        self._c_arrivals = r.counter(
            "repro_switch_arrivals_total", help="Packets received on any port")
        self._c_unicasts = r.counter(
            "repro_switch_unicasts_total", help="Unicast packet departures")
        self._c_floods = r.counter(
            "repro_switch_floods_total", help="Flood decisions")
        self._c_drops = r.counter(
            "repro_switch_drops_total", help="Packets dropped by the pipeline")
        self._c_punts = r.counter(
            "repro_switch_controller_punts_total",
            help="Packets punted to the controller slow path")
        self._c_alerts = r.counter(
            "repro_switch_alerts_total",
            help="Dataplane-raised Notify alerts")
        self._c_latency_sum = r.counter(
            "repro_switch_forward_latency_seconds_total",
            help="Cumulative forwarding latency over all departures",
            unit="seconds")
        self._h_latency = r.histogram(
            "repro_switch_forward_latency_seconds",
            help="Per-departure forwarding latency",
            unit="seconds",
            buckets=LATENCY_BUCKETS)

    # -- wiring ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.scheduler.clock.now()

    def attach(self, port: int, receiver: Receiver) -> None:
        """Connect a link/host receiver to a port."""
        self._check_port(port)
        self._receivers[port] = receiver

    def add_tap(self, tap: Tap) -> None:
        """Subscribe a monitor to the dataplane event stream."""
        self._taps.append(tap)

    def add_alert_sink(self, sink: Callable[[Alert], None]) -> None:
        """Subscribe to dataplane-raised Notify alerts."""
        self._alert_sinks.append(sink)

    def set_app(self, app: SwitchApp) -> None:
        self._app = app
        app.setup(self)

    def register_array(self, name: str, size: int = 1024) -> RegisterArray:
        """Get-or-create a named register array (P4-style state)."""
        if name not in self._registers:
            self._registers[name] = RegisterArray(name, size, meter=self.meter)
        return self._registers[name]

    def _check_port(self, port: int) -> None:
        if port not in self.ports:
            raise ValueError(f"switch {self.switch_id} has no port {port}")

    def up_ports(self) -> Tuple[int, ...]:
        return tuple(p for p, up in sorted(self.ports.items()) if up)

    # -- rule management (controller-facing) ---------------------------------
    def install_rule(
        self,
        match: MatchSpec,
        actions: Sequence[Action],
        table_id: int = 0,
        priority: int = 100,
        idle_timeout: Optional[float] = None,
        hard_timeout: Optional[float] = None,
        on_timeout: Sequence[Action] = (),
        cookie: str = "",
    ) -> FlowRule:
        """Install a rule via the slow path (flow_mod)."""
        self.meter.charge_slow_update()
        rule = self.pipeline.table(table_id).install(
            match,
            actions,
            priority=priority,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            on_timeout=on_timeout,
            cookie=cookie,
            now=self.now,
        )
        self._arm_expiry_timer()
        return rule

    def _arm_expiry_timer(self) -> None:
        deadline = self.pipeline.next_deadline()
        if deadline is None:
            return
        if self._expiry_timer is not None and self._expiry_timer.when <= deadline:
            return
        if self._expiry_timer is not None:
            self.scheduler.cancel(self._expiry_timer)
        self._expiry_timer = self.scheduler.call_at(
            max(deadline, self.now), self._on_expiry_deadline, label="rule-expiry"
        )

    def _on_expiry_deadline(self) -> None:
        self._expiry_timer = None
        for expired in self.pipeline.expire(self.now):
            if expired.rule.on_timeout:
                self._emit(
                    TimerFired(
                        switch_id=self.switch_id,
                        time=self.now,
                        instance_key=(expired.rule.cookie, expired.rule.rule_id),
                        timer_id=expired.rule.cookie or f"rule-{expired.rule.rule_id}",
                    )
                )
                for action in expired.rule.on_timeout:
                    self._run_timeout_action(action)
        self._arm_expiry_timer()

    def _run_timeout_action(self, action: Action) -> None:
        """Execute a Feature-7 timeout action (no packet context)."""
        if isinstance(action, Learn):
            self._apply_learn(action)
        elif isinstance(action, RegisterWrite):
            array = self.register_array(action.array)
            array.write(int(action.index), int(action.value))  # type: ignore[arg-type]
        elif isinstance(action, DeleteRules):
            self.delete_rules(action.cookie, action.table_id)
        elif isinstance(action, Notify):
            alert = Alert(message=action.message, carried=dict(action.baked),
                          packet_uid=0)
            self._c_alerts.inc()
            for sink in self._alert_sinks:
                sink(alert)
        # Output/Drop are meaningless without a packet; ignore silently —
        # backends never compile them into on_timeout.

    # -- dataplane ------------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> PipelineResult:
        """A packet arrives on ``in_port``; run the full dataplane path."""
        self._check_port(in_port)
        if not self.ports[in_port]:
            raise ValueError(f"port {in_port} is down")
        arrival_time = self.now
        self._c_arrivals.inc()
        # The root span opens BEFORE the arrival reaches the taps, so a
        # monitor processing this packet synchronously nests its spans
        # under it (uid correlation across the layers).
        root = None
        if self.tracer.enabled:
            root = self.tracer.start(
                "switch.receive", arrival_time, uid=packet.uid, root=True,
                switch=self.switch_id, in_port=in_port)
        self._emit(
            PacketArrival(
                switch_id=self.switch_id,
                time=arrival_time,
                packet=packet,
                in_port=in_port,
            )
        )

        pspan = None
        if root is not None:
            pspan = self.tracer.start(
                "pipeline.process", arrival_time, uid=packet.uid)
        ticks_before = self.meter.total_ticks
        result = self.pipeline.process(packet, in_port, arrival_time)

        # Feature 9: inline mode applies state updates *now*, charging their
        # cost to this packet's latency; split mode defers them.
        if self.mode is ProcessingMode.INLINE:
            for update in result.updates:
                self._apply_update(update)
        else:
            for update in result.updates:
                self.scheduler.call_after(
                    self.split_lag,
                    lambda u=update: self._apply_update(u),
                    label="split-state-update",
                )

        ticks_spent = self.meter.total_ticks - ticks_before
        latency = BASE_FORWARD_LATENCY + ticks_spent * TICK_SECONDS
        egress_time = arrival_time + latency
        if pspan is not None:
            self.tracer.end(
                pspan, egress_time,
                tables=result.tables_traversed,
                matched=len(result.matched_rules))

        for alert in result.alerts:
            self._c_alerts.inc()
            for sink in self._alert_sinks:
                sink(alert)

        if result.dropped and not result.forwarded:
            self._c_drops.inc()
            if self.drop_visibility:
                self._emit(
                    PacketDrop(
                        switch_id=self.switch_id,
                        time=egress_time,
                        packet=packet,
                        in_port=in_port,
                        reason=result.drop_reason,
                    )
                )
        if result.to_controller:
            self._c_punts.inc()
            self.meter.charge_slow_update()
            if self._app is not None:
                self._app.on_packet_in(self, packet, in_port)

        telemetry = self.registry.enabled
        if result.flooded:
            self._c_floods.inc()
            self._c_latency_sum.inc(latency)
            if telemetry:
                self._h_latency.observe(latency)
            for port in self.up_ports():
                if port != in_port:
                    self._send(packet.duplicate(), port, in_port, egress_time,
                               EgressAction.FLOOD)
        for out_port, out_packet in result.outputs:
            self._c_unicasts.inc()
            self._c_latency_sum.inc(latency)
            if telemetry:
                self._h_latency.observe(latency)
            self._send(out_packet, out_port, in_port, egress_time,
                       EgressAction.UNICAST)
        if root is not None:
            self.tracer.end(
                root, egress_time,
                forwarded=result.forwarded, dropped=result.dropped,
                punted=result.to_controller)
        return result

    def inject(self, packet: Packet, out_port: int) -> None:
        """Controller/app-originated packet-out (unicast)."""
        self._check_port(out_port)
        self._send(packet, out_port, in_port=0, when=self.now,
                   action=EgressAction.UNICAST)

    def flood(self, packet: Packet, in_port: int = 0) -> None:
        """App-directed flood: all up ports except ``in_port``.

        Egress events carry ``EgressAction.FLOOD`` so a monitor can match
        on the switch's own output decision (flood vs. unicast) — the
        metadata-matching capability Sec. 3.2 calls a critical gap.
        """
        self._c_floods.inc()
        for port in self.up_ports():
            if port != in_port:
                self._send(packet.duplicate(), port, in_port, self.now,
                           EgressAction.FLOOD)

    def drop(self, packet: Packet, in_port: int, reason: str = "app-drop") -> None:
        """App-directed drop; visible to taps only with drop visibility."""
        self._c_drops.inc()
        if self.drop_visibility:
            self._emit(
                PacketDrop(
                    switch_id=self.switch_id,
                    time=self.now,
                    packet=packet,
                    in_port=in_port,
                    reason=reason,
                )
            )

    def _send(
        self,
        packet: Packet,
        out_port: int,
        in_port: int,
        when: float,
        action: EgressAction,
    ) -> None:
        if not self.ports.get(out_port, False):
            return  # output to a downed port is silently discarded
        self._emit(
            PacketEgress(
                switch_id=self.switch_id,
                time=when,
                packet=packet,
                out_port=out_port,
                in_port=in_port,
                action=action,
            )
        )
        receiver = self._receivers.get(out_port)
        if receiver is not None:
            if when > self.now:
                self.scheduler.call_at(
                    when, lambda p=packet, r=receiver: r(p), label="deliver"
                )
            else:
                receiver(packet)

    def _apply_update(self, update: StateUpdate) -> None:
        if isinstance(update.action, Learn):
            self.meter.charge_slow_update()
            self._apply_learn(update.action)
        elif isinstance(update.action, RegisterWrite):
            array = self.register_array(update.action.array)
            array.write(int(update.action.index), int(update.action.value))  # type: ignore[arg-type]
        elif isinstance(update.action, DeleteRules):
            self.meter.charge_slow_update()
            self.delete_rules(update.action.cookie, update.action.table_id)
        else:  # pragma: no cover - pipeline collects only state actions
            raise TypeError(f"cannot apply update {update.action!r}")

    def delete_rules(self, cookie: str, table_id: Optional[int] = None) -> int:
        """Remove rules by cookie (Varanus on-switch deletion extension)."""
        removed = 0
        for table in self.pipeline.tables + self.pipeline.egress_tables:
            if table_id is not None and table.table_id != table_id:
                continue
            removed += table.remove_by_cookie(cookie)
        return removed

    def _apply_learn(self, learn: Learn) -> None:
        """Install the (already-resolved) rule a Learn action describes.

        Companion learns (``extra``) land in the SAME resolved table — for
        a fresh-table learn (-1) that means one unrolled instance table
        holds the watcher plus its timer/cancel rules together.
        """
        match = MatchSpec()
        for name, value in learn.match:
            if name in learn.negate:
                match = match.neq(name, value)
            else:
                match = match.eq(name, value)
        table = self._table_for_learn(learn.table_id)
        for companion in learn.extra:
            pinned = Learn(
                table_id=table.table_id,
                match=companion.match,
                actions=companion.actions,
                priority=companion.priority,
                negate=companion.negate,
                idle_timeout=companion.idle_timeout,
                hard_timeout=companion.hard_timeout,
                on_timeout=companion.on_timeout,
                cookie=companion.cookie,
                extra=companion.extra,
            )
            self._apply_learn(pinned)
        # Nested actions referring to "this table" (-2) become concrete now
        # that the target table is known (fresh tables get ids on creation).
        actions = self._localize(learn.actions, table.table_id)
        on_timeout = self._localize(learn.on_timeout, table.table_id)
        table.install(
            match,
            actions,
            priority=learn.priority,
            idle_timeout=learn.idle_timeout,
            hard_timeout=learn.hard_timeout,
            on_timeout=on_timeout,
            cookie=learn.cookie,
            now=self.now,
        )
        self._arm_expiry_timer()

    def _localize(self, actions: Sequence[Action], table_id: int):
        """Resolve table_id == -2 ('this table') inside installed actions."""
        out = []
        for action in actions:
            if isinstance(action, Learn) and action.table_id == -2:
                action = Learn(
                    table_id=table_id,
                    match=action.match,
                    actions=self._localize(action.actions, table_id),
                    priority=action.priority,
                    negate=action.negate,
                    idle_timeout=action.idle_timeout,
                    hard_timeout=action.hard_timeout,
                    on_timeout=self._localize(action.on_timeout, table_id),
                    cookie=action.cookie,
                    extra=tuple(self._localize((e,), table_id)[0]
                                for e in action.extra),
                )
            elif isinstance(action, DeleteRules) and action.table_id == -2:
                action = DeleteRules(cookie=action.cookie, table_id=table_id)
            out.append(action)
        return tuple(out)

    def _table_for_learn(self, table_id: int):
        """Find or grow to the learn target table (Varanus unrolling).

        ``table_id < 0`` requests a *fresh* table appended to the pipeline:
        the Varanus recursive-learn behaviour of giving each unrolled
        monitor instance its own table (so depth grows per instance).
        """
        if table_id < 0:
            return self.pipeline.add_table()
        for table in self.pipeline.tables:
            if table.table_id == table_id:
                return table
        while self.pipeline.tables[-1].table_id < table_id:
            self.pipeline.add_table()
        return self.pipeline.table(table_id)

    # -- out-of-band -------------------------------------------------------------
    def set_port_status(self, port: int, up: bool) -> None:
        """Administratively change a port; emits the out-of-band event."""
        self._check_port(port)
        if self.ports[port] == up:
            return
        self.ports[port] = up
        event = OutOfBandEvent(
            switch_id=self.switch_id,
            time=self.now,
            oob_kind=OobKind.PORT_UP if up else OobKind.PORT_DOWN,
            port=port,
        )
        self._emit(event)
        if self._app is not None:
            self._app.on_oob(self, event)

    def link_down(self, port: int) -> None:
        self.set_port_status(port, up=False)

    def link_up(self, port: int) -> None:
        self.set_port_status(port, up=True)

    # -- internals -----------------------------------------------------------------
    def _emit(self, event: DataplaneEvent) -> None:
        for tap in self._taps:
            tap(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Switch({self.switch_id!r}, depth={self.pipeline.depth}, "
            f"mode={self.mode.value})"
        )
