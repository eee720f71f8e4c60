"""Chaos rounds over the Table-1 catalog, with degradation reporting.

This is the harness behind ``repro chaos``.  One round, :func:`run_chaos`,
serves every :class:`~repro.faults.profiles.ChaosProfile`: it replays a
seeded mixed workload against the full property catalog twice — through
a clean :class:`~repro.core.Monitor` and through the profile's monitor —
and compares the two in one :class:`DegradationReport`.  The profile's
monitor is a forked :class:`~repro.fabric.ShardedMonitor`, whose
workers are SIGKILLed between batches, exactly when the profile has a
worker-crash plan, and one ``Monitor`` otherwise.

The degraded run's overflow ledger turns its raw violation count into an
uncertainty interval (``degraded - n <= true <= degraded + n`` for ``n``
ledgered sheds), overall and per property.  For profiles whose only
divergence sources are monitor-side (``profile.ledgered``), the clean
count is checked against that interval.  Profiles with link faults
perturb the event stream before the monitor sees it, so they report
detection recall instead.  :func:`check_invariants` holds both runs,
fabric included, to the accounting and liveness guarantees.

Everything runs on the virtual clock from one seed: two invocations with
the same profile and seed produce identical reports.
"""

from __future__ import annotations

import os
import random
import signal
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core import Monitor
from ..core.violations import Violation
from ..fabric import ShardedMonitor, SupervisorPolicy
from ..props import build_table1
from ..switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)
from ..telemetry import MetricsRegistry
from .profiles import ChaosProfile, FaultyEventChannel, monitor_profile_kwargs

DEFAULT_EVENTS = 2000
DEFAULT_SETTLE = 600.0
#: events per ``observe_batch`` call; a crash schedule's SIGKILLs fall
#: between batches
BATCH = 256

#: How a worker-crash round supervises its workers: fast detection and
#: restart, so a virtual-time replay does not stall on wall-clock backoff.
SOAK_SUPERVISION = SupervisorPolicy(
    heartbeat_interval=0.2, heartbeat_timeout=10.0,
    backoff_base=0.01, backoff_max=0.5)


def catalog_trace(seed: int, num_events: int = DEFAULT_EVENTS) -> List:
    """A randomized event stream touching every protocol Table 1 reads.

    TCP data and SYN/FIN traffic, ARP request/reply, DHCP, raw ethernet,
    port up/down out-of-band events, with uid-coherent egress of
    previously arrived packets.
    """
    from ..packet import (
        DhcpMessageType,
        arp_reply,
        arp_request,
        dhcp_packet,
        ethernet,
        tcp_fin,
        tcp_packet,
        tcp_syn,
    )

    rng = random.Random(seed)
    events: List = []
    t = 0.0
    uid_pool: List = []
    for _ in range(num_events):
        t += rng.uniform(1e-4, 0.05)
        roll = rng.random()
        src, dst = rng.randint(1, 8), rng.randint(1, 8)
        if roll < 0.25:
            packet = tcp_packet(src, dst, f"10.0.0.{src}",
                                f"198.51.100.{dst}",
                                rng.randint(1000, 1040),
                                rng.choice([80, 22, 7001, 7002, 8080]))
        elif roll < 0.40:
            packet = tcp_syn(src, 0xFE, f"10.0.0.{src}", "10.0.0.100",
                             rng.randint(1000, 1040), 8080)
        elif roll < 0.55:
            packet = arp_request(src, f"10.0.0.{src}",
                                 f"10.0.0.{rng.randint(1, 120)}")
        elif roll < 0.62:
            packet = arp_reply(src, f"10.0.0.{src}", dst, f"10.0.0.{dst}")
        elif roll < 0.72:
            packet = dhcp_packet(src, rng.choice(
                [DhcpMessageType.REQUEST, DhcpMessageType.ACK,
                 DhcpMessageType.RELEASE]),
                xid=rng.randint(1, 9),
                yiaddr=f"10.0.0.{100 + rng.randint(0, 9)}",
                server_id=f"10.0.0.{250 + rng.randint(0, 3)}")
        elif roll < 0.80:
            packet = tcp_fin(src, dst, f"10.0.0.{src}", f"198.51.100.{dst}",
                             rng.randint(1000, 1040), 80)
        elif roll < 0.85:
            events.append(OutOfBandEvent(
                switch_id="s", time=t,
                oob_kind=rng.choice([OobKind.PORT_DOWN, OobKind.PORT_UP]),
                port=rng.randint(1, 4)))
            continue
        else:
            packet = ethernet(src, dst)
        kind = rng.random()
        if kind < 0.5:
            events.append(PacketArrival(switch_id="s", time=t, packet=packet,
                                        in_port=rng.randint(1, 4)))
            uid_pool.append(packet)
        elif kind < 0.85 and uid_pool:
            prior = rng.choice(uid_pool[-50:])
            events.append(PacketEgress(
                switch_id="s", time=t, packet=prior, in_port=1,
                out_port=rng.randint(1, 4),
                action=rng.choice([EgressAction.UNICAST, EgressAction.FLOOD])))
        else:
            events.append(PacketDrop(switch_id="s", time=t, packet=packet,
                                     in_port=rng.randint(1, 4), reason="x"))
    return events


def build_monitor(
    profile: Optional[ChaosProfile] = None,
    registry: Optional[MetricsRegistry] = None,
    num_shards: int = 0,
    supervision: Optional[SupervisorPolicy] = None,
) -> Union[Monitor, ShardedMonitor]:
    """A catalog monitor, optionally configured for a chaos profile: one
    :class:`Monitor`, or with ``num_shards`` a
    :class:`~repro.fabric.ShardedMonitor` of that many forked workers
    under ``supervision``.

    Each shard worker gets its own copy of the profile-derived kwargs —
    in particular its own control-channel fault source and its own
    bounded-store budget (per-shard capacity, a documented difference
    from the single monitor's global bound).
    """
    props = [entry.prop for entry in build_table1()]
    kwargs = monitor_profile_kwargs(profile)
    if num_shards:
        return ShardedMonitor(props, num_shards=num_shards, registry=registry,
                              monitor_kwargs=kwargs, supervision=supervision)
    monitor = Monitor(registry=registry, **kwargs)
    for prop in props:
        monitor.add_property(prop)
    return monitor


def fingerprint(violations: Iterable[Violation]) -> List[Tuple]:
    """Deterministic digest of every violation (order-sensitive)."""
    return [
        (v.property_name, round(v.time, 9),
         tuple(sorted((k, str(val)) for k, val in v.bindings.items())))
        for v in violations
    ]


def count_by_property(violations: Iterable[Violation]) -> Dict[str, int]:
    """Violation count per property name."""
    return dict(Counter(v.property_name for v in violations))


@dataclass
class RunResult:
    """One monitor run: verdicts plus the state needed for invariants.

    ``monitor`` is a :class:`Monitor`, or for a worker-crash profile the
    stopped :class:`~repro.fabric.ShardedMonitor`, whose run also fills
    ``recovery`` (see :class:`DegradationReport`)."""

    monitor: Union[Monitor, ShardedMonitor]
    events_offered: int
    events_seen: int
    link_counters: Dict[str, int]
    recovery: Optional[Dict[str, object]] = None


def crash_schedule(
    profile: ChaosProfile,
    num_events: int,
    num_shards: int,
    batch: int = BATCH,
) -> Dict[int, List[int]]:
    """Map batch-start event index -> shards to SIGKILL just before it.

    Kill *k* of shard *s* lands at ``at_fractions[k % len]`` of the
    stream, staggered one batch per shard so no two shards die at the
    same point (independent recoveries, not a correlated outage).
    """
    crash = profile.worker_crash
    schedule: Dict[int, List[int]] = {}
    num_batches = max(1, (num_events + batch - 1) // batch)
    for shard in range(num_shards):
        for k in range(crash.kills_per_shard):
            fraction = crash.at_fractions[k % len(crash.at_fractions)]
            index = min(num_batches - 1,
                        int(num_batches * fraction) + shard)
            schedule.setdefault(index * batch, []).append(shard)
    return schedule


def run_events(
    profile: Optional[ChaosProfile],
    events: List,
    settle: float = DEFAULT_SETTLE,
    registry: Optional[MetricsRegistry] = None,
    num_shards: int = 2,
    supervision: SupervisorPolicy = SOAK_SUPERVISION,
) -> RunResult:
    """Feed one event stream, after the profile's link faults, through
    the profile's monitor: a fabric of ``num_shards`` supervised workers
    that :func:`crash_schedule` SIGKILLs between batches where the
    profile has a worker-crash plan, one :class:`Monitor` elsewhere.
    It is fed ``BATCH`` events at a time, advanced ``settle`` past the
    last event and stopped there: an op still deferred then stays
    pending, for :func:`check_invariants` to report."""
    offered = len(events)
    link_counters: Dict[str, int] = {}
    if profile is not None and not profile.link.is_null:
        channel = FaultyEventChannel(profile.link, name=profile.name)
        events = channel.transform(events)
        link_counters = dict(channel.counters)
    fabric = profile is not None and not profile.worker_crash.is_null
    monitor = build_monitor(profile, registry,
                            num_shards if fabric else 0, supervision)
    schedule = crash_schedule(profile, len(events), num_shards) \
        if fabric else {}
    if registry is not None:
        registry.time_fn = lambda: monitor.now
    kills = {"kills_delivered": 0, "kills_skipped": 0}
    try:
        for start in range(0, len(events), BATCH):
            for shard in schedule.get(start, ()):
                pid = monitor.supervisor.worker_pids()[shard]
                if pid is None:  # already down: nothing to kill
                    kills["kills_skipped"] += 1
                    continue
                os.kill(pid, signal.SIGKILL)
                kills["kills_delivered"] += 1
            monitor.observe_batch(events[start:start + BATCH])
        if events:
            monitor.advance_to(events[-1].time + settle)
        monitor.stop(monitor.now)
    except BaseException:
        if fabric:
            monitor.close()
        raise
    result = RunResult(monitor, offered, len(events), link_counters)
    if fabric:
        result.recovery = {**kills, **monitor.recovery()}
    return result


def check_invariants(monitor: Union[Monitor, ShardedMonitor]) -> List[str]:
    """The soak-mode guarantees: nothing crashed, leaked, or stalled.

    A fabric answers through its shards' merged counters, and a shard
    out of restart budget has stalled; only a :class:`Monitor` shows its
    stores, so capacity is checked there.
    """
    problems: List[str] = []
    stats = monitor.stats
    retired = (stats.violations + stats.instances_expired
               + stats.instances_discharged + stats.instances_cancelled
               + stats.instances_evicted)
    live = monitor.live_instances()
    if stats.instances_created != live + retired:
        problems.append(
            f"instance accounting leak: created={stats.instances_created} "
            f"!= live={live} + retired={retired}")
    if monitor.pending_op_count() != 0:
        problems.append(
            f"{monitor.pending_op_count()} split-mode op(s) never applied "
            "after settle")
    if isinstance(monitor, ShardedMonitor):
        if monitor.supervisor.failed():
            problems.append(f"shard(s) {monitor.supervisor.failed()} out of "
                            "restart budget")
        return problems
    for name, store in monitor._stores.items():
        if store.capacity is not None and store.live_count > store.capacity:
            problems.append(
                f"store {name!r} over capacity: "
                f"{store.live_count} > {store.capacity}")
    return problems


@dataclass
class PropertyDegradation:
    """Clean-vs-degraded verdict for one property."""

    name: str
    clean: int
    degraded: int
    #: ledgered sheds of this property or of none: each bounds both sides
    potential: int
    interval: Tuple[int, int]
    #: whether the clean count falls inside the interval; None when the
    #: profile has unledgered divergence sources (link faults)
    bounded: Optional[bool]
    recall: float


@dataclass
class DegradationReport:
    """What running a chaos profile did to detection quality.

    The same report for every profile.  A worker-crash round also fills
    ``recovery``: ``kills_delivered`` and ``kills_skipped`` (the shard
    was already down), then :meth:`~repro.fabric.ShardedMonitor.recovery`:
    ``restarts``, ``quarantined_batches``, ``failed_shards`` and one
    liveness row per shard (``shards``).
    """

    FAILURE = ("chaos run FAILED: invariant violation or clean count "
               "outside the ledgered uncertainty interval")

    profile: str
    seed: int
    events_offered: int
    events_delivered: int
    clean_total: int
    degraded_total: int
    interval: Tuple[int, int]
    bounded: Optional[bool]
    recall: float
    properties: List[PropertyDegradation]
    ledger: Dict[str, object]
    link_counters: Dict[str, int]
    recovery: Optional[Dict[str, object]] = None
    invariant_failures: List[str] = field(default_factory=list)
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.invariant_failures) or self.bounded is False

    def to_dict(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "events": {
                "offered": self.events_offered,
                "delivered": self.events_delivered,
            },
            "violations": {
                "clean": self.clean_total,
                "degraded": self.degraded_total,
                "interval": list(self.interval),
                "bounded": self.bounded,
                "recall": self.recall,
            },
            "properties": [
                {
                    "name": p.name,
                    "clean": p.clean,
                    "degraded": p.degraded,
                    "potential_missed": p.potential,
                    "potential_false": p.potential,
                    "interval": list(p.interval),
                    "bounded": p.bounded,
                    "recall": p.recall,
                }
                for p in self.properties
            ],
            "ledger": self.ledger,
            "link_counters": self.link_counters,
            "recovery": self.recovery,
            "invariant_failures": list(self.invariant_failures),
            "telemetry": self.telemetry,
        }

    def render(self) -> str:
        """Human-readable degradation report."""
        lines: List[str] = []
        lo, hi = self.interval
        lines.append(
            f"profile {self.profile!r} seed={self.seed}: "
            f"{self.events_delivered}/{self.events_offered} events "
            "reached the monitor")
        if self.bounded is None:
            bound = "unledgered (link faults): recall only"
        else:
            bound = "clean count WITHIN interval" if self.bounded \
                else "clean count OUTSIDE interval"
        lines.append(
            f"violations: clean={self.clean_total} "
            f"degraded={self.degraded_total} "
            f"interval=[{lo}, {hi}] recall={self.recall:.3f} ({bound})")
        rec = self.recovery
        if rec is not None:
            skipped = rec["kills_skipped"]
            lines.append(
                f"recovery: {len(rec['shards'])} mp shards, "
                f"{rec['kills_delivered']} SIGKILL(s) delivered"
                + (f" ({skipped} skipped: shard already down)"
                   if skipped else "")
                + f", restarts={rec['restarts']} "
                f"quarantined_batches={rec['quarantined_batches']} "
                f"failed_shards={rec['failed_shards'] or 'none'}")
            for row in rec["shards"]:
                lines.append(
                    f"  shard {row['shard']}: restarts={row['restarts']} "
                    f"journal={row['journal_events']} "
                    f"quarantined={row['quarantined_batches']}"
                    + (f" FAILED ({row['down_reason']})"
                       if row["failed"] else ""))
        shed = self.ledger.get("by_kind", {})
        lines.append("overflow ledger: " + (", ".join(
            f"{k}={v}" for k, v in sorted(shed.items())) or "empty"))
        for p in self.properties:
            if p.clean == 0 and p.degraded == 0 and p.potential == 0:
                continue
            mark = ""
            if p.bounded is True:
                mark = " ok"
            elif p.bounded is False:
                mark = " OUT-OF-BOUNDS"
            lines.append(
                f"  {p.name:<28} clean={p.clean:<4} degraded={p.degraded:<4} "
                f"interval=[{p.interval[0]}, {p.interval[1]}] "
                f"recall={p.recall:.2f}{mark}")
        for problem in self.invariant_failures:
            lines.append(f"  INVARIANT VIOLATED: {problem}")
        return "\n".join(lines)


def _recall(clean: int, degraded: int) -> float:
    if clean == 0:
        return 1.0
    return min(clean, degraded) / clean


def compare_runs(
    profile: ChaosProfile,
    seed: int,
    clean: RunResult,
    degraded: RunResult,
) -> DegradationReport:
    """Build the degradation report from a clean/degraded run pair."""
    ledger = degraded.monitor.ledger
    clean_counts = count_by_property(clean.monitor.violations)
    degraded_counts = count_by_property(degraded.monitor.violations)
    names = sorted(set(clean_counts) | set(degraded_counts)
                   | set(ledger.properties()))
    properties: List[PropertyDegradation] = []
    for name in names:
        c = clean_counts.get(name, 0)
        d = degraded_counts.get(name, 0)
        interval = ledger.interval(d, name)
        properties.append(PropertyDegradation(
            name=name,
            clean=c,
            degraded=d,
            potential=ledger.count(name),
            interval=interval,
            bounded=(interval[0] <= c <= interval[1])
            if profile.ledgered else None,
            recall=_recall(c, d),
        ))
    clean_total = len(clean.monitor.violations)
    degraded_total = len(degraded.monitor.violations)
    interval = ledger.interval(degraded_total)
    return DegradationReport(
        profile=profile.name,
        seed=seed,
        events_offered=degraded.events_offered,
        events_delivered=degraded.events_seen,
        clean_total=clean_total,
        degraded_total=degraded_total,
        interval=interval,
        bounded=(interval[0] <= clean_total <= interval[1])
        if profile.ledgered else None,
        recall=_recall(clean_total, degraded_total),
        properties=properties,
        ledger=ledger.summary(),
        link_counters=degraded.link_counters,
        recovery=degraded.recovery,
        invariant_failures=check_invariants(degraded.monitor)
        + check_invariants(clean.monitor),
    )


def run_chaos(
    profile: ChaosProfile,
    seed: int,
    num_events: int = DEFAULT_EVENTS,
    settle: float = DEFAULT_SETTLE,
    with_telemetry: bool = True,
    num_shards: int = 2,
    supervision: SupervisorPolicy = SOAK_SUPERVISION,
) -> DegradationReport:
    """One chaos round: ``catalog_trace(seed, num_events)`` through a
    clean :class:`Monitor` and through the profile's monitor (see
    :func:`run_events`; ``num_shards`` and ``supervision`` shape the
    fabric of a worker-crash profile), then the report."""
    events = catalog_trace(seed, num_events)
    clean = run_events(None, events, settle=settle)
    registry = MetricsRegistry() if with_telemetry else None
    degraded = run_events(profile, events, settle=settle, registry=registry,
                          num_shards=num_shards, supervision=supervision)
    report = compare_runs(profile, seed, clean, degraded)
    if registry is not None:
        report.telemetry = registry.snapshot()
    return report
