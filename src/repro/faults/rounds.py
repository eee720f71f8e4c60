"""Chaos rounds over the Table-1 catalog, with degradation reporting.

This is the harness behind ``repro chaos``: replay a seeded mixed workload
against the full property catalog twice — once clean, once under a named
:class:`~repro.faults.profiles.ChaosProfile` — and compare.  The degraded
run's overflow ledger turns its raw violation count into an uncertainty
interval (``degraded - n <= true <= degraded + n`` for ``n`` ledgered
sheds); for profiles whose only divergence sources are
monitor-side (``profile.ledgered``), the clean count is checked against
that interval.  Profiles with link faults perturb the event stream before
the monitor sees it, so they report detection recall instead.  A profile
with a worker-crash plan runs its degraded half on a forked fabric whose
workers are SIGKILLed mid-replay.

Everything runs on the virtual clock from one seed: two invocations with
the same profile and seed produce identical reports.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

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

#: How crash-chaos runs supervise their workers: fast detection and
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
) -> Monitor:
    """A catalog monitor, optionally configured for a chaos profile."""
    monitor = Monitor(registry=registry, **monitor_profile_kwargs(profile))
    for entry in build_table1():
        monitor.add_property(entry.prop)
    return monitor


def build_sharded_monitor(
    profile: Optional[ChaosProfile] = None,
    num_shards: int = 2,
    registry: Optional[MetricsRegistry] = None,
    supervision=None,
):
    """A catalog :class:`~repro.fabric.ShardedMonitor` for a profile.

    Each shard worker gets its own copy of the profile-derived kwargs —
    in particular its own control-channel fault source and its own
    bounded-store budget (per-shard capacity, a documented difference
    from the single monitor's global bound).  ``supervision`` is an
    optional :class:`~repro.fabric.SupervisorPolicy` for crash recovery.
    """
    props = [entry.prop for entry in build_table1()]
    return ShardedMonitor(
        props,
        num_shards=num_shards,
        registry=registry,
        monitor_kwargs=monitor_profile_kwargs(profile),
        supervision=supervision,
    )


def fingerprint(violations: Iterable[Violation]) -> List[Tuple]:
    """Deterministic digest of every violation (order-sensitive)."""
    return [
        (v.property_name, round(v.time, 9),
         tuple(sorted((k, str(val)) for k, val in v.bindings.items())))
        for v in violations
    ]


def count_by_property(violations: Iterable[Violation]) -> Dict[str, int]:
    """Violation count per property name."""
    counts: Dict[str, int] = {}
    for violation in violations:
        counts[violation.property_name] = \
            counts.get(violation.property_name, 0) + 1
    return counts


@dataclass
class RunResult:
    """One monitor run: verdicts plus the state needed for invariants."""

    monitor: Monitor
    events_offered: int
    events_seen: int
    link_counters: Dict[str, int]

    @property
    def per_property(self) -> Dict[str, int]:
        return count_by_property(self.monitor.violations)

    def fingerprint(self) -> List[Tuple]:
        return fingerprint(self.monitor.violations)


def run_events(
    profile: Optional[ChaosProfile],
    events: List,
    settle: float = DEFAULT_SETTLE,
    registry: Optional[MetricsRegistry] = None,
) -> RunResult:
    """Feed one event stream through a (possibly chaotic) monitor."""
    offered = len(events)
    link_counters: Dict[str, int] = {}
    if profile is not None and not profile.link.is_null:
        channel = FaultyEventChannel(profile.link, name=profile.name)
        events = channel.transform(events)
        link_counters = dict(channel.counters)
    monitor = build_monitor(profile, registry=registry)
    if registry is not None:
        registry.time_fn = lambda: monitor.now
    for event in events:
        monitor.observe(event)
    if events:
        monitor.advance_to(events[-1].time + settle)
    return RunResult(
        monitor=monitor,
        events_offered=offered,
        events_seen=len(events),
        link_counters=link_counters,
    )


def check_invariants(monitor: Monitor) -> List[str]:
    """The soak-mode guarantees: nothing crashed, leaked, or stalled."""
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
    for name, store in monitor._stores.items():
        if store.capacity is not None and store.live_count > store.capacity:
            problems.append(
                f"store {name!r} over capacity: "
                f"{store.live_count} > {store.capacity}")
    return problems


def _render_ledger(ledger: Dict[str, object]) -> str:
    shed = ledger.get("by_kind", {})
    if not shed:
        return "overflow ledger: empty"
    detail = ", ".join(f"{k}={v}" for k, v in sorted(shed.items()))
    return f"overflow ledger: {detail}"


@dataclass
class PropertyDegradation:
    """Clean-vs-degraded verdict for one property."""

    name: str
    clean: int
    degraded: int
    #: ledgered sheds of this property: each bounds both sides
    potential: int
    interval: Tuple[int, int]
    #: whether the clean count falls inside the interval; None when the
    #: profile has unledgered divergence sources (link faults)
    bounded: Optional[bool]
    recall: float


@dataclass
class DegradationReport:
    """What running a chaos profile did to detection quality."""

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
        lines.append(_render_ledger(self.ledger))
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
    clean_counts = clean.per_property
    degraded_counts = degraded.per_property
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
        invariant_failures=check_invariants(degraded.monitor)
        + check_invariants(clean.monitor),
    )


def run_chaos(
    profile: ChaosProfile,
    seed: int,
    num_events: int = DEFAULT_EVENTS,
    settle: float = DEFAULT_SETTLE,
    with_telemetry: bool = True,
) -> DegradationReport:
    """One full chaos round: clean reference run, degraded run, report."""
    events = catalog_trace(seed, num_events)
    clean = run_events(None, events, settle=settle)
    registry = MetricsRegistry() if with_telemetry else None
    degraded = run_events(profile, events, settle=settle, registry=registry)
    report = compare_runs(profile, seed, clean, degraded)
    if registry is not None:
        report.telemetry = registry.snapshot()
    return report


@dataclass
class CrashRecoveryReport:
    """What SIGKILLing fabric workers mid-run did to detection quality.

    The acceptance bar: the run completes with no unhandled exception,
    every killed worker restarts within the budget, and the merged
    violation set equals the clean baseline within the overflow
    ledger's ``[lo, hi]`` uncertainty interval (``bounded``); when no
    state was actually lost, ``exact_match`` is True as well.
    """

    FAILURE = ("crash chaos FAILED: clean count outside the uncertainty "
               "interval, an invariant broke, or a shard exhausted its "
               "restart budget")

    profile: str
    seed: int
    events: int
    shards: int
    clean_total: int
    fabric_total: int
    interval: Tuple[int, int]
    bounded: bool
    exact_match: bool
    kills_delivered: int
    kills_skipped: int
    restarts: int
    quarantined_batches: int
    failed_shards: List[int]
    shard_liveness: List[Dict[str, object]]
    per_property: Dict[str, Dict[str, int]]
    ledger: Dict[str, object]
    invariant_failures: List[str] = field(default_factory=list)
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return (not self.bounded or bool(self.invariant_failures)
                or bool(self.failed_shards))

    def to_dict(self) -> Dict[str, object]:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "events": self.events,
            "shards": self.shards,
            "violations": {
                "clean": self.clean_total,
                "fabric": self.fabric_total,
                "interval": list(self.interval),
                "bounded": self.bounded,
                "exact_match": self.exact_match,
            },
            "recovery": {
                "kills_delivered": self.kills_delivered,
                "kills_skipped": self.kills_skipped,
                "restarts": self.restarts,
                "quarantined_batches": self.quarantined_batches,
                "failed_shards": list(self.failed_shards),
                "shards": list(self.shard_liveness),
            },
            "per_property": self.per_property,
            "ledger": self.ledger,
            "invariant_failures": list(self.invariant_failures),
            "telemetry": self.telemetry,
        }

    def render(self) -> str:
        """Human-readable crash-recovery report."""
        lines: List[str] = []
        lo, hi = self.interval
        lines.append(
            f"profile {self.profile!r} seed={self.seed}: {self.events} "
            f"events over {self.shards} mp shards, "
            f"{self.kills_delivered} SIGKILL(s) delivered"
            + (f" ({self.kills_skipped} skipped: shard already down)"
               if self.kills_skipped else ""))
        verdict = "WITHIN interval" if self.bounded else "OUTSIDE interval"
        exact = ", exact match" if self.exact_match else ""
        lines.append(
            f"violations: clean={self.clean_total} "
            f"fabric={self.fabric_total} interval=[{lo}, {hi}] "
            f"({verdict}{exact})")
        lines.append(
            f"recovery: restarts={self.restarts} "
            f"quarantined_batches={self.quarantined_batches} "
            f"failed_shards={self.failed_shards or 'none'}")
        for row in self.shard_liveness:
            lines.append(
                f"  shard {row['shard']}: restarts={row['restarts']} "
                f"journal={row['journal_events']} "
                f"quarantined={row['quarantined_batches']}"
                + (f" FAILED ({row['down_reason']})" if row["failed"] else ""))
        lines.append(_render_ledger(self.ledger))
        for name, cf in sorted(self.per_property.items()):
            if cf["clean"] != cf["fabric"]:
                lines.append(
                    f"  {name:<28} clean={cf['clean']:<4} "
                    f"fabric={cf['fabric']}")
        for problem in self.invariant_failures:
            lines.append(f"  INVARIANT VIOLATED: {problem}")
        return "\n".join(lines)


def crash_schedule(
    profile: ChaosProfile,
    num_events: int,
    num_shards: int,
    batch: int,
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


def run_crash_chaos(
    profile: ChaosProfile,
    seed: int,
    num_events: int = DEFAULT_EVENTS,
    settle: float = DEFAULT_SETTLE,
    num_shards: int = 2,
    batch: int = 256,
    supervision: SupervisorPolicy = SOAK_SUPERVISION,
    with_telemetry: bool = True,
) -> CrashRecoveryReport:
    """One crash-chaos round: clean baseline vs a SIGKILLed mp fabric.

    The clean run is a plain single :class:`Monitor` (the oracle the
    differential suite uses); the fabric run feeds the same stream in
    batches, delivering SIGKILL to live workers at the profile's
    schedule.  Only meaningful for mp mode — worker crashes need worker
    processes — so this always builds an mp fabric.
    """
    if profile.worker_crash.is_null:
        raise ValueError(
            f"profile {profile.name!r} has no worker-crash plan; "
            "use run_chaos for stream/monitor faults")
    events = catalog_trace(seed, num_events)
    clean = run_events(None, events, settle=settle)
    registry = MetricsRegistry() if with_telemetry else None
    fabric = build_sharded_monitor(
        profile, num_shards=num_shards, registry=registry,
        supervision=supervision)
    if registry is not None:
        registry.time_fn = lambda: fabric.now
    schedule = crash_schedule(profile, len(events), num_shards, batch)
    kills_delivered = kills_skipped = 0
    try:
        for start in range(0, len(events), batch):
            for shard in schedule.get(start, ()):
                pid = fabric.supervisor.worker_pids()[shard]
                if pid is None:
                    kills_skipped += 1  # already down: nothing to kill
                    continue
                os.kill(pid, signal.SIGKILL)
                kills_delivered += 1
            fabric.observe_batch(events[start:start + batch])
        if events:
            fabric.advance_to(events[-1].time + settle)
        fabric.stop()
    except BaseException:
        fabric.close()
        raise

    clean_counts = clean.per_property
    fabric_counts = count_by_property(fabric.violations)
    per_property = {
        name: {"clean": clean_counts.get(name, 0),
               "fabric": fabric_counts.get(name, 0)}
        for name in sorted(set(clean_counts) | set(fabric_counts))
    }
    clean_total = len(clean.monitor.violations)
    fabric_total = len(fabric.violations)
    interval = fabric.ledger.interval(fabric_total)
    supervisor = fabric.supervisor
    invariants = check_invariants(clean.monitor)
    if fabric.pending_op_count() != 0:
        invariants.append(
            f"fabric retained {fabric.pending_op_count()} pending op(s)")
    report = CrashRecoveryReport(
        profile=profile.name,
        seed=seed,
        events=len(events),
        shards=num_shards,
        clean_total=clean_total,
        fabric_total=fabric_total,
        interval=interval,
        bounded=interval[0] <= clean_total <= interval[1],
        exact_match=(sorted(clean.fingerprint())
                     == sorted(fingerprint(fabric.violations))),
        kills_delivered=kills_delivered,
        kills_skipped=kills_skipped,
        restarts=supervisor.total_restarts(),
        quarantined_batches=len(supervisor.quarantine_log),
        failed_shards=supervisor.failed(),
        shard_liveness=fabric.shard_liveness(),
        per_property=per_property,
        ledger=fabric.ledger.summary(),
        invariant_failures=invariants,
    )
    if registry is not None:
        report.telemetry = registry.snapshot()
    return report


def run_rounds(
    profile: ChaosProfile,
    seed: int,
    rounds: int = 1,
    num_events: int = DEFAULT_EVENTS,
    settle: float = DEFAULT_SETTLE,
    num_shards: int = 2,
    supervision: SupervisorPolicy = SOAK_SUPERVISION,
) -> List:
    """``repro chaos``: ``rounds`` independent rounds, round *k* on seed
    ``seed + k`` — a :func:`run_chaos` round, or for a worker-crash
    profile a :func:`run_crash_chaos` round on ``num_shards`` forked
    workers.  Every report answers ``render()``, ``failed`` and
    ``to_dict()``."""
    reports: List = []
    for k in range(rounds):
        if profile.worker_crash.is_null:
            reports.append(run_chaos(profile, seed + k, num_events=num_events,
                                     settle=settle))
        else:
            reports.append(run_crash_chaos(
                profile, seed=seed + k, num_events=num_events, settle=settle,
                num_shards=num_shards, supervision=supervision))
    return reports
