"""Seeded inputs for the end-to-end benchmark.

The benchmark owns its generators: nothing here imports
``repro.resilience.catalog_trace``, a ``benchmarks/bench_*.py`` helper or
the network simulator, so a change to any of those cannot silently
change the traffic two commits are compared on.  Each generator first
draws a list of *decisions* — plain tuples of ints and strings — from
``random.Random(seed)`` and only then materialises events from them.
The decisions are hashed; the digests for the default seed are pinned in
``expected.json`` and a run on changed inputs fails instead of comparing
different traffic.

Event times start at ``TIME_BASE_S`` so that a daemon's wall clock
(seconds since the daemon was built) never overtakes event time:
``Monitor.stop(now=...)`` then fires no timer the direct reference run would not have fired, and
violation counts are comparable across every configuration.
"""

from __future__ import annotations

import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import Monitor
from repro.core.refs import Bind, Const, EventKind, EventPattern, FieldEq, Var
from repro.core.spec import Observe, PropertySpec
from repro.netsim.serialize import dump_trace, encode_frames
from repro.packet import (
    DhcpMessageType,
    arp_reply,
    arp_request,
    dhcp_packet,
    ethernet,
    tcp_fin,
    tcp_packet,
    tcp_syn,
)
from repro.props import build_table1
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketDrop,
    PacketEgress,
)

TIME_BASE_S = 1000.0
#: events per ``ShardedMonitor.observe_batch`` call, everywhere
FABRIC_STEP = 1024
_TIME_BASE_US = int(TIME_BASE_S * 1_000_000)
_UID_BASE = 1_000_000

Decision = Tuple[object, ...]

# One shuffled deck per 200 events fixes both the protocol mix and each
# protocol's split into arrivals (50 %), egresses (35 %) and drops, so
# seeds differ in order and addresses, not in how much work the traffic
# is: run-to-run spread across seeds should be noise, not input.
_CATALOG_MIX = (("tcp", 50), ("syn", 30), ("arp_request", 30),
                ("arp_reply", 14), ("dhcp", 20), ("fin", 16), ("eth", 30))
_CATALOG_DECK = tuple(
    (proto, kind)
    for proto, count in _CATALOG_MIX
    for kind, share in (("arrival", count // 2),
                        ("egress", round(count * 0.35)),
                        ("drop", count - count // 2 - round(count * 0.35)))
    for _ in range(share)
) + (("oob", "oob"),) * 10
_TCP_DST_PORTS = (80, 22, 7001, 7002, 8080)
_DHCP_TYPES = ("REQUEST", "ACK", "RELEASE")


def digest(decisions: Sequence[Decision]) -> str:
    """A stable fingerprint of a decision list (ints and strings only)."""
    return hashlib.sha256(repr(list(decisions)).encode("ascii")).hexdigest()


# -- Table-1 catalog traffic -------------------------------------------------
def catalog_decisions(seed: int, count: int) -> List[Decision]:
    """TCP data/SYN/FIN, ARP, DHCP, bare L2 and port up/down, with
    uid-coherent egress of recently arrived packets."""
    rng = random.Random(seed)
    out: List[Decision] = []
    arrivals: List[int] = []
    deck: List[str] = []
    t_us = _TIME_BASE_US
    while len(out) < count:
        if not deck:
            deck = list(_CATALOG_DECK)
            rng.shuffle(deck)
        proto, kind = deck.pop()
        t_us += rng.randint(100, 50_000)
        src, dst = rng.randint(1, 8), rng.randint(1, 8)
        if proto == "oob":
            out.append((t_us, "oob", rng.choice(("port-down", "port-up")),
                        rng.randint(1, 4)))
            continue
        if proto == "tcp":
            spec = ("tcp", src, dst, rng.randint(1000, 1040),
                    rng.choice(_TCP_DST_PORTS))
        elif proto == "syn":
            spec = ("syn", src, rng.randint(1000, 1040))
        elif proto == "arp_request":
            spec = ("arp_request", src, rng.randint(1, 120))
        elif proto == "arp_reply":
            spec = ("arp_reply", src, dst)
        elif proto == "dhcp":
            spec = ("dhcp", src, rng.choice(_DHCP_TYPES), rng.randint(1, 9),
                    rng.randint(0, 9), rng.randint(0, 3))
        elif proto == "fin":
            spec = ("fin", src, dst, rng.randint(1000, 1040))
        else:
            spec = ("eth", src, dst)
        if kind == "egress" and arrivals:
            # An egress re-sends a recently arrived packet (same uid),
            # whatever protocol the deck drew for this slot.
            out.append((t_us, "egress", rng.choice(arrivals[-50:]),
                        rng.randint(1, 4),
                        rng.choice(("unicast", "flood"))))
        elif kind == "drop":
            out.append((t_us, "drop", spec, rng.randint(1, 4)))
        else:
            arrivals.append(len(out))
            out.append((t_us, "arrival", spec, rng.randint(1, 4)))
    return out


# -- bare plumbing traffic ----------------------------------------------------
#: one event in this many is a DHCP request nobody answers — the only
#: catalog match in the stream (see README, "tripwires")
L2_TRIPWIRE_EVERY = 256


def l2_decisions(seed: int, count: int) -> List[Decision]:
    """Plain-ethernet arrivals and egresses between 64 hosts.

    No Table-1 property reads a bare L2 frame, so every guard fails on
    its first field lookup and no instance is created.  A sparse DHCP
    request (one event in ``L2_TRIPWIRE_EVERY``) is the exception: it
    trips ``dhcp-reply-within`` two seconds of event time later and is
    gone, which gives the workload a non-trivial output to check and the
    open-loop probe a violation to time while at most a handful of
    instances are ever live.  (An ARP request would be the obvious
    tripwire, but it parks a ``no-unfounded-reply`` instance forever and
    every later egress scans them all — matcher work this workload must
    not have.)
    """
    rng = random.Random(seed)
    out: List[Decision] = []
    arrivals: List[int] = []
    t_us = _TIME_BASE_US
    while len(out) < count:
        t_us += rng.randint(500, 1500)
        if len(out) % L2_TRIPWIRE_EVERY == L2_TRIPWIRE_EVERY - 1:
            out.append((t_us, "arrival",
                        ("dhcp", rng.randint(1, 64), "REQUEST",
                         rng.randint(1, 9), rng.randint(0, 9),
                         rng.randint(0, 3)), rng.randint(1, 4)))
            continue
        if rng.random() < 0.5 or not arrivals:
            arrivals.append(len(out))
            out.append((t_us, "arrival",
                        ("eth", rng.randint(1, 64), rng.randint(1, 64)),
                        rng.randint(1, 4)))
        else:
            out.append((t_us, "egress", rng.choice(arrivals[-50:]),
                        rng.randint(1, 4), "unicast"))
    return out


# -- keyed flow traffic ---------------------------------------------------------
def flow_decisions(seed: int, count: int, flows: int) -> List[Decision]:
    """Arrivals (60 %) and egresses over ``flows`` TCP flows."""
    rng = random.Random(seed)
    out: List[Decision] = []
    t_us = _TIME_BASE_US
    for _ in range(count):
        t_us += 100
        kind = "arrival" if rng.random() < 0.6 else "egress"
        out.append((t_us, kind, rng.randrange(flows)))
    return out


def flow_properties(count: int = 6) -> List[PropertySpec]:
    """``count`` keyed, timer-free two-stage properties on one key.

    The ``bench_shard_scaling`` shape, owned here: stage 0 creates on
    any flow arrival, stage 1 waits for an egress of the same flow to a
    port almost no flow uses (see ``FLOW_TRIPWIRE_EVERY``).  Instances
    park at stage 1, so the store is used for indexed probes and
    refreshes, not create/expire/scan; one shared key means the router
    forwards each event to exactly one shard.
    """
    return [
        PropertySpec(
            name=f"bench-flow-{i}",
            description="per-flow parked obligation (benchmark workload)",
            stages=(
                Observe("seen", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("src", "ipv4.src"),
                           Bind("sport", "tcp.src")))),
                Observe("never", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("ipv4.src", Var("src")),
                            FieldEq("tcp.src", Var("sport")),
                            FieldEq("tcp.dst", Const(1 + i))))),
            ),
            key_vars=("src", "sport"),
        )
        for i in range(count)
    ]


def catalog_properties() -> List[PropertySpec]:
    return [entry.prop for entry in build_table1()]


# -- decisions -> events --------------------------------------------------------
def _packet(spec: Decision):
    proto = spec[0]
    if proto == "tcp":
        _, src, dst, sport, dport = spec
        return tcp_packet(src, dst, f"10.0.0.{src}", f"198.51.100.{dst}",
                          sport, dport)
    if proto == "syn":
        _, src, sport = spec
        return tcp_syn(src, 0xFE, f"10.0.0.{src}", "10.0.0.100", sport, 8080)
    if proto == "arp_request":
        _, src, target = spec
        return arp_request(src, f"10.0.0.{src}", f"10.0.0.{target}")
    if proto == "arp_reply":
        _, src, dst = spec
        return arp_reply(src, f"10.0.0.{src}", dst, f"10.0.0.{dst}")
    if proto == "dhcp":
        _, src, mtype, xid, lease, server = spec
        return dhcp_packet(src, DhcpMessageType[mtype], xid=xid,
                           yiaddr=f"10.0.0.{100 + lease}",
                           server_id=f"10.0.0.{250 + server}")
    if proto == "fin":
        _, src, dst, sport = spec
        return tcp_fin(src, dst, f"10.0.0.{src}", f"198.51.100.{dst}",
                       sport, 80)
    _, src, dst = spec
    return ethernet(src, dst)


def materialise(decisions: Sequence[Decision]) -> List:
    """Events for catalog/L2 decisions; packet uids follow the decision
    index so the wire bytes are the same on every run."""
    events: List = []
    packets: Dict[int, object] = {}
    for index, decision in enumerate(decisions):
        time = decision[0] / 1_000_000
        kind = decision[1]
        if kind == "oob":
            events.append(OutOfBandEvent(
                switch_id="s", time=time, oob_kind=OobKind(decision[2]),
                port=decision[3]))
        elif kind == "egress":
            _, _, prior, out_port, action = decision
            events.append(PacketEgress(
                switch_id="s", time=time, packet=packets[prior], in_port=1,
                out_port=out_port, action=EgressAction(action)))
        else:
            packet = replace(_packet(decision[2]), uid=_UID_BASE + index)
            if kind == "arrival":
                packets[index] = packet
                events.append(PacketArrival(
                    switch_id="s", time=time, packet=packet,
                    in_port=decision[3]))
            else:
                events.append(PacketDrop(
                    switch_id="s", time=time, packet=packet,
                    in_port=decision[3], reason="x"))
    return events


#: one flow in this many targets a port some ``bench-flow-i`` waits for,
#: so its first egress after an arrival is a violation (the rest park)
FLOW_TRIPWIRE_EVERY = 16


def materialise_flows(decisions: Sequence[Decision], flows: int) -> List:
    packets = [
        replace(tcp_packet(i % 8, (i + 1) % 8,
                           f"10.{(i >> 8) & 255}.{i & 255}.1",
                           f"198.51.{(i >> 8) & 255}.{i & 255}",
                           1024 + (i % 16384),
                           80 if i % FLOW_TRIPWIRE_EVERY
                           else 1 + (i // FLOW_TRIPWIRE_EVERY) % 6),
                uid=_UID_BASE + i)
        for i in range(flows)
    ]
    events: List = []
    for t_us, kind, flow in decisions:
        time = t_us / 1_000_000
        if kind == "arrival":
            events.append(PacketArrival(
                switch_id="s", time=time, packet=packets[flow], in_port=1))
        else:
            events.append(PacketEgress(
                switch_id="s", time=time, packet=packets[flow], in_port=1,
                out_port=2, action=EgressAction.UNICAST))
    return events


# -- events -> wire bytes ---------------------------------------------------------
def encode_jsonl(events: Sequence) -> bytes:
    """The ``repro record`` line format, one event per line."""
    buffer = io.StringIO()
    dump_trace(events, buffer)
    return buffer.getvalue().encode("utf-8")


def wire_chunks(events: Sequence, fmt: str, chunk_events: int) -> List[bytes]:
    """``events`` as prebuilt socket writes of ``chunk_events`` each.

    RPF1 batches each lead with their own magic, so concatenated chunks
    are one valid framed stream; JSONL chunks end on a line boundary.
    """
    encode = encode_frames if fmt == "rpf1" else encode_jsonl
    return [encode(events[i:i + chunk_events])
            for i in range(0, len(events), chunk_events)]


# -- the workloads --------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One benchmark workload: traffic, entry point and arrival process.
    Why each was chosen is recorded in ``BENCHMARK.json`` and README.md."""

    name: str
    #: which generator makes the traffic: catalog | l2 | flows
    traffic: str
    #: the end-to-end entry point: direct | serve | fabric
    entry: str
    events: int
    #: wire format of the serve path (and of the staged decode layer)
    fmt: str = "jsonl"
    #: events per socket write (serve) or per observe_batch call (fabric)
    chunk_events: int = 256
    #: open loop at this many events/s, into ServeConfig's default queue;
    #: 0 = flood (closed only by TCP), queue sized to the event count so
    #: that no shed is expected
    rate: float = 0.0
    #: rate of the open-loop probe the traced run makes on this traffic
    probe_rate: float = 1200.0
    flows: int = 0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(name="replay_catalog", traffic="catalog", entry="direct",
             events=4000),
    Workload(name="serve_catalog_jsonl", traffic="catalog", entry="serve",
             events=4000, fmt="jsonl", chunk_events=256),
    Workload(name="serve_catalog_paced", traffic="catalog", entry="serve",
             events=1200, fmt="jsonl", chunk_events=32, rate=1200.0),
    Workload(name="serve_l2_rpf1", traffic="l2", entry="serve",
             events=24576, fmt="rpf1", chunk_events=64, probe_rate=10000.0),
    Workload(name="fabric_flows_mp2", traffic="flows", entry="fabric",
             events=6144, fmt="rpf1", chunk_events=FABRIC_STEP,
             probe_rate=3000.0, flows=1536),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def scaled(workload: Workload, events: int) -> Workload:
    """``workload`` at another size (the smoke test runs tiny ones)."""
    flows = max(1, events // 4) if workload.flows else 0
    return replace(workload, events=events, flows=flows)


@dataclass
class Inputs:
    """Everything a run of one workload reads, made before any clock starts."""

    workload: Workload
    seed: int
    digest: str
    events: List
    properties: str           # "catalog" | "flows": which set the run loads
    chunks: Optional[List[bytes]] = None


def generate(workload: Workload, seed: int) -> Inputs:
    if workload.traffic == "catalog":
        # The paced workload replays a prefix of the catalog trace, so
        # its expected counts are a prefix of the flood's.
        decisions = catalog_decisions(seed, workload.events)
        events = materialise(decisions)
    elif workload.traffic == "l2":
        decisions = l2_decisions(seed, workload.events)
        events = materialise(decisions)
    else:
        decisions = flow_decisions(seed, workload.events, workload.flows)
        events = materialise_flows(decisions, workload.flows)
    return Inputs(
        workload=workload, seed=seed, digest=digest(decisions), events=events,
        properties="flows" if workload.traffic == "flows" else "catalog",
        chunks=wire_chunks(events, workload.fmt, workload.chunk_events))


def properties_for(name: str) -> List[PropertySpec]:
    return flow_properties() if name == "flows" else catalog_properties()


# -- what every run reports about its outputs ---------------------------------------
#: the counters a sharded run must reproduce exactly
COUNTER_KEYS = ("events", "violations", "instances_created", "refreshes",
                "candidates_examined", "ops_applied")


def build_monitor(props: Sequence[PropertySpec], **kwargs) -> Monitor:
    monitor = Monitor(**kwargs)
    for prop in props:
        monitor.add_property(prop)
    return monitor


def by_property(violations) -> Dict[str, int]:
    """Violation counts per property name, sorted by name."""
    return dict(sorted(Counter(v.property_name for v in violations).items()))


def counters_of(stats) -> Dict[str, int]:
    return {key: int(getattr(stats, key)) for key in COUNTER_KEYS}
