"""Experiment P5 — monitor engine throughput by property class.

Sec. 3.3 frames monitoring's cost as intrinsic: matching and state
requirements "go beyond even relatively new proposals for stateful
forwarding."  This bench quantifies the engine's event-processing rate for
each instance-identification class of Table 1 (exact / symmetric /
wandering / multiple match), plus the full Table-1 catalog loaded at once —
the per-event price of each matching discipline.

Each class also gets an ``_interpreted`` twin running the reference
evaluator (``match_strategy="interpreted"``: every property x stage walked
per event, guard dataclass trees interpreted).  The gap against the
default — the program generated from the per-event-class dispatch plans —
is the payoff of the lowering; ``test_compiled_dispatch_speedup`` asserts
the full-catalog steady-state gap stays above 2x.

``REPRO_BENCH_EVENTS`` overrides the stream length (CI smoke runs use a
reduced count).
"""

import os
import time

import pytest

from repro.core import Monitor
from repro.telemetry import MetricsRegistry, snapshot_digest
from repro.netsim.workload import l2_pairs, tcp_conversations
from repro.packet import arp_request, dhcp_packet, DhcpMessageType, ethernet, tcp_packet
from repro.props import (
    ArpKnowledge,
    arp_known_not_forwarded,
    build_table1,
    firewall_basic,
    knocking_invalidated,
    learned_unicast_port,
    link_down_clears_learning,
)
from repro.props.dhcp_arp import arp_cache_preloaded
from repro.switch.events import (
    EgressAction,
    OobKind,
    OutOfBandEvent,
    PacketArrival,
    PacketEgress,
)

NUM_EVENTS = int(os.environ.get("REPRO_BENCH_EVENTS", "1500"))


def mixed_event_stream():
    """Arrivals/egresses/OOB events exercising L2-L7 and all match kinds."""
    events = []
    t = 0.0
    for i in range(NUM_EVENTS // 5):
        src, dst = i % 40 + 1, (i * 3) % 40 + 1
        t += 1e-4
        events.append(PacketArrival(
            switch_id="s", time=t, packet=ethernet(src, dst), in_port=src % 4 + 1))
        t += 1e-4
        p = tcp_packet(src, dst, f"10.0.0.{src}", f"198.51.100.{dst}",
                       1000 + i % 100, 80)
        events.append(PacketArrival(switch_id="s", time=t, packet=p, in_port=1))
        t += 1e-4
        events.append(PacketEgress(
            switch_id="s", time=t, packet=p, out_port=2, in_port=1,
            action=EgressAction.UNICAST))
        t += 1e-4
        events.append(PacketArrival(
            switch_id="s", time=t,
            packet=arp_request(src, f"10.0.0.{src}", f"10.0.0.{dst}"),
            in_port=1))
        t += 1e-4
        if i % 37 == 0:
            events.append(OutOfBandEvent(
                switch_id="s", time=t, oob_kind=OobKind.PORT_DOWN, port=2))
        else:
            events.append(PacketEgress(
                switch_id="s", time=t,
                packet=dhcp_packet(src, DhcpMessageType.ACK,
                                   yiaddr=f"10.0.0.{100 + src}"),
                out_port=1, in_port=0, action=EgressAction.UNICAST))
    return events


EVENTS = mixed_event_stream()


def run_with(*props, registry=None, **monitor_kwargs):
    monitor = Monitor(registry=registry, **monitor_kwargs)
    for prop in props:
        monitor.add_property(prop)
    for event in EVENTS:
        monitor.observe(event)
    return monitor


def run_catalog(**monitor_kwargs):
    monitor = Monitor(**monitor_kwargs)
    for entry in build_table1():
        monitor.add_property(entry.prop)
    for event in EVENTS:
        monitor.observe(event)
    return monitor


def test_throughput_exact_match(benchmark):
    monitor = benchmark(lambda: run_with(knocking_invalidated()))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_symmetric_match(benchmark):
    monitor = benchmark(lambda: run_with(firewall_basic()))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_wandering_match(benchmark):
    monitor = benchmark(lambda: run_with(arp_cache_preloaded()))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_multiple_match(benchmark):
    monitor = benchmark(lambda: run_with(link_down_clears_learning()))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_learning_switch(benchmark):
    monitor = benchmark(lambda: run_with(learned_unicast_port()))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_full_catalog(benchmark):
    """All thirteen Table-1 properties monitored simultaneously."""
    monitor = benchmark(run_catalog)
    assert monitor.stats.events == len(EVENTS)
    print(f"\nfull catalog: {monitor.stats.events} events, "
          f"{monitor.stats.instances_created} instances created, "
          f"{monitor.stats.violations} violations, "
          f"{monitor.stats.candidates_examined} candidates examined")


# ---------------------------------------------------------------------------
# Match-strategy ablation: interpreted twins of the class benchmarks above
# ---------------------------------------------------------------------------
def test_throughput_exact_match_interpreted(benchmark):
    monitor = benchmark(lambda: run_with(knocking_invalidated(),
                                         match_strategy="interpreted"))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_symmetric_match_interpreted(benchmark):
    monitor = benchmark(lambda: run_with(firewall_basic(),
                                         match_strategy="interpreted"))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_wandering_match_interpreted(benchmark):
    monitor = benchmark(lambda: run_with(arp_cache_preloaded(),
                                         match_strategy="interpreted"))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_multiple_match_interpreted(benchmark):
    monitor = benchmark(lambda: run_with(link_down_clears_learning(),
                                         match_strategy="interpreted"))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_full_catalog_interpreted(benchmark):
    """The headline ablation pair: compare to test_throughput_full_catalog."""
    monitor = benchmark(lambda: run_catalog(match_strategy="interpreted"))
    assert monitor.stats.events == len(EVENTS)


def run_catalog_batch(**monitor_kwargs):
    monitor = Monitor(**monitor_kwargs)
    for entry in build_table1():
        monitor.add_property(entry.prop)
    monitor.observe_batch(EVENTS)
    return monitor


def test_throughput_full_catalog_batch(benchmark):
    """The catalog again via observe_batch (replay's ingestion path)."""
    monitor = benchmark(run_catalog_batch)
    assert monitor.stats.events == len(EVENTS)


def _best_of(rounds=3, **monitor_kwargs):
    """Min-of-N wall-clock seconds to observe ``EVENTS`` event at a time,
    with a fresh catalog monitor per round (state is cumulative).  The
    default monitor's one-time program build runs before the clock starts:
    the gate prices steady-state matching, and at smoke sizes the build
    would otherwise be most of the timed region."""
    times = []
    for _ in range(rounds):
        monitor = Monitor(**monitor_kwargs)
        for entry in build_table1():
            monitor.add_property(entry.prop)
        if monitor.match_strategy == "compiled":
            monitor.codegen_source()  # forces the lazy program build
        start = time.perf_counter()
        for event in EVENTS:
            monitor.observe(event)
        times.append(time.perf_counter() - start)
        assert monitor.stats.events == len(EVENTS)
    return min(times)


def test_compiled_dispatch_speedup():
    """The lowering's acceptance gate, asserted, not just printed: the
    generated program processes the full catalog at >= 2x the interpreted
    rate.  Best-of-three timings to shrug off scheduler noise."""
    interpreted = _best_of(match_strategy="interpreted")
    compiled = _best_of()
    speedup = interpreted / compiled
    print(f"\ncompiled dispatch speedup on full catalog: {speedup:.2f}x "
          f"({interpreted * 1e3:.1f}ms interpreted, "
          f"{compiled * 1e3:.1f}ms compiled)")
    assert speedup >= 2.0, (
        f"compiled dispatch only {speedup:.2f}x over interpreted"
    )


def test_throughput_telemetry_disabled(benchmark):
    """Baseline half of the instrumentation-overhead pair: the default
    NullRegistry, where counters are loose cells and histograms no-ops."""
    monitor = benchmark(lambda: run_with(learned_unicast_port()))
    assert monitor.stats.events == len(EVENTS)


def test_throughput_telemetry_enabled(benchmark):
    """Full MetricsRegistry attached: labeled fan-out, histograms, peaks.

    Compare against ``test_throughput_telemetry_disabled`` — the gap is
    the per-event price of leaving telemetry on, which the registry's
    design keeps small enough to afford (cached instrument handles, no
    per-event dict lookups).
    """
    def run():
        # A fresh registry per round: benchmark() re-runs this many times
        # and counters are cumulative by design.
        return run_with(learned_unicast_port(), registry=MetricsRegistry())

    monitor = benchmark(run)
    assert monitor.stats.events == len(EVENTS)
    snap = monitor.registry.snapshot()
    assert any(m["name"] == "repro_monitor_events_total"
               for m in snap["metrics"])
    print(f"\n{snapshot_digest(monitor.registry)}")
