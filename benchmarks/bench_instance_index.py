"""Experiment P6 (ablation) — why instance identification is a design axis.

Sec. 3.2: "Monitoring can require subtly different criteria for mapping
packets to states" — the approaches differ precisely in *how* an event
finds its instance (indexed state tables, hash functions, per-instance
tables).  This ablation contrasts the engine's hash-indexed instance store
with a linear scan as the live-instance population grows: the indexed
store's candidate examinations stay flat per event, the scan's grow
linearly — the same asymmetry that separates OpenState-style indexed state
from Varanus's scan-all-tables pipeline.

The cancel-path case holds the same axis up to Feature 4: a property
whose only per-packet watcher is an ``unless``, probed by packets that
cancel nothing.  ``candidates_examined`` never counted cancels, so this
one is read off the clock: the indexed store's cost per probe stays flat
as instances accumulate, the linear store's grows with them (the
Sec. 3.3 shape).
"""

import time

import pytest

from repro.core import (
    Bind,
    EventKind,
    EventPattern,
    FieldEq,
    Monitor,
    Observe,
    PropertySpec,
    Var,
)
from repro.packet import tcp_packet
from repro.props import load_property
from repro.switch.events import OobKind, PacketArrival, PacketDrop

POPULATIONS = (50, 200, 800)


def drive(strategy, population, registry=None):
    """Create ``population`` firewall instances, then probe with events
    that must be checked against the stage-1 waiting set."""
    monitor = Monitor(store_strategy=strategy, registry=registry)
    monitor.add_property(load_property("firewall-basic"))
    t = 0.0
    for i in range(population):
        t += 1e-4
        monitor.observe(PacketArrival(
            switch_id="s", time=t,
            packet=tcp_packet(1, 2, f"10.0.{i // 250}.{i % 250 + 1}",
                              "198.51.100.9", 1000, 80),
            in_port=1))
    before = monitor.stats.candidates_examined
    probes = 50
    for i in range(probes):
        t += 1e-4
        monitor.observe(PacketDrop(
            switch_id="s", time=t,
            packet=tcp_packet(2, 1, "198.51.100.9",
                              f"10.0.9.{i + 1}", 80, 1000),
            in_port=2, reason="x"))
    per_event = (monitor.stats.candidates_examined - before) / probes
    return per_event


def test_indexed_store_flat_examinations(benchmark):
    def sweep():
        return [(n, drive("indexed", n)) for n in POPULATIONS]

    series = benchmark(sweep)
    print("\nindexed store: population -> candidates examined per event")
    for n, per_event in series:
        print(f"  {n:6d} -> {per_event:8.1f}")
    assert all(per_event <= 1.0 for _, per_event in series)


def test_linear_store_examinations_grow(benchmark):
    def sweep():
        return [(n, drive("linear", n)) for n in POPULATIONS]

    series = benchmark(sweep)
    print("\nlinear store: population -> candidates examined per event")
    for n, per_event in series:
        print(f"  {n:6d} -> {per_event:8.1f}")
    # Linear in population (the probes miss, so every instance is checked).
    assert series[-1][1] / series[0][1] == pytest.approx(
        POPULATIONS[-1] / POPULATIONS[0], rel=0.1
    )


def test_same_verdicts_both_stores():
    """The ablation changes cost only — replays must agree (spot check;
    the hypothesis suite proves this on random streams)."""
    from repro.switch.events import PacketDrop

    def verdicts(strategy):
        monitor = Monitor(store_strategy=strategy)
        monitor.add_property(load_property("firewall-basic"))
        out = tcp_packet(1, 2, "10.0.0.1", "198.51.100.9", 1000, 80)
        back = tcp_packet(2, 1, "198.51.100.9", "10.0.0.1", 80, 1000)
        monitor.observe(PacketArrival(switch_id="s", time=0.0, packet=out,
                                      in_port=1))
        monitor.observe(PacketDrop(switch_id="s", time=1.0, packet=back,
                                   in_port=2, reason="x"))
        return [(v.property_name, v.time) for v in monitor.violations]

    assert verdicts("indexed") == verdicts("linear")


def test_wallclock_gap_at_scale(benchmark, bench_registry):
    """Wall-clock confirmation of the asymptotic gap at the largest
    population."""

    def indexed():
        return drive("indexed", POPULATIONS[-1], registry=bench_registry)

    benchmark(indexed)


# ---------------------------------------------------------------------------
# The cancel path: an ``unless`` as the only per-packet watcher
# ---------------------------------------------------------------------------
def cancel_only_prop():
    """Waits for a (rare) port-down; a drop addressed to the bound source
    cancels the wait.  Per packet, only stage 0 and the unless react."""
    return PropertySpec(
        name="cancel-only", description="",
        stages=(
            Observe("seen", EventPattern(kind=EventKind.ARRIVAL,
                                         binds=(Bind("S", "ipv4.src"),))),
            Observe("down", EventPattern(kind=EventKind.OOB,
                                         oob_kind=OobKind.PORT_DOWN),
                    unless=(EventPattern(
                        kind=EventKind.DROP,
                        guards=(FieldEq("ipv4.dst", Var("S")),)),)),
        ),
        key_vars=("S",),
    )


def drive_cancel(strategy, population, probes=200):
    """Microseconds per drop that cancels nothing, with ``population``
    instances waiting; then one drop that cancels exactly one."""
    monitor = Monitor(store_strategy=strategy)
    monitor.add_property(cancel_only_prop())
    t = 0.0
    for i in range(population):
        t += 1e-4
        monitor.observe(PacketArrival(
            switch_id="s", time=t, in_port=1,
            packet=tcp_packet(1, 2, f"10.0.{i // 250}.{i % 250 + 1}",
                              "198.51.100.9", 1000, 80)))
    misses = [
        PacketDrop(switch_id="s", time=t + 1e-4 * (i + 1), in_port=2,
                   reason="x",
                   packet=tcp_packet(2, 1, "198.51.100.9",
                                     f"10.9.9.{i % 250 + 1}", 80, 1000))
        for i in range(probes)
    ]
    monitor.observe(misses[0])  # build the program outside the clock
    start = time.perf_counter()
    for event in misses[1:]:
        monitor.observe(event)
    spent = time.perf_counter() - start
    assert monitor.stats.instances_cancelled == 0
    monitor.observe(PacketDrop(
        switch_id="s", time=misses[-1].time + 1e-4, in_port=2, reason="x",
        packet=tcp_packet(2, 1, "198.51.100.9", "10.0.0.1", 80, 1000)))
    assert monitor.stats.instances_cancelled == 1
    return 1e6 * spent / (probes - 1)


def _cancel_sweep(strategy):
    # min of 3: the noise on a shared box is one-sided
    return [min(drive_cancel(strategy, n) for _ in range(3))
            for n in POPULATIONS]


def test_cancel_path_cost_vs_live_instances():
    indexed, linear = _cancel_sweep("indexed"), _cancel_sweep("linear")
    print("\ncancel path: population -> us per non-cancelling drop")
    for n, fast, slow in zip(POPULATIONS, indexed, linear):
        print(f"  {n:6d} -> indexed {fast:8.1f}   linear {slow:8.1f}")
    growth = POPULATIONS[-1] / POPULATIONS[0]
    # the probe is one dict miss whatever the population ...
    assert indexed[-1] / indexed[0] < 2.5
    # ... the scan walks it (fixed per-event cost damps the ratio)
    assert linear[-1] / linear[0] > growth / 4
    assert linear[-1] > 2.0 * indexed[-1]
