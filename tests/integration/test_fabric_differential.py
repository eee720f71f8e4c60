"""Differential suite: the forked fabric is observationally identical
to one plain :class:`Monitor` on unbounded (clean) configurations.

This is the fabric's correctness contract — partitioning by key must
never change *what* is monitored, only *where*.  Equality is asserted on
violation fingerprints (sorted: the fabric orders same-timestamp
violations by time, property and bindings, the plain monitor by
emission), the full counter set, live/pending state and ledger
emptiness, across shard counts.  The in-process partition reference
(``tests/partition.py``) is held to the reference walk under every
configuration by the differential lattice (``test_lattice.py``); a fork
per example would be too slow for that, so the fabric is compared on
fixed workloads here.  Chaos profiles with bounded stores split one
global budget into per-shard budgets (a documented difference), so for
those the suite checks the per-shard soak invariants on the reference,
and that the fabric merges exactly the reference's shard ledgers.
"""

import pytest

from repro.core.monitor import Monitor, MonitorStats
from repro.fabric import ShardedMonitor, fork_available
from repro.props import build_table1
from repro.faults.profiles import PROFILES, monitor_profile_kwargs
from repro.faults.rounds import (
    build_monitor,
    catalog_trace,
    check_invariants,
    fingerprint,
)
from tests.partition import Partitioned

pytestmark = pytest.mark.usefixtures("workers_reaped")
SETTLE = 600.0
COUNTERS = tuple(MonitorStats._COUNTERS)


def catalog_props():
    return [entry.prop for entry in build_table1()]


def run_plain(events):
    monitor = Monitor()
    for prop in catalog_props():
        monitor.add_property(prop)
    monitor.observe_batch(events)
    monitor.advance_to(events[-1].time + SETTLE)
    return monitor


def feed(monitor, events, batch):
    for i in range(0, len(events), batch):
        monitor.observe_batch(events[i:i + batch])
    monitor.advance_to(events[-1].time + SETTLE)
    return monitor


def run_sharded(events, num_shards, batch=256):
    fabric = ShardedMonitor(catalog_props(), num_shards=num_shards)
    try:
        feed(fabric, events, batch).sync()
    finally:
        fabric.stop()
    return fabric


def assert_equivalent(plain, fabric):
    assert sorted(fingerprint(fabric.violations)) \
        == sorted(fingerprint(plain.violations))
    for name in COUNTERS:
        assert getattr(fabric.stats, name) == getattr(plain.stats, name), name
    assert fabric.live_instances() == plain.live_instances()
    assert fabric.pending_op_count() == plain.pending_op_count() == 0
    assert not len(fabric.ledger)
    assert not len(plain.ledger)


class TestInprocessDifferential:
    def test_every_shard_contributes(self):
        # The catalog has keyed and pinned properties on several shards;
        # a partitioning bug that starves one shard would shift work
        # without changing a verdict.
        events = catalog_trace(seed=7, num_events=2000)
        ref = feed(Partitioned(catalog_props(), 4), events, 256)
        per_shard = [m.stats.events for m in ref.shards]
        assert all(count > 0 for count in per_shard), per_shard


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
class TestMpDifferential:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_matches_plain_monitor(self, num_shards):
        events = catalog_trace(seed=7, num_events=2000)
        plain = run_plain(events)
        fabric = run_sharded(events, num_shards)
        assert fabric.violations, "workload produced no violations — vacuous"
        assert_equivalent(plain, fabric)
        # Every shard got work, by the fabric's own router.
        assert all(n > 0 for n in fabric.router.shard_events), \
            fabric.router.shard_events

    def test_no_peak_gauges(self):
        """Shards peak at different moments: a fabric reports no merged
        peak rather than a bound on one."""
        fabric = run_sharded(catalog_trace(seed=7, num_events=200), 2)
        for name in MonitorStats._GAUGES:
            with pytest.raises(AttributeError):
                getattr(fabric.stats, name)
        with pytest.raises(AttributeError):
            fabric.stats.peak_live_instances


class TestChaosProfilesPerShard:
    @pytest.mark.skipif(not fork_available(),
                        reason="fork start method unavailable")
    @pytest.mark.parametrize("profile_name", sorted(PROFILES))
    def test_invariants_hold_on_every_shard(self, profile_name):
        events = catalog_trace(seed=13, num_events=1500)
        profile = PROFILES[profile_name]
        ref = feed(Partitioned(catalog_props(), 2,
                               lambda: monitor_profile_kwargs(profile)),
                   events, 256)
        for shard in ref.shards:
            assert check_invariants(shard) == []
        # The fabric runs the same shards in its workers: shed counts
        # from every shard land in the one fabric ledger, and the
        # interval stays well-formed around the observed count.
        fabric = build_monitor(profile, num_shards=2)
        try:
            feed(fabric, events, 256)
            assert fabric.drain() == 0
        finally:
            fabric.stop()
        assert sorted(fingerprint(fabric.violations)) \
            == sorted(fingerprint(ref.violations))
        assert len(fabric.ledger) == sum(len(m.ledger) for m in ref.shards)
        observed = len(fabric.violations)
        lo, hi = fabric.ledger.interval(observed)
        assert lo <= observed <= hi
