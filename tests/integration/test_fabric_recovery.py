"""Fabric recovery mechanisms the fault machine does not draw.

``tests/property/test_fault_machine.py`` holds recovery to the reference
interval and an uncrashed twin over drawn SIGKILL schedules.  What stays
here, on real forked workers: the chaos runner's worker-crash round; the
journal rule — a live worker's journal is exactly what it has seen since
its last landed checkpoint, so a worker past the journal bound is waited
for while it lags and restarted whole once it stops answering, never
aged out (an age-out only widens the interval, which the machine
allows); a replacement whose restore outlasts the timeout, waited for
because it keeps talking; a SIGSTOPped worker at quiesce and against a
send larger than the socket buffer; a stopped fabric staying stopped; a
failed shard's queue depth; poison-batch quarantine; and checkpoint
replies several times the socket buffer.  No worker a test forks may
outlive it.
"""

import os
import random
from collections import Counter
import signal
import time

import pytest

from repro.core import codegen
from repro.core.monitor import Monitor
from repro.core.refs import (
    Bind,
    Const,
    EventKind,
    EventPattern,
    FieldEq,
    Predicate,
    Var,
)
from repro.core.spec import Observe, PropertySpec
from repro.fabric import (
    MpShard,
    ShardedMonitor,
    ShardTimeout,
    SupervisorPolicy,
    build_routes,
    build_shard_monitor,
    fork_available,
    supervise,
)
from repro.fabric.supervise import KIND_QUARANTINE, KIND_QUIT_TIMEOUT
from repro.faults.profiles import PROFILES
from repro.faults.rounds import (
    catalog_trace,
    crash_schedule,
    fingerprint,
    run_chaos,
)
from repro.packet import tcp_packet
from repro.props import build_table1
from repro.switch.events import EgressAction, PacketArrival, PacketEgress
from repro.telemetry import MetricsRegistry
from tests.forks import assert_reaped

pytestmark = [pytest.mark.usefixtures("workers_reaped"), pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable")]

SETTLE = 600.0


def catalog_props():
    return [entry.prop for entry in build_table1()]


def run_plain(props, events):
    monitor = Monitor()
    for prop in props:
        monitor.add_property(prop)
    monitor.observe_batch(events)
    return monitor


class TestSigkillEquivalence:
    def test_crash_round_roundtrip(self):
        """The one chaos runner puts a worker-crash profile on a fabric:
        every kill restarts, the interval holds overall and per
        property, and the invariants hold on the fabric too."""
        profile = PROFILES["worker-crash"]
        report = run_chaos(profile, seed=3, num_events=3000)
        recovery = report.recovery
        assert recovery["kills_delivered"] >= 1
        assert recovery["restarts"] >= recovery["kills_delivered"]
        assert not recovery["failed_shards"]
        assert len(recovery["shards"]) == 2
        assert report.bounded, (report.clean_total, report.interval)
        assert report.properties and all(p.bounded for p in report.properties)
        assert not report.invariant_failures
        assert not report.failed
        assert "clean count WITHIN interval" in report.render()
        payload = report.to_dict()
        assert payload["violations"]["bounded"] is True
        assert payload["recovery"]["restarts"] == recovery["restarts"]

    def test_crash_schedule_is_deterministic_and_staggered(self):
        profile = PROFILES["worker-crash"]
        a = crash_schedule(profile, 4000, 2, 256)
        b = crash_schedule(profile, 4000, 2, 256)
        assert a == b
        assert sum(len(v) for v in a.values()) == 2  # one kill per shard


class TestJournalWaitsForTheCut:
    """While a worker lives, its journal is exactly the batches it has
    seen since its last landed checkpoint.  A healthy worker lags by a
    socket buffer, more than the journal bound at a small checkpoint
    floor: the supervisor waits for its cut.  A worker that stops
    answering is taken for dead instead, and restarted from its last
    checkpoint and the whole journal.  Neither costs a ledgered gap."""

    def test_healthy_shards_drop_nothing_and_a_crash_is_exact(
            self, monkeypatch):
        monkeypatch.setattr(supervise, "CHECKPOINT_FLOOR", 256)
        events = catalog_trace(seed=7, num_events=3000)
        # The workers fork with no generated code cached, so they start
        # behind, as a fresh daemon's do, whatever ran before this test.
        codegen._compile_function.cache_clear()
        fabric = ShardedMonitor(catalog_props(), num_shards=2, mode="mp")
        sup = fabric.supervisor
        try:
            for i in range(0, len(events), 128):
                fabric.observe_batch(events[i:i + 128])
            # lagging is not dying: waited for, nothing restarted or lost
            assert sup.total_restarts() == 0 and len(fabric.ledger) == 0
            os.kill(sup.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while sup.total_restarts() < 1 and time.monotonic() < deadline:
                sup.heartbeat()
                sup.tick()
            fabric.advance_to(events[-1].time + SETTLE)
            fabric.sync()
            assert sup.total_restarts() >= 1 and not sup.failed()
            assert "crash-gap" not in fabric.ledger.summary()["by_kind"]
            plain = run_plain(catalog_props(), events)
            plain.advance_to(events[-1].time + SETTLE)
            assert Counter(v.property_name for v in fabric.violations) \
                == Counter(v.property_name for v in plain.violations)
            fabric.stop()
        finally:
            fabric.close()

    def test_a_stopped_worker_past_the_bound_is_restarted_whole(
            self, monkeypatch):
        monkeypatch.setattr(supervise, "CHECKPOINT_FLOOR", 16)
        events = catalog_trace(seed=7, num_events=1500)
        fabric = ShardedMonitor(catalog_props(), num_shards=2, mode="mp",
                                supervision=SupervisorPolicy(
                                    heartbeat_interval=1e9,
                                    heartbeat_timeout=0.5,
                                    backoff_base=0.0, backoff_max=0.0))
        sup = fabric.supervisor
        try:
            fabric.observe_batch(events[:500])
            fabric.sync()                     # warm, and its cut landed
            pid = sup.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                # ~100 kB to the stopped worker: well inside its socket
                # buffer, and past its journal bound of 8 x the 80 live
                # instances it reported at the sync (640 events)
                for i in range(500, len(events), 32):
                    fabric.observe_batch(events[i:i + 32])
                fabric.advance_to(events[-1].time + SETTLE)
                fabric.sync()
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # killed as dead, and reaped
            fabric.stop()
            assert sup.total_restarts() == 1 and not sup.failed()
            assert len(fabric.ledger) == 0
            plain = run_plain(catalog_props(), events)
            plain.advance_to(events[-1].time + SETTLE)
            assert sorted(fingerprint(fabric.violations)) \
                == sorted(fingerprint(plain.violations))
        finally:
            fabric.close()


class TestSlowRestore:
    """A restore is timed by silence, not by size: a replacement that
    takes several heartbeat timeouts to restore its checkpoint keeps
    saying so, and is waited for."""

    TIMEOUT = 0.5

    def test_a_restore_longer_than_the_timeout_is_no_death(
            self, monkeypatch):
        def slow_shard_monitor(*args):
            monitor = build_shard_monitor(*args)
            restore = monitor.restore_state

            def slow_restore(state):
                time.sleep(3 * self.TIMEOUT)
                restore(state)

            monitor.restore_state = slow_restore
            return monitor

        monkeypatch.setattr("repro.fabric.fabric.build_shard_monitor",
                            slow_shard_monitor)
        monkeypatch.setattr(supervise, "CHECKPOINT_FLOOR", 64)
        events = catalog_trace(seed=7, num_events=1500)
        registry = MetricsRegistry()
        fabric = ShardedMonitor(catalog_props(), num_shards=2, mode="mp",
                                registry=registry,
                                supervision=SupervisorPolicy(
                                    heartbeat_interval=1e9,
                                    heartbeat_timeout=self.TIMEOUT,
                                    backoff_base=0.0, backoff_max=0.0))
        sup = fabric.supervisor
        try:
            fabric.observe_batch(events[:1000])
            fabric.sync()                     # shard 0's cut has landed
            assert registry.gauge("repro_fabric_checkpoint_bytes",
                                  labels={"shard": "0"}).value > 0
            os.kill(sup.worker_pids()[0], signal.SIGKILL)
            for i in range(1000, len(events), 100):
                fabric.observe_batch(events[i:i + 100])
            fabric.advance_to(events[-1].time + SETTLE)
            fabric.sync()
            fabric.stop()
            assert sup.total_restarts() == 1 and not sup.failed()
            assert len(fabric.ledger) == 0   # no quarantined batch
            plain = run_plain(catalog_props(), events)
            plain.advance_to(events[-1].time + SETTLE)
            assert sorted(fingerprint(fabric.violations)) \
                == sorted(fingerprint(plain.violations))
        finally:
            fabric.close()


class TestQueueDepth:
    def test_a_failed_shard_holds_nothing_in_flight(self):
        """A shard out of restart budget ledgers everything it held as
        ``shard-lost``: its queue depth reads 0 and stays there however
        much is routed to it, while the live shard's returns to 0 at
        each sync."""
        events = catalog_trace(seed=5, num_events=3000)
        registry = MetricsRegistry()
        fabric = ShardedMonitor(catalog_props(), num_shards=2, mode="mp",
                                registry=registry,
                                supervision=SupervisorPolicy(
                                    restart_budget=0,
                                    heartbeat_interval=1e9))
        sup = fabric.supervisor

        def depth(shard):
            return registry.gauge("repro_fabric_shard_queue_depth",
                                  labels={"shard": str(shard)}).value

        try:
            fabric.observe_batch(events[:500])
            os.kill(sup.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while not sup.failed() and time.monotonic() < deadline:
                sup.heartbeat()
                sup.tick()
            assert sup.failed() == [0]
            assert depth(0) == 0
            for i in range(500, len(events), 250):
                fabric.observe_batch(events[i:i + 250])
                assert depth(0) == 0
            assert depth(1) > 0
            fabric.sync()
            assert (depth(0), depth(1)) == (0, 0)
            lost = fabric.ledger.summary()["by_kind"]["shard-lost"]
            assert lost > 0
            fabric.stop()
            assert fabric.ledger.summary()["by_kind"]["shard-lost"] == lost
        finally:
            fabric.close()


class TestQuiesceTimeout:
    def test_sigstop_worker_bounds_stop_and_ledgers(self):
        events = catalog_trace(seed=5, num_events=1000)
        policy = SupervisorPolicy(heartbeat_interval=1e9,
                                  heartbeat_timeout=0.3)
        fabric = ShardedMonitor(catalog_props(), num_shards=2, mode="mp",
                                supervision=policy)
        try:
            fabric.observe_batch(events)
            pid = fabric.supervisor.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                t0 = time.monotonic()
                fabric.stop(now=events[-1].time + SETTLE)
                elapsed = time.monotonic() - t0
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass  # quit() already reaped it
            assert elapsed < 10.0, "stop() must stay bounded"
            by_kind = fabric.ledger.summary()["by_kind"]
            assert by_kind.get(KIND_QUIT_TIMEOUT, 0) >= 1
            rows = fabric.shard_liveness()
            assert rows[0]["down_reason"] == "hung at quiesce"
        finally:
            fabric.close()


class TestStoppedFabric:
    def test_a_stopped_fabric_stays_stopped(self):
        """After stop() no shard reads as rebuilding, intake raises, and
        nothing — a tick, a read — forks a worker again."""
        events = catalog_trace(seed=5, num_events=400)
        fabric = ShardedMonitor(catalog_props(), num_shards=2, mode="mp")
        try:
            fabric.observe_batch(events)
            summary = fabric.stop()
            assert fabric.recovering_shards() == []
            assert not any(row["recovering"]
                           for row in fabric.shard_liveness())
            fabric.tick()
            for call in (lambda: fabric.observe_batch(events),
                         lambda: fabric.advance_to(events[-1].time + SETTLE),
                         fabric.drain):
                with pytest.raises(RuntimeError):
                    call()
            assert fabric.stop() == summary
            assert fabric.supervisor.worker_pids() == [None, None]
            assert fabric.supervisor.total_restarts() == 0
        finally:
            fabric.close()


# -- poison batch -----------------------------------------------------------

POISON_PORT = 31337


def _boom(fields, env):
    if fields.get("tcp.dst") == POISON_PORT:
        os.kill(os.getpid(), signal.SIGKILL)
    return False


def poison_prop():
    """Unkeyed (pinned) property whose guard kills its own worker on a
    magic destination port — only ever evaluated inside shard workers."""
    return PropertySpec(
        name="poison-pill",
        description="crashes the owning worker on the magic port",
        stages=(
            Observe("boom", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(Predicate(_boom, "magic port crashes the worker",
                                  fields_used=("tcp.dst",)),))),
            Observe("never", EventPattern(kind=EventKind.DROP)),
        ),
        key_vars=(),
    )


def arrival(n, t, dst_port=99):
    return PacketArrival(
        switch_id="s", time=t,
        packet=tcp_packet(f"00:00:00:00:{(n >> 8) & 0xFF:02x}:{n & 0xFF:02x}",
                          "00:00:00:00:00:99",
                          f"10.0.{(n >> 8) & 0xFF}.{n & 0xFF}",
                          "198.51.100.9", 1024 + (n % 1000), dst_port),
        in_port=1)


class TestPoisonQuarantine:
    def test_poison_batch_is_quarantined_not_retried_forever(
            self, monkeypatch):
        monkeypatch.setattr(supervise, "CHECKPOINT_FLOOR", 10_000)
        policy = SupervisorPolicy(restart_budget=10,
                                  heartbeat_interval=1e9,
                                  heartbeat_timeout=10.0,
                                  backoff_base=0.0, backoff_max=0.0)
        fabric = ShardedMonitor([poison_prop()], num_shards=2, mode="mp",
                                supervision=policy)
        try:
            t = 0.0
            batch_size = 25
            made = 0

            def next_batch(poison=False):
                nonlocal t, made
                out = []
                for _ in range(batch_size):
                    t += 0.01
                    made += 1
                    out.append(arrival(made, t))
                if poison:
                    t += 0.01
                    out.append(arrival(0, t, dst_port=POISON_PORT))
                return out

            fabric.observe_batch(next_batch())
            fabric.observe_batch(next_batch(poison=True))  # kills worker
            # A cold worker may still be compiling its program when the
            # follow-ups are written, and nothing then notices its death
            # before stop().  heartbeat_interval=1e9 keeps tick() from
            # pinging, so ping here: wait (bounded) for the first restart.
            sup = fabric.supervisor
            deadline = time.monotonic() + 5.0
            while sup.total_restarts() < 1 and time.monotonic() < deadline:
                sup.heartbeat()
                sup.tick()
            assert sup.total_restarts() >= 1
            # subsequent batches trigger restart -> replay; the replayed
            # poison batch kills two replacements, then is quarantined
            # and the third replay goes through clean
            for _ in range(6):
                fabric.observe_batch(next_batch())
            fabric.stop(now=t + 1.0)

            assert sup.total_restarts() >= 2
            assert not sup.failed()
            by_kind = fabric.ledger.summary()["by_kind"]
            assert by_kind[KIND_QUARANTINE] == batch_size + 1
            rows = fabric.shard_liveness()
            assert sum(r["quarantined_batches"] for r in rows) == 1
        finally:
            fabric.close()


# -- asynchronous checkpoints -----------------------------------------------

#: the counters a sharded run reproduces exactly (indexed stores)
COUNTERS = ("events", "violations", "instances_created", "refreshes",
            "candidates_examined", "ops_applied")


def flow_props():
    """Three keyed two-stage properties whose instances park at stage
    1: live state — and with it a checkpoint — grows with the flows."""
    return [
        PropertySpec(
            name=f"flow-parked-{i}",
            description="an egress of the flow to a port few flows use",
            stages=(
                Observe("seen", EventPattern(
                    kind=EventKind.ARRIVAL,
                    binds=(Bind("src", "ipv4.src"),
                           Bind("sport", "tcp.src")))),
                Observe("tripped", EventPattern(
                    kind=EventKind.EGRESS,
                    guards=(FieldEq("ipv4.src", Var("src")),
                            FieldEq("tcp.src", Var("sport")),
                            FieldEq("tcp.dst", Const(1 + i))))),
            ),
            key_vars=("src", "sport"),
        )
        for i in range(3)
    ]


def flow_trace(num_events, flows):
    """Arrivals and egresses over ``flows`` TCP flows, one flow in 16
    aimed at a port some property waits for."""
    packets = [
        tcp_packet(i % 8, (i + 1) % 8,
                   f"10.{(i >> 8) & 255}.{i & 255}.1", "198.51.100.9",
                   1024 + i, 80 if i % 16 else 1 + (i // 16) % 3)
        for i in range(flows)
    ]
    rng = random.Random(11)
    events = []
    for n in range(num_events):
        flow = rng.randrange(flows)
        t = 1.0 + n * 1e-4
        if rng.random() < 0.6:
            events.append(PacketArrival(
                switch_id="s", time=t, packet=packets[flow], in_port=1))
        else:
            events.append(PacketEgress(
                switch_id="s", time=t, packet=packets[flow], in_port=1,
                out_port=2, action=EgressAction.UNICAST))
    return events


class TestAsyncCheckpoints:
    def test_replies_larger_than_the_socket_never_stall_the_run(self):
        """The run a request-then-blocking-send variant hangs on: each
        checkpoint reply is several socket buffers long, so the worker
        blocks writing it while the parent is writing the next batch.
        A cut falls due at the live state, so the last one lands some
        thousand events before the end: 24 000 events keep both shards'
        last replies over three socket buffers."""
        events = flow_trace(24_000, flows=6000)
        plain = run_plain(flow_props(), events)
        assert plain.violations, "workload produced no violations — vacuous"
        registry = MetricsRegistry()
        fabric = ShardedMonitor(flow_props(), num_shards=2, mode="mp",
                                registry=registry)  # default policy
        try:
            for i in range(0, len(events), 1024):
                fabric.observe_batch(events[i:i + 1024])
            fabric.sync()                      # the first barrier
            assert fabric.supervisor.total_restarts() == 0
            assert sorted(fingerprint(fabric.violations)) \
                == sorted(fingerprint(plain.violations))
            assert {n: getattr(fabric.stats, n) for n in COUNTERS} \
                == {n: getattr(plain.stats, n) for n in COUNTERS}
            assert len(fabric.ledger) == 0
            samples = {
                metric["name"]: [sample["value"]
                                 for sample in metric["samples"]]
                for metric in registry.snapshot()["metrics"]
                if metric["kind"] == "gauge"}
            sizes = samples["repro_fabric_checkpoint_bytes"]
            assert len(sizes) == 2 and min(sizes) > 3 * 212_992, sizes
            # each worker timed the export it did
            costs = samples["repro_fabric_checkpoint_export_seconds"]
            assert len(costs) == 2 and min(costs) > 0.0, costs
            for row in fabric.shard_liveness():
                # cuts landed and truncated while the run was going: one
                # due size outstanding, one being counted, one batch
                assert row["checkpoint_due"] > 2048, row
                assert row["journal_events"] \
                    < 2 * row["checkpoint_due"] + 1024, row
            fabric.stop()
        finally:
            fabric.close()

    def test_stopped_worker_times_out_a_send_larger_than_the_socket(self):
        props = flow_props()
        big = flow_trace(6000, flows=100)     # ~0.4 MB encoded: > SO_SNDBUF
        shard = MpShard(build_shard_monitor(props, 0, 1,
                                            build_routes(props, 1)),
                        0, heartbeat_timeout=0.5)
        pid = shard.pid
        os.kill(pid, signal.SIGSTOP)
        try:
            t0 = time.monotonic()
            with pytest.raises(ShardTimeout):
                shard.send_batch(big)
            elapsed = time.monotonic() - t0
            assert 0.5 <= elapsed < 3.0, elapsed
            assert not shard.is_alive()       # handle closed: unframed
        finally:
            os.kill(pid, signal.SIGCONT)
            shard.kill()
        assert_reaped({pid})
