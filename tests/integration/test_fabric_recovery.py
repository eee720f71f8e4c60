"""Crash-recovery equivalence: a supervised fabric that loses workers
mid-replay still reports the plain monitor's violation set, within the
overflow ledger's uncertainty interval.

Three fault families, all on real forked workers:

* SIGKILL mid-replay — the supervisor restarts the worker, rehydrates
  it from checkpoint + journal, and the merged violation set matches
  the clean single-monitor baseline (exactly, when the ledger is
  empty).
* A hung worker at shutdown (SIGSTOP) — ``stop()`` stays bounded, the
  unrecovered tail is ledgered as ``shard-quit-timeout`` ink.
* A poison batch (an event whose property predicate SIGKILLs its own
  worker) — quarantined after ``poison_threshold`` replay deaths
  instead of burning the restart budget forever.
"""

import os
import signal
import time

import pytest

from repro.core.monitor import Monitor
from repro.core.refs import EventKind, EventPattern, Predicate
from repro.core.spec import Observe, PropertySpec
from repro.fabric import ShardedMonitor, SupervisorPolicy, fork_available
from repro.fabric.supervise import KIND_QUARANTINE, KIND_QUIT_TIMEOUT
from repro.netsim.chaos import PROFILES
from repro.packet import tcp_packet
from repro.props import build_table1
from repro.resilience import (
    catalog_trace,
    crash_schedule,
    render_crash_report,
    run_crash_chaos,
)
from repro.switch.events import PacketArrival

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable")

SETTLE = 600.0

#: fast-recovery knobs so tests don't sit in real backoff sleeps
FAST = dict(heartbeat_interval=0.2, heartbeat_timeout=10.0,
            backoff_base=0.01, backoff_max=0.2)


def catalog_props():
    return [entry.prop for entry in build_table1()]


def fingerprint(violations):
    return sorted(
        (v.property_name, round(v.time, 9),
         tuple(sorted((k, str(val)) for k, val in v.bindings.items())))
        for v in violations
    )


def run_plain(events):
    monitor = Monitor()
    for prop in catalog_props():
        monitor.add_property(prop)
    monitor.observe_batch(events)
    monitor.advance_to(events[-1].time + SETTLE)
    return monitor


class TestSigkillEquivalence:
    def test_sigkill_one_shard_mid_replay(self):
        events = catalog_trace(seed=7, num_events=4000)
        plain = run_plain(events)
        assert plain.violations, "workload produced no violations — vacuous"

        policy = SupervisorPolicy(checkpoint_interval=512, **FAST)
        fabric = ShardedMonitor(catalog_props(), num_shards=2, mode="mp",
                                supervision=policy)
        batch = 256
        kill_at = (len(events) // batch // 2) * batch
        try:
            for i in range(0, len(events), batch):
                if i == kill_at:
                    pid = fabric.supervisor.worker_pids()[0]
                    assert pid is not None
                    os.kill(pid, signal.SIGKILL)
                fabric.observe_batch(events[i:i + batch])
            fabric.advance_to(events[-1].time + SETTLE)
            fabric.sync()
            fabric.stop()

            assert fabric.supervisor.total_restarts() >= 1
            assert not fabric.supervisor.failed()
            observed = len(fabric.violations)
            lo, hi = fabric.ledger.interval(observed)
            assert lo <= len(plain.violations) <= hi, (
                lo, len(plain.violations), hi)
            if not fabric.ledger.records:
                # nothing was lost: recovery must be *exact*
                assert fingerprint(fabric.violations) \
                    == fingerprint(plain.violations)
        finally:
            fabric.close()

    def test_run_crash_chaos_roundtrip(self):
        profile = PROFILES["worker-crash"]
        report = run_crash_chaos(profile, seed=3, num_events=3000)
        assert report.kills_delivered >= 1
        assert report.restarts >= report.kills_delivered
        assert report.bounded, (report.clean_total, report.interval)
        assert not report.failed_shards
        assert not report.invariant_failures
        rendered = render_crash_report(report)
        assert "WITHIN interval" in rendered
        payload = report.to_dict()
        assert payload["violations"]["bounded"] is True
        assert payload["recovery"]["restarts"] == report.restarts

    def test_crash_schedule_is_deterministic_and_staggered(self):
        profile = PROFILES["worker-crash"]
        a = crash_schedule(profile, 4000, 2, 256)
        b = crash_schedule(profile, 4000, 2, 256)
        assert a == b
        assert sum(len(v) for v in a.values()) == 2  # one kill per shard


class TestQuiesceTimeout:
    def test_sigstop_worker_bounds_stop_and_ledgers(self):
        events = catalog_trace(seed=5, num_events=1000)
        policy = SupervisorPolicy(quiesce_timeout=0.3,
                                  heartbeat_interval=1e9,
                                  heartbeat_timeout=10.0)
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
    def test_poison_batch_is_quarantined_not_retried_forever(self):
        policy = SupervisorPolicy(poison_threshold=2, restart_budget=10,
                                  checkpoint_interval=10_000,
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

            assert len(sup.quarantine_log) == 1
            record = sup.quarantine_log[0]
            assert record.kills == 2
            assert record.events == batch_size + 1
            assert sup.total_restarts() >= 2
            assert not sup.failed()
            by_kind = fabric.ledger.summary()["by_kind"]
            assert by_kind[KIND_QUARANTINE] == record.events
            rows = fabric.shard_liveness()
            assert sum(r["quarantined_batches"] for r in rows) == 1
        finally:
            fabric.close()
