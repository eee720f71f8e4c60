"""State machine: under any fault schedule, the true count is in the interval.

Aim 3's claim about faults is that whenever the monitor sheds, drops,
delays, crashes or recovers, the overflow ledger accounts for it: the
violation count a fault-free monitor would have reported lies inside the
ledger's ``[lo, hi]`` interval around the degraded count.  One machine
drives a :class:`~repro.core.monitor.Monitor` (``TestFaultMachine``) or a
2-shard forked :class:`~repro.fabric.ShardedMonitor`
(``TestFabricFaultMachine``: a forked example costs five of the other,
and a 4:1 draw between the two put 4 to 42 of ~130 runs on the fabric)
through the faults ``repro chaos`` injects: catalog batches through a
:class:`~repro.faults.profiles.FaultyEventChannel`, a control channel on
its split ops and a bounded policy or none, with time advancing between.
A ``Monitor`` is checkpointed and restored; a fabric's workers are
SIGKILLed between steps, once a checkpoint request is outstanding,
mid-batch with or without a ``sync()`` first, and just before
``stop()``, through its public surface and ``supervisor.worker_pids()``.

The oracle is an unbounded, fault-free reference monitor
(``match_strategy="interpreted"``) with the same mode and split lag, fed
exactly the events that reached the monitor under test.  After every
step all drain (a fabric until no shard is recovering) to one time, then
the reference count lies in the interval, in total and per property,
with identical violations when the ledger is empty; ``hi - lo <= 2 *
len(ledger)``; :func:`~repro.faults.rounds.check_invariants` passes; a
fabric's ledger has no ``NEVER`` row; and with no ``(fabric)`` row and
no control channel a fabric equals its uncrashed twin
(``tests/partition.py``) in sorted violations, every counter and the
ledger by kind.  A replacement's control channel restarts from the
pristine copy, so its drops fall on other ops: that case is the
interval's alone.  A fabric is checked again after ``stop()``, and none
of its workers may outlive ``close()``.
"""

import os
import signal
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.degradation import EVICTION_POLICIES, DegradationPolicy
from repro.core.degradation import FABRIC_ROW
from repro.core.monitor import Monitor, MonitorStats
from repro.fabric import SupervisorPolicy, fork_available, supervise
from repro.faults.profiles import (
    ChaosProfile,
    ControlFaultProfile,
    FaultyEventChannel,
    LinkFaultProfile,
    monitor_profile_kwargs,
)
from repro.faults.rounds import (
    build_monitor,
    catalog_trace,
    check_invariants,
    count_by_property,
    fingerprint,
)
from repro.props import build_table1
from repro.switch.switch import ProcessingMode
from tests.forks import assert_reaped, track
from tests.partition import Partitioned

CATALOG = [entry.prop for entry in build_table1()]

#: ledger kinds only a hung worker, a poison batch or a spent restart
#: budget can cause, none of which the machine draws
NEVER = {supervise.KIND_QUIT_TIMEOUT, supervise.KIND_QUARANTINE,
         supervise.KIND_SHARD_LOST}
#: kill rules per example (the teardown may SIGKILL once more)
KILLS = 2
#: the supervisor's checkpoint floor, put back after every example that
#: draws its own
FLOOR = supervise.CHECKPOINT_FLOOR

seeds = st.integers(min_value=0, max_value=2 ** 16)
shards = st.integers(min_value=0, max_value=1)
counts = st.integers(min_value=1, max_value=25)
#: a batch that can outgrow the journal of a 16-event floor after a kill
bursts = counts | st.integers(min_value=26, max_value=300)
chunks = st.sampled_from([1, 7, 64, 150])

policies = st.builds(
    DegradationPolicy,
    max_instances=st.sampled_from([1, 2, 4, 16]),
    eviction=st.sampled_from(EVICTION_POLICIES),
    max_pending_ops=st.sampled_from([None, 1, 2, 8]),
    retry_backoff=st.sampled_from([0.0, 1e-4, 0.05]),
    max_retries=st.integers(min_value=0, max_value=2),
)

link_profiles = st.one_of(
    st.just(LinkFaultProfile()),
    st.builds(
        LinkFaultProfile,
        drop=st.sampled_from([0.0, 0.1, 0.5]),
        duplicate=st.sampled_from([0.0, 0.2]),
        reorder=st.sampled_from([0.0, 0.3]),
        reorder_window=st.just(0.05),
        jitter=st.sampled_from([0.0, 0.01]),
        corrupt=st.sampled_from([0.0, 0.2]),
        seed=seeds,
    ),
)

control_profiles = st.one_of(
    st.just(ControlFaultProfile()),
    st.builds(
        ControlFaultProfile,
        drop=st.sampled_from([0.0, 0.1, 0.5]),
        extra_lag=st.sampled_from([0.0, 1e-3, 0.1]),
        jitter=st.sampled_from([0.0, 0.01]),
        seed=seeds,
    ),
)


def catalog_monitor(**kwargs) -> Monitor:
    monitor = Monitor(**kwargs)
    for prop in CATALOG:
        monitor.add_property(prop)
    return monitor


class FaultMachine(RuleBasedStateMachine):
    #: drive a 2-shard forked fabric instead of one Monitor
    fabric = False
    twin = None
    kills = 0
    #: the shard to SIGKILL once its checkpoint request is outstanding
    trap = None

    @initialize(
        mode=st.sampled_from(list(ProcessingMode)),
        split_lag=st.sampled_from([0.0, 5e-4, 0.02]),
        policy=st.none() | policies,
        link=link_profiles,
        control=control_profiles,
        interval=st.sampled_from([16, 64, 256]),
        kill_at_stop=st.sampled_from([None, 0, 1]),
    )
    def build(self, mode, split_lag, policy, link, control, interval,
              kill_at_stop):
        profile = ChaosProfile("machine", "drawn", control=control,
                               mode=mode, split_lag=split_lag,
                               degradation=policy)
        self.oracle = catalog_monitor(mode=mode, split_lag=split_lag,
                                      match_strategy="interpreted")
        self.tap = FaultyEventChannel(link, name="machine")
        #: what monitors replaced by a restore reported
        self.carried_violations = []
        if not self.fabric:
            self.kwargs = monitor_profile_kwargs(profile)
            self.monitor = catalog_monitor(**self.kwargs)
            return
        self.kill_at_stop = kill_at_stop
        supervise.CHECKPOINT_FLOOR = interval
        self.monitor = build_monitor(
            profile, num_shards=2, supervision=SupervisorPolicy(
                backoff_base=0.0, backoff_max=0.0, restart_budget=64))
        self.pids = track(self.monitor)
        if control.is_null:
            self.twin = Partitioned(
                CATALOG, 2, lambda: monitor_profile_kwargs(profile))

    def _monitors(self):
        return [monitor for monitor in (self.monitor, self.oracle, self.twin)
                if monitor is not None]

    def _now(self) -> float:
        return max(monitor.now for monitor in self._monitors())

    def _feed(self, seed, count, chunk):
        """Deliver a fresh batch after the present through the tap, to
        the oracle and the twin whole and to the monitor in chunks,
        yielding after each; an armed trap fires after the first chunk
        that leaves its shard's checkpoint request outstanding."""
        start = self._now() + 1e-3
        delivered = self.tap.transform([
            replace(event, time=event.time + start)
            for event in catalog_trace(seed, count)])
        self.oracle.observe_batch(delivered)
        if self.twin is not None:
            self.twin.observe_batch(delivered)
        for first in range(0, len(delivered), chunk):
            self.monitor.observe_batch(delivered[first:first + chunk])
            if self.trap is not None and self.monitor.shard_liveness()[
                    self.trap]["checkpoint_pending"]:
                self._sigkill(self.trap)
                self.trap = None
            yield

    def _sigkill(self, shard):
        pid = self.monitor.supervisor.worker_pids()[shard]
        if pid is not None:
            os.kill(pid, signal.SIGKILL)

    @rule(seed=seeds, count=counts, chunk=chunks)
    def traffic(self, seed, count, chunk):
        for _ in self._feed(seed, count, chunk):
            pass

    @rule(dt=st.sampled_from([1e-3, 0.05, 1.0, 30.0, 600.0]))
    def advance(self, dt):
        when = self._now() + dt
        for monitor in self._monitors():
            monitor.advance_to(when)

    @precondition(lambda self: not self.fabric)
    @rule()
    def checkpoint_and_restore(self):
        # Quiescent: the invariant below drained every in-flight op.
        state = self.monitor.export_state()
        assert state.lost_pending_ops == 0
        fresh = catalog_monitor(**self.kwargs)
        fresh.restore_state(state)
        self.carried_violations.extend(self.monitor.violations)
        self.monitor = fresh

    # The kill rules count when drawn, not when a kill lands: whether a
    # cut is outstanding is a matter of timing, and draws must not be.

    @precondition(lambda self: self.fabric and self.kills < KILLS)
    @rule(shard=shards, at_cut=st.booleans())
    def kill(self, shard, at_cut):
        """SIGKILL ``shard`` now, between steps, when everything its
        worker saw is merged; or (``at_cut``) arm the trap for it."""
        self.kills += 1
        if at_cut:
            self.trap = shard
        else:
            self._sigkill(shard)

    @precondition(lambda self: self.fabric and self.kills < KILLS)
    @rule(seed=seeds, count=bursts, chunk=chunks, shard=shards,
          sync=st.booleans())
    def kill_mid_traffic(self, seed, count, chunk, shard, sync):
        """SIGKILL ``shard`` after the first chunk of a batch, after a
        ``sync()`` if drawn; the rest of the batch finds it dead."""
        self.kills += 1
        for index, _ in enumerate(self._feed(seed, count, chunk)):
            if index == 0:
                if sync:
                    self.monitor.sync()
                self._sigkill(shard)

    @invariant()
    def reference_count_lies_in_the_interval(self):
        if self.fabric:
            while self.monitor.drain() or self.monitor.recovering_shards():
                pass
        else:
            assert self.monitor.drain() == 0
        assert self.oracle.drain() == 0
        if self.twin is not None:
            self.twin.drain()
        when = self._now()
        for monitor in self._monitors():
            monitor.advance_to(when)
        self._check()

    def _check(self):
        ledger = self.monitor.ledger
        observed = self.carried_violations + list(self.monitor.violations)
        reference = self.oracle.violations
        lo, hi = ledger.interval(len(observed))
        assert lo <= len(reference) <= hi, (lo, len(reference), hi)
        assert hi - lo <= 2 * len(ledger)

        observed_by, reference_by = (count_by_property(observed),
                                     count_by_property(reference))
        for name in set(observed_by) | set(reference_by) \
                | set(ledger.properties()):
            lo, hi = ledger.interval(observed_by.get(name, 0), name)
            assert lo <= reference_by.get(name, 0) <= hi, (name, lo, hi)
        if not len(ledger):
            # a fabric orders same-time violations its own way
            order = sorted if self.fabric else list
            assert order(fingerprint(observed)) \
                == order(fingerprint(reference))
        assert check_invariants(self.monitor) == []
        if not self.fabric:
            return
        assert not NEVER & set(ledger.by_kind()), ledger.by_kind()
        if self.twin is None or any(key[1] == FABRIC_ROW
                                    for key in ledger.counts):
            return
        assert sorted(fingerprint(observed)) \
            == sorted(fingerprint(self.twin.violations))
        assert {name: getattr(self.monitor.stats, name)
                for name in MonitorStats._COUNTERS} \
            == {name: self.twin.counter(name)
                for name in MonitorStats._COUNTERS}
        assert ledger.by_kind() == self.twin.by_kind()

    def teardown(self):
        if not self.fabric:
            return
        try:
            if self.kill_at_stop is not None:
                self._sigkill(self.kill_at_stop)
            # Every monitor stands drained at one time since the last
            # step, so the stopped fabric must answer as it did then.
            self.monitor.stop()
            self._check()
        finally:
            supervise.CHECKPOINT_FLOOR = FLOOR
            self.monitor.close()
            assert_reaped(self.pids)


class FabricFaultMachine(FaultMachine):
    fabric = True


TestFaultMachine = FaultMachine.TestCase
TestFaultMachine.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

TestFabricFaultMachine = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable")(
        FabricFaultMachine.TestCase)
TestFabricFaultMachine.settings = settings(
    TestFaultMachine.settings, max_examples=15)
