"""Unit tests for the fabric supervisor: detection, recovery, quarantine.

The supervisor only ever talks to workers through the ``MpShard``
method surface, so these tests drive it with an in-memory fake — no
fork, no sockets — and a hand-cranked wall clock.  The fake answers
like the real worker does — one reply per request, in request order —
and can be told to hold its replies back, which is how the
asynchronous-checkpoint cases put batches between a request and its
reply, or to answer only once the supervisor waits (``slow``).  The
checkpoint round-trip tests use the real :class:`Monitor`
export/restore path, including timer re-arming, since crash-replay
equivalence depends on it being exact.
"""

import pickle
from collections import deque
from types import SimpleNamespace

import pytest

from repro.core.monitor import Monitor
from repro.core.degradation import OverflowLedger
from repro.core.refs import Bind, EventKind, EventPattern, FieldEq, Var
from repro.core.spec import Absent, Observe, PropertySpec
from repro.fabric import Supervisor, SupervisorPolicy, supervise
from repro.fabric.mp import ShardDied
from repro.fabric.shard import ShardSnapshot, take_snapshot
from repro.fabric.supervise import (
    JOURNAL_INTERVALS,
    KIND_GAP,
    KIND_LOST_OP,
    KIND_QUARANTINE,
    KIND_QUIT_TIMEOUT,
    KIND_SHARD_LOST,
    POISON_THRESHOLD,
)
from repro.packet import tcp_packet
from repro.switch.events import PacketArrival
from repro.telemetry import MetricsRegistry


# -- fakes ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def sleep(self, delay):
        self.t += delay


class FakeWorker:
    """Duck-typed MpShard: scriptable deaths, full interaction log."""

    def __init__(self, idx, die_on=None):
        self.idx = idx
        self.pid = 1000 + idx
        self.alive = True
        self.received = []   # batches delivered via send_batch
        self.restored = None
        self.requests = []   # "H" / "S" / "C", in the order they came
        #: what the parent can read, oldest first: ("A", seq) or
        #: ("S", ShardSnapshot)
        self.replies = deque()
        #: while True, replies pile up in ``held`` (a worker that has
        #: not got to the request yet) until ``release()``
        self.hold = False
        self.held = []
        #: with ``hold``: a worker that is behind, whose held replies
        #: arrive as soon as the supervisor waits for one
        self.slow = False
        #: violations the next snapshot reply reports (then forgotten)
        self.fresh_violations = []
        #: predicate(batch) -> bool; True kills this worker on delivery
        self.die_on = die_on
        #: True kills this worker when it is asked for its final snapshot
        self.die_at_quit = False
        #: True kills this worker right after it takes a restore in
        self.die_at_restore = False
        #: live instances every snapshot reports
        self.live = 0

    def _check(self):
        if not self.alive:
            raise ShardDied(f"shard {self.idx}: worker dead")

    def is_alive(self):
        return self.alive

    def send_batch(self, events):
        self._check()
        if self.die_on is not None and self.die_on(events):
            self.alive = False
            raise ShardDied(f"shard {self.idx}: poisoned")
        self.received.append(list(events))

    def advance_to(self, when):
        self._check()

    def drain(self):
        self._check()

    def _answer(self, reply):
        (self.held if self.hold else self.replies).append(reply)

    def release(self):
        self.hold = False
        self.replies.extend(self.held)
        self.held = []

    def _snapshot(self, checkpoint=False):
        violations, self.fresh_violations = self.fresh_violations, []
        return ShardSnapshot(
            shard=self.idx, now=0.0, live_instances=self.live, pending_ops=0,
            counters={}, violations=violations,
            state=b"state-%d" % len(self.requests) if checkpoint else None,
            export_seconds=0.125 if checkpoint else 0.0)

    def ping(self, seq):
        self._check()
        self.requests.append("H")
        self._answer(("A", seq))

    def recv_ack(self, timeout):
        # like MpShard: replies that came back before a death stay
        # readable, and only an empty inbox raises
        if not self.replies:
            self._check()
            return None
        tag, value = self.replies.popleft()
        if tag != "A":
            raise ShardDied(f"shard {self.idx}: unexpected reply {tag!r}")
        return value

    def restore(self, state):
        self._check()
        self.restored = state
        if self.die_at_restore:
            self.alive = False

    def request_snapshot(self, checkpoint=False):
        self._check()
        self.requests.append("C" if checkpoint else "S")
        self._answer(("S", self._snapshot(checkpoint)))

    def recv_snapshot(self, timeout):
        self._check()
        if self.slow and timeout > 0:
            self.release()
        while self.replies:
            tag, value = self.replies.popleft()
            if tag == "S":
                return value
        return None

    def quit(self, timeout):
        self._check()
        if self.die_at_quit:
            self.alive = False
            raise ShardDied(f"shard {self.idx}: died at quit")
        self.requests.append("Q")
        self._answer(("S", self._snapshot()))
        snapshot = self.recv_snapshot(timeout)  # like MpShard: first "S"
        self.alive = False
        return snapshot

    def kill(self, sig=None):
        self.alive = False


def batch(*times):
    return [SimpleNamespace(time=t) for t in times]


def run_of(first, count):
    """A batch of ``count`` events from time ``first``, 1/64 s apart."""
    return batch(*(first + k / 64 for k in range(count)))


def make_supervisor(policy=None, die_on=None, num_shards=1, registry=None,
                    merge=lambda snap: None):
    """(supervisor, ledger, spawned-workers list, clock)."""
    clock = FakeClock()
    ledger = OverflowLedger()
    spawned = []

    def spawn(idx):
        worker = FakeWorker(idx, die_on=die_on)
        spawned.append(worker)
        return worker

    sup = Supervisor(spawn, num_shards, ledger, merge, policy=policy,
                     registry=registry, clock=clock, sleep=clock.sleep)
    return sup, ledger, spawned, clock


# -- policy validation ------------------------------------------------------

class TestPolicyValidation:
    def test_defaults_valid(self):
        SupervisorPolicy()

    @pytest.mark.parametrize("field,value", [
        ("restart_budget", -1),
        ("heartbeat_interval", -0.1),
        ("heartbeat_timeout", -1.0),
        ("backoff_base", -0.5),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SupervisorPolicy(**{field: value})


# -- journal ----------------------------------------------------------------

@pytest.fixture
def floor(monkeypatch):
    """Sets the supervisor's checkpoint floor for one test."""
    return lambda events: monkeypatch.setattr(
        supervise, "CHECKPOINT_FLOOR", events)


class TestJournal:
    """The journal is bounded in events: ``JOURNAL_INTERVALS`` due sizes.
    With the floor at 1 and no live state that is ``BOUND`` events.
    Only a down shard's journal ages out (a live worker's is held to the
    bound by its cuts: ``TestAsyncCheckpoint``)."""

    BOUND = JOURNAL_INTERVALS
    HALF = JOURNAL_INTERVALS // 2

    @pytest.fixture(autouse=True)
    def _floor(self, floor):
        floor(1)
        self.floor = floor

    def _down(self):
        """A supervisor whose worker is found dead at the first send and
        not restarted before the clock passes 1 s."""
        sup, ledger, spawned, clock = make_supervisor(SupervisorPolicy(
            backoff_base=1.0, backoff_max=1.0))
        spawned[0].alive = False
        return sup, ledger, spawned, clock

    def test_truncation_drops_oldest_and_ledgers_gap(self):
        sup, ledger, spawned, clock = self._down()
        half = self.HALF
        for b in (run_of(1.0, half), run_of(2.0, half), batch(3.0),
                  batch(4.0)):
            sup.send_batch(0, b)  # first send detects the death; rest queue
        st = sup.states[0]
        # the third batch took it over the bound: the oldest batch aged
        # out, whole, and is ledgered as it went
        assert len(st.journal) == 3
        assert st.journal_events == half + 2
        assert ledger.summary()["by_kind"] == {KIND_GAP: half}
        # clock still inside the backoff window: no restart yet
        assert sup.recovering() == [0]
        assert len(spawned) == 1
        # past the backoff the next send restarts; its own journal
        # append ages out the next-oldest batch first
        clock.t = 10.0
        sup.send_batch(0, run_of(5.0, half))
        assert len(spawned) == 2
        replacement = spawned[1]
        assert [b[0].time for b in replacement.received] == [3.0, 4.0, 5.0]
        assert [len(b) for b in replacement.received] == [1, 1, half]
        assert ledger.summary()["by_kind"][KIND_GAP] == 2 * half

    def test_only_fresh_drops_ledgered_per_restart(self):
        """An aged batch is ink once, as it ages: before any restart, and
        never again at that restart or a later one."""
        sup, ledger, spawned, clock = self._down()
        bound = self.BOUND  # each batch fills the journal by itself
        sup.send_batch(0, run_of(1.0, bound))  # death detected
        sup.send_batch(0, run_of(2.0, bound))  # ages b1 out: a gap now
        assert ledger.summary()["by_kind"] == {KIND_GAP: bound}
        assert len(spawned) == 1
        clock.t = 10.0
        sup.tick()                             # restart #1 replays b2
        spawned[-1].alive = False
        sup.heartbeat()
        clock.t = 20.0
        sup.tick()                             # restart #2 replays b2
        assert len(spawned) == 3
        assert [b[0].time for b in spawned[-1].received] == [2.0]
        assert ledger.summary()["by_kind"] == {KIND_GAP: bound}

    def test_newest_batch_is_kept_whatever_its_size(self):
        sup, ledger, spawned, clock = self._down()
        st = sup.states[0]
        sup.send_batch(0, run_of(1.0, 2 * self.BOUND))
        assert len(st.journal) == 1 and len(ledger) == 0
        sup.send_batch(0, batch(2.0))
        assert [b[0].time for b in st.journal] == [2.0]
        assert ledger.summary()["by_kind"][KIND_GAP] == 2 * self.BOUND

    def test_batch_size_does_not_move_the_bound(self):
        # the same events as 1-event and as 4-event batches reach back
        # the same distance: one due size, one unit
        self.floor(4)
        reach = []
        for size in (1, 4):
            sup, ledger, spawned, clock = make_supervisor(SupervisorPolicy(
                backoff_base=1.0, backoff_max=1.0))
            spawned[0].alive = False
            for n in range(0, 64, size):
                sup.send_batch(0, run_of(float(n), size))
            st = sup.states[0]
            assert st.journal_events == JOURNAL_INTERVALS * 4
            assert ledger.summary()["by_kind"][KIND_GAP] == 64 - 32
            reach.append(st.journal[0][0].time)
        assert reach[0] == reach[1] == 32.0


# -- backoff and budget -----------------------------------------------------

class TestBackoffAndBudget:
    def test_backoff_doubles_while_recovery_keeps_failing(self):
        # every replacement is dead on arrival, so each restart attempt
        # is a consecutive failure: backoff doubles, then caps
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=0.3,
                                  restart_budget=10)
        sup, ledger, spawned, clock = make_supervisor(policy)

        def stillborn(idx):
            worker = FakeWorker(idx)
            worker.alive = False
            return worker

        sup._spawn = stillborn
        spawned[0].alive = False
        sup.heartbeat()                  # worker #1 found dead
        delays = []
        for _ in range(4):
            delays.append(sup.states[0].next_restart_at - clock.t)
            clock.t = sup.states[0].next_restart_at
            sup.tick()                   # restart attempt; it dies
        assert delays == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.3), pytest.approx(0.3)]

    def test_successful_recovery_resets_backoff(self):
        policy = SupervisorPolicy(backoff_base=0.1, backoff_max=10.0,
                                  restart_budget=10)
        sup, ledger, spawned, clock = make_supervisor(policy)
        sup.states[0].worker.alive = False
        sup.heartbeat()
        clock.t = 100.0
        sup.tick()
        assert sup.states[0].consecutive_failures == 0
        sup.states[0].worker.alive = False
        sup.heartbeat()
        # back to the base backoff, not 2x
        assert sup.states[0].next_restart_at - clock.t \
            == pytest.approx(0.1)

    def test_budget_exhaustion_fails_shard_and_ledgers(self):
        policy = SupervisorPolicy(restart_budget=1, backoff_base=0.0,
                                  backoff_max=0.0)
        sup, ledger, spawned, clock = make_supervisor(policy)
        spawned[0].alive = False
        sup.send_batch(0, batch(1.0))       # death detected, journaled
        sup.send_batch(0, batch(2.0))       # restart #1 (budget now spent)
        spawned[-1].alive = False
        sup.send_batch(0, batch(3.0))       # death again
        sup.send_batch(0, batch(4.0))       # budget exhausted -> failed
        assert sup.failed() == [0]
        rows = sup.liveness()
        assert rows[0]["failed"] and "budget" in rows[0]["down_reason"]
        by_kind = ledger.summary()["by_kind"]
        assert by_kind[KIND_SHARD_LOST] >= 2  # journal + later sends
        before = by_kind[KIND_SHARD_LOST]
        sup.send_batch(0, batch(5.0, 6.0))  # every further event ledgered
        assert ledger.summary()["by_kind"][KIND_SHARD_LOST] == before + 2


# -- poison quarantine ------------------------------------------------------

class TestQuarantine:
    def test_replay_killer_batch_is_quarantined(self):
        policy = SupervisorPolicy(backoff_base=0.0, backoff_max=0.0,
                                  restart_budget=10)
        poison = batch(666.0)

        def die_on(events):
            return bool(events) and events[0].time == 666.0

        sup, ledger, spawned, clock = make_supervisor(policy, die_on=die_on)
        sup.send_batch(0, batch(1.0))
        sup.send_batch(0, poison)          # kills worker #1 on delivery
        # journal holds both batches; replay hits the poison again
        sup.send_batch(0, batch(2.0))      # restart -> replay dies (kill 1)
        sup.send_batch(0, batch(3.0))      # restart -> replay dies (kill 2)
        assert POISON_THRESHOLD == 2
        assert sup.states[0].quarantined == 1
        assert sup.total_restarts() == 2
        assert ledger.summary()["by_kind"][KIND_QUARANTINE] == 1
        # with the poison gone the next restart replays clean
        sup.send_batch(0, batch(4.0))
        assert sup.states[0].worker is not None
        replayed = [[e.time for e in b]
                    for b in spawned[-1].received]
        assert [666.0] not in replayed
        assert sup.liveness()[0]["quarantined_batches"] == 1

    def test_the_first_unacknowledged_batch_is_charged(self):
        """The replay sends every batch with a ping behind it and reads
        the acks afterwards: the third of five batches kills each
        replacement, is charged both times and set aside, and the other
        four replay in order."""
        policy = SupervisorPolicy(backoff_base=1.0, backoff_max=1.0,
                                  restart_budget=10, heartbeat_interval=1e9)

        def die_on(events):
            return events[0].time == 3.0

        sup, ledger, spawned, clock = make_supervisor(policy, die_on=die_on)
        st = sup.states[0]
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):  # the third kills worker #1
            sup.send_batch(0, batch(t))
        assert times(st.journal) == [[1.0], [2.0], [3.0], [4.0], [5.0]]
        for attempt in range(POISON_THRESHOLD):
            clock.t = st.next_restart_at
            sup.tick()                        # replay dies at the third
            assert times(spawned[-1].received) == [[1.0], [2.0]]
        assert st.quarantined == 1
        assert ledger.summary()["by_kind"] == {KIND_QUARANTINE: 1}
        clock.t = st.next_restart_at
        sup.tick()
        assert st.worker is spawned[-1] and len(spawned) == 4
        assert times(spawned[-1].received) == [[1.0], [2.0], [4.0], [5.0]]
        assert spawned[-1].requests == ["H"] * 4

    def test_a_replacement_lost_to_its_restore_charges_no_batch(self):
        """The restore is acknowledged before any batch is replayed, so
        replacements that die taking the checkpoint in charge the journal
        nothing: two such deaths quarantine no batch, and the third
        replacement replays the whole journal."""
        policy = SupervisorPolicy(backoff_base=1.0, backoff_max=1.0,
                                  restart_budget=10, heartbeat_interval=1e9)
        sup, ledger, spawned, clock = make_supervisor(policy)
        st = sup.states[0]
        st.checkpoint = b"opaque"
        for t in (1.0, 2.0):
            sup.send_batch(0, batch(t))
        spawn = sup._spawn

        def lost_to_restore(idx):
            worker = spawn(idx)
            worker.die_at_restore = len(spawned) <= 1 + POISON_THRESHOLD
            return worker

        sup._spawn = lost_to_restore
        spawned[0].alive = False
        sup.heartbeat()
        for attempt in range(POISON_THRESHOLD):
            clock.t = st.next_restart_at
            sup.tick()
            assert spawned[-1].restored == b"opaque"
            assert not spawned[-1].alive and spawned[-1].received == []
        assert st.quarantined == 0 and st.kills == {}
        assert len(ledger) == 0
        clock.t = st.next_restart_at
        sup.tick()
        assert st.worker is spawned[-1] and len(spawned) == 4
        assert times(spawned[-1].received) == [[1.0], [2.0]]
        assert spawned[-1].requests == ["H"] * 3
        assert len(ledger) == 0


# -- duplicate suppression --------------------------------------------------

class TestDuplicateSuppression:
    def test_deliver_trims_rereported_violations(self):
        merged = []
        sup, ledger, spawned, clock = make_supervisor(merge=merged.append)
        st = sup.states[0]
        st.discard_violations = 2
        snap = ShardSnapshot(shard=0, now=0.0, live_instances=0,
                             pending_ops=0, counters={},
                             violations=["v1", "v2", "v3"])
        sup._deliver(0, snap)
        assert merged[0].violations == ["v3"]
        assert st.discard_violations == 0
        assert st.merged_violations == 1
        # a second snapshot passes through untrimmed
        snap2 = ShardSnapshot(shard=0, now=0.0, live_instances=0,
                              pending_ops=0, counters={},
                              violations=["v4"])
        sup._deliver(0, snap2)
        assert merged[1].violations == ["v4"]


# -- asynchronous checkpoints -----------------------------------------------

def times(batches):
    return [[e.time for e in b] for b in batches]


class TestAsyncCheckpoint:
    """A checkpoint is requested, then taken in whenever its reply is
    there; the journal is cut back only then, and only up to the cut."""

    #: 2-event batches against a 4-event floor (and no live state):
    #: every second batch is due a checkpoint request
    POLICY = dict(backoff_base=0.0, backoff_max=0.0)

    @pytest.fixture(autouse=True)
    def _floor(self, floor):
        floor(4)
        self.floor = floor

    def _supervisor(self, **policy):
        merged = []
        sup, ledger, spawned, clock = make_supervisor(
            SupervisorPolicy(**{**self.POLICY, **policy}),
            merge=merged.append)
        return sup, ledger, spawned, clock, merged

    def test_late_reply_cuts_journal_at_the_request(self):
        sup, ledger, spawned, clock, merged = self._supervisor()
        worker, st = spawned[0], sup.states[0]
        worker.hold = True
        sup.send_batch(0, batch(1.0, 1.5))
        sup.send_batch(0, batch(2.0, 2.5))       # k = 2: cut requested
        assert worker.requests == ["C"]
        assert sup.liveness()[0]["checkpoint_pending"]
        clock.t = 0.25
        for t in (3.0, 4.0, 5.0):                # k+1 .. k+3, reply held
            sup.send_batch(0, batch(t, t + 0.5))
            sup.tick()
        # nothing landed: journal whole, and never a second cut
        assert len(st.journal) == 5 and st.checkpoint is None
        assert worker.requests == ["C"]
        worker.release()
        sup.tick()                               # any receive lands it
        assert times(st.journal) == [[3.0, 3.5], [4.0, 4.5], [5.0, 5.5]]
        assert st.journal_events == 6
        assert st.since_snapshot_events == 6
        assert st.checkpoint == b"state-1"
        assert not sup.liveness()[0]["checkpoint_pending"]
        # the cadence resumed from the cut: 6 >= 4, so the next batch
        # asks again
        sup.send_batch(0, batch(6.0, 6.5))
        assert worker.requests == ["C", "C"]

    def test_landed_checkpoint_gauges_its_size_and_export_cost(self):
        registry = MetricsRegistry()
        sup, _, _, _ = make_supervisor(
            SupervisorPolicy(**self.POLICY), registry=registry)
        sup.send_batch(0, batch(1.0, 1.5))
        sup.send_batch(0, batch(2.0, 2.5))       # cut requested
        sup.tick()                               # and landed
        assert sup.states[0].checkpoint == b"state-1"
        gauges = {
            metric["name"]: [sample["value"] for sample in metric["samples"]]
            for metric in registry.snapshot()["metrics"]
            if metric["kind"] == "gauge"}
        assert gauges["repro_fabric_checkpoint_bytes"] == [len(b"state-1")]
        assert gauges["repro_fabric_checkpoint_export_seconds"] == [0.125]

    def test_death_with_cut_outstanding_recovers_from_previous(self):
        sup, ledger, spawned, clock, merged = self._supervisor()
        worker, st = spawned[0], sup.states[0]
        sup.send_batch(0, batch(1.0, 1.5))
        sup.send_batch(0, batch(2.0, 2.5))       # cut #1 requested ...
        sup.send_batch(0, batch(3.0, 3.5))       # ... and landed here
        previous = st.checkpoint
        assert previous is not None and times(st.journal) == [[3.0, 3.5]]
        worker.fresh_violations = ["v1", "v2"]
        sup.sync_snapshots()                     # merged since cut #1
        worker.hold = True
        sup.send_batch(0, batch(4.0, 4.5))       # cut #2 requested, held
        assert worker.requests == ["C", "S", "C"] and st.cut is not None
        sup.send_batch(0, batch(5.0, 5.5))
        worker.alive = False                     # dies before replying
        sup.send_batch(0, batch(6.0, 6.5))       # death detected
        assert st.cut is None and st.checkpoint is previous
        sup.send_batch(0, batch(7.0, 7.5))       # restart + replay
        replacement = spawned[-1]
        assert replacement is not worker
        assert replacement.restored is previous
        assert times(replacement.received) == [
            [3.0, 3.5], [4.0, 4.5], [5.0, 5.5], [6.0, 6.5], [7.0, 7.5]]
        assert st.discard_violations == 2
        assert len(ledger) == 0

    def test_heartbeat_ack_behind_a_checkpoint_reply(self):
        sup, ledger, spawned, clock, merged = self._supervisor()
        worker, st = spawned[0], sup.states[0]
        worker.fresh_violations = ["c1"]
        sup.send_batch(0, batch(1.0, 1.5))
        sup.send_batch(0, batch(2.0, 2.5))       # cut requested, answered
        assert st.cut is not None
        sup.heartbeat()                          # replies: [S(ckpt), A]
        assert sup.recovering() == [] and worker.alive
        assert st.cut is None and st.checkpoint == b"state-1"
        assert [s.violations for s in merged] == [["c1"]]
        assert not worker.replies

    def test_quiesce_takes_in_the_cut_before_the_final_snapshot(self):
        sup, ledger, spawned, clock, merged = self._supervisor()
        worker, st = spawned[0], sup.states[0]
        worker.fresh_violations = ["c1"]
        sup.send_batch(0, batch(1.0, 1.5))
        sup.send_batch(0, batch(2.0, 2.5))       # cut requested
        worker.fresh_violations = ["f1"]
        sup.quiesce()
        assert [s.violations for s in merged] == [["c1"], ["f1"]]
        assert merged[-1].state is None
        assert st.checkpoint == b"state-1" and len(ledger) == 0

    def test_quiesce_with_an_unanswered_cut_is_a_hung_worker(self):
        sup, ledger, spawned, clock, merged = self._supervisor()
        worker = spawned[0]
        worker.hold = True
        sup.send_batch(0, batch(1.0, 1.5))
        sup.send_batch(0, batch(2.0, 2.5))
        sup.quiesce()
        assert merged == []
        assert not worker.alive and sup.states[0].cut is None
        assert ledger.summary()["by_kind"][KIND_QUIT_TIMEOUT] == 4

    def test_cut_requested_once_the_journal_reaches_the_interval(self):
        """The cadence is the journal itself: a cut is asked for when
        ``journal_events >= max(live, CHECKPOINT_FLOOR)`` and none is
        out."""
        sup, ledger, spawned, clock, merged = self._supervisor()
        worker = spawned[0]
        sup.send_batch(0, batch(1.0, 1.5))                 # 2 < 4
        assert worker.requests == []
        sup.send_batch(0, batch(2.0, 2.5))                 # 4 >= 4
        assert worker.requests == ["C"]
        # the look before the next send lands it: the journal is back to
        # the one new batch, under the interval, so nothing is asked
        sup.send_batch(0, batch(3.0, 3.5))
        assert times(sup.states[0].journal) == [[3.0, 3.5]]
        assert worker.requests == ["C"]
        sup.send_batch(0, batch(4.0, 4.5))                 # 4 >= 4
        assert worker.requests == ["C", "C"]

    def test_the_cut_falls_due_at_the_live_state(self):
        """A shard that last reported 40 live instances is due its next
        cut at 40 journal events, not at the floor of 4."""
        sup, ledger, spawned, clock, merged = self._supervisor()
        worker, st = spawned[0], sup.states[0]
        worker.live = 40
        sup.sync_snapshots()
        assert st.checkpoint_due == 40
        for t in range(19):                                # 38 < 40
            sup.send_batch(0, batch(t, t + 0.5))
        assert worker.requests == ["S"]
        sup.send_batch(0, batch(19.0, 19.5))               # 40 >= 40
        assert worker.requests == ["S", "C"]
        assert st.journal_events == 40

    def _past_the_bound(self, slow):
        """b1 (cut #1, landed) | b2 (cut #2 requested, reply held) | b3 ..
        b6, two events each, through a journal of ``JOURNAL_INTERVALS``
        events (the floor at 1): b6 takes the journal past the bound
        while cut #2 is out."""
        assert JOURNAL_INTERVALS == 8, "sized for an 8-event journal"
        self.floor(1)
        sup, ledger, spawned, clock, merged = self._supervisor(
            heartbeat_timeout=0.5)
        worker, st = spawned[0], sup.states[0]
        sup.send_batch(0, batch(1.0, 1.5))       # cut #1 requested
        worker.hold, worker.slow = True, slow
        for t in (2.0, 3.0, 4.0, 5.0):           # b2 lands #1, asks #2
            sup.send_batch(0, batch(t, t + 0.5))
        assert st.checkpoint == b"state-1" and st.cut.seq == 2
        assert st.journal_events == JOURNAL_INTERVALS
        sup.send_batch(0, batch(6.0, 6.5))
        return sup, ledger, spawned, clock

    def test_past_the_bound_the_cut_lands_in_time(self):
        """A worker that is behind but answers within the timeout is
        waited for: its cut trims the journal, and nothing is lost."""
        sup, ledger, spawned, clock = self._past_the_bound(slow=True)
        worker, st = spawned[0], sup.states[0]
        assert worker.alive and st.worker is worker and len(spawned) == 1
        assert st.checkpoint == b"state-2" and st.cut is None
        assert times(st.journal) == [[3.0, 3.5], [4.0, 4.5], [5.0, 5.5],
                                     [6.0, 6.5]]
        assert len(ledger) == 0

    def test_past_the_bound_an_unlanded_cut_is_a_death(self):
        """A worker whose cut does not land within ``heartbeat_timeout``
        once its journal is past the bound is dead.  Its replacement
        restores the previous checkpoint and replays the whole journal:
        nothing aged out, so nothing is ledgered."""
        sup, ledger, spawned, clock = self._past_the_bound(slow=False)
        worker, st = spawned[0], sup.states[0]
        assert not worker.alive and sup.recovering() == [0]
        assert "past the bound" in st.down_reason
        assert st.cut is None and st.checkpoint == b"state-1"
        sup.tick()                               # restart
        replacement = spawned[-1]
        assert replacement is not worker and replacement.alive
        assert replacement.restored == b"state-1"
        assert times(replacement.received) == [
            [2.0, 2.5], [3.0, 3.5], [4.0, 4.5], [5.0, 5.5], [6.0, 6.5]]
        assert len(ledger) == 0


# -- quiesce ----------------------------------------------------------------

class TestQuiesce:
    """A worker dead at its final snapshot is recovered, not hung."""

    def _supervisor(self, **policy):
        merged = []
        sup, ledger, spawned, clock = make_supervisor(SupervisorPolicy(
            backoff_base=0.0, backoff_max=0.0, **policy),
            merge=merged.append)
        sup.send_batch(0, batch(1.0, 1.5))
        sup.send_batch(0, batch(2.0))
        spawned[0].die_at_quit = True
        return sup, ledger, spawned, merged

    def test_dead_at_quit_restarts_replays_and_asks_again(self):
        sup, ledger, spawned, merged = self._supervisor()
        spawned[0].fresh_violations = ["lost-with-the-worker"]
        sup.quiesce()
        replacement = spawned[-1]
        assert len(spawned) == 2 and sup.total_restarts() == 1
        assert times(replacement.received) == [[1.0, 1.5], [2.0]]
        assert replacement.requests[-1] == "Q" and not replacement.alive
        assert len(merged) == 1 and merged[0].violations == []
        assert len(ledger) == 0
        assert sup.liveness()[0]["down_reason"] == ""

    def test_a_quiesced_shard_is_stopped_not_recovering(self):
        sup, ledger, spawned, merged = self._supervisor()
        spawned[0].die_at_quit = False
        sup.quiesce()
        assert sup.recovering() == [] and sup.failed() == []
        assert not sup.liveness()[0]["recovering"]
        assert len(merged) == 1
        sup.tick()
        sup.sync_snapshots()
        sup.quiesce()
        assert len(merged) == 1
        assert len(spawned) == 1 and sup.total_restarts() == 0

    def test_dead_at_quit_with_no_budget_left_is_a_lost_shard(self):
        sup, ledger, spawned, merged = self._supervisor(restart_budget=0)
        sup.quiesce()
        assert merged == []
        assert sup.failed() == [0] and len(spawned) == 1
        assert ledger.summary()["by_kind"] == {KIND_SHARD_LOST: 3}


# -- heartbeat --------------------------------------------------------------

class TestHeartbeat:
    def test_missing_ack_is_a_death(self):
        sup, ledger, spawned, clock = make_supervisor(
            SupervisorPolicy(heartbeat_timeout=0.5))
        worker = sup.states[0].worker

        worker.ping = lambda seq: None  # swallow: ack queue stays empty
        sup.heartbeat()
        assert sup.recovering() == [0]
        assert "no heartbeat ack" in sup.states[0].down_reason

    def test_tick_rate_limits_heartbeats(self):
        sup, ledger, spawned, clock = make_supervisor(
            SupervisorPolicy(heartbeat_interval=1.0))
        worker = sup.states[0].worker
        pings = []
        worker.ping = lambda seq: (pings.append(seq),
                                   worker.replies.append(("A", seq)))
        clock.t = 0.5
        sup.tick()                       # inside the interval: no ping
        assert pings == []
        clock.t = 1.5
        sup.tick()
        assert len(pings) == 1

    def test_lost_pending_ops_ledgered_on_restore(self):
        policy = SupervisorPolicy(backoff_base=0.0, backoff_max=0.0)
        sup, ledger, spawned, clock = make_supervisor(policy)
        st = sup.states[0]
        st.checkpoint = b"opaque"
        st.checkpoint_lost_ops = 3
        st.worker.alive = False
        sup.heartbeat()
        sup.tick()                       # restart restores the checkpoint
        assert spawned[-1].restored is st.checkpoint
        assert ledger.summary()["by_kind"][KIND_LOST_OP] == 3
        # a second crash does not double-ledger the same checkpoint
        sup.states[0].worker.alive = False
        sup.heartbeat()
        sup.tick()
        assert ledger.summary()["by_kind"][KIND_LOST_OP] == 3


# -- checkpoint round-trip (real Monitor) -----------------------------------

def timed_prop(within=5.0, name="answered-in-time"):
    """No reply from S within the window -> timer-fired violation."""
    return PropertySpec(
        name=name,
        description="a reply must arrive within the window",
        stages=(
            Observe("asked", EventPattern(
                kind=EventKind.ARRIVAL, binds=(Bind("S", "eth.src"),))),
            Absent("answered", EventPattern(
                kind=EventKind.ARRIVAL,
                guards=(FieldEq("eth.src", Var("S")),)),
                within=within),
        ),
        key_vars=("S",),
    )


def arrival(src_mac, t):
    return PacketArrival(
        switch_id="s", time=t,
        packet=tcp_packet(src_mac, "00:00:00:00:00:99",
                          "10.0.0.1", "198.51.100.9", 1111, 99),
        in_port=1)


class TestCheckpointRoundTrip:
    def _events(self):
        return [arrival("00:00:00:00:00:01", 1.0),
                arrival("00:00:00:00:00:02", 2.0)]

    def test_export_is_deterministic_and_picklable(self):
        events = self._events()  # shared: packet uids are process-global
        monitors = []
        for _ in range(2):
            m = Monitor()
            m.add_property(timed_prop())
            for ev in events:
                m.observe(ev)
            monitors.append(m)
        a, b = (m.export_state() for m in monitors)
        assert pickle.loads(pickle.dumps(a)) == a
        assert a == b

    def test_restore_rearms_timers_identically(self):
        baseline = Monitor()
        baseline.add_property(timed_prop(within=5.0))
        for ev in self._events():
            baseline.observe(ev)
        state = pickle.loads(pickle.dumps(baseline.export_state()))

        restored = Monitor()
        restored.add_property(timed_prop(within=5.0))
        restored.restore_state(state)
        assert restored.live_instances() == baseline.live_instances()

        # advance both past the deadlines: identical violations fire
        baseline.advance_to(20.0)
        restored.advance_to(20.0)
        assert len(restored.violations) == len(baseline.violations) == 2
        assert ([v.time for v in restored.violations]
                == [v.time for v in baseline.violations])

    def test_restore_does_not_recount_creations(self):
        source = Monitor()
        source.add_property(timed_prop())
        for ev in self._events():
            source.observe(ev)
        created = source.stats.instances_created
        restored = Monitor()
        restored.add_property(timed_prop())
        restored.restore_state(source.export_state())
        # the exporter's count rides the checkpoint: carried over, and
        # restoring the two instances adds nothing to it
        assert restored.stats.instances_created == created == 2
        assert restored.live_instances() == 2

    def test_restore_unknown_property_rejected(self):
        source = Monitor()
        source.add_property(timed_prop())
        source.observe(arrival("00:00:00:00:00:01", 1.0))
        state = source.export_state()
        empty = Monitor()
        with pytest.raises(ValueError):
            empty.restore_state(state)

    def test_rejected_restore_adds_nothing(self):
        """A property the restorer lacks is found before any instance is
        added — not after the known property's rows are already in."""
        source = Monitor()
        for name in ("answered-in-time", "second"):
            source.add_property(timed_prop(name=name))
        for ev in self._events():
            source.observe(ev)
        state = source.export_state()
        assert source.live_instances() == 4
        partial = Monitor()
        partial.add_property(timed_prop())
        with pytest.raises(ValueError, match="second"):
            partial.restore_state(state)
        assert partial.live_instances() == 0
        assert partial.stats.export() == Monitor().stats.export()
        partial.advance_to(100.0)  # no timer was armed either
        assert partial.violations == []

    def test_checkpoint_snapshot_times_its_export(self):
        monitor = Monitor()
        monitor.add_property(timed_prop())
        for ev in self._events():
            monitor.observe(ev)
        plain = take_snapshot(monitor, 0)
        checkpoint = take_snapshot(monitor, 0, with_state=True)
        assert plain.state is None and plain.export_seconds == 0.0
        assert checkpoint.export_seconds > 0.0
        assert pickle.loads(checkpoint.state) == monitor.export_state()

    def test_a_snapshot_hands_its_violations_over(self):
        """A shard keeps no violation it has reported: the next snapshot
        carries none of them, and the counters still count them."""
        monitor = Monitor()
        monitor.add_property(timed_prop(within=5.0))
        for ev in self._events():
            monitor.observe(ev)
        monitor.advance_to(10.0)
        first = take_snapshot(monitor, 0)
        assert len(first.violations) == 2
        assert monitor.violations == []
        second = take_snapshot(monitor, 0, with_state=True)
        assert second.violations == []
        assert second.counters["violations"] \
            == first.counters["violations"] == 2
        assert monitor.stats.violations == 2

    def test_restore_into_a_used_monitor_rejected(self):
        source = Monitor()
        source.add_property(timed_prop())
        source.observe(arrival("00:00:00:00:00:01", 1.0))
        used = Monitor()
        used.add_property(timed_prop())
        used.observe(arrival("00:00:00:00:00:02", 2.0))
        with pytest.raises(ValueError, match="fresh"):
            used.restore_state(source.export_state())
        assert used.live_instances() == 1
        assert used.stats.instances_created == 1
