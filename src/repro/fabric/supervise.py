"""Shard supervision: heartbeats, crash recovery, poison quarantine.

PR 8's fabric assumed immortal workers: a crashed shard silently stopped
monitoring its key slice forever.  The :class:`Supervisor` makes worker
death a *ledgered, recoverable* event instead:

* **Detection** — every parent-side pipe interaction is bounded
  (``ShardDied`` on a closed pipe, ``ShardTimeout`` on a wedged one),
  and a periodic heartbeat (``b"H"`` ping / ``b"A"`` ack) catches
  workers that hang between data-path calls.
* **Recovery** — dead workers restart with exponential backoff under a
  per-shard restart budget.  The replacement is rehydrated from the
  last checkpoint that landed (the worker's pickled
  :class:`~repro.core.monitor.MonitorState` — instances, timers and
  counters — carried on a ``ShardSnapshot`` as bytes this process never
  opens) plus a per-shard journal of every batch delivered since that
  checkpoint, replayed in order, then advanced to the fabric's present;
  the replacement then reports what the dead worker would have.
* **One unit** — the journal is bounded in *events*, like the
  checkpoint interval it is a multiple of (``JOURNAL_INTERVALS``).  A
  batch an outstanding checkpoint covers is never aged out while that
  checkpoint can still land: the supervisor waits for the reply
  (back-pressure on the sender) and ages events out only when it does
  not come within ``heartbeat_timeout``.
* **Checkpoints off the data path** — every ``checkpoint_interval``
  events the supervisor *requests* a checkpoint and keeps routing.  The
  channel is FIFO in both directions, so the request is a consistent
  cut (:class:`_Cut`): the state the worker exports reflects exactly
  the batches sent before the request, whatever is sent while the reply
  is outstanding comes after it, and the reply precedes the reply to
  anything requested later.  So nothing waits for it: whichever receive
  the supervisor does next — the look before a send, ``tick``, a
  heartbeat's ack wait, a sync, ``quiesce`` — takes the reply in first
  (:meth:`Supervisor._land_cut`), and only then is the journal cut back
  to the batches sent after the request.  A worker that dies with a cut
  outstanding forgets it and recovers from the previous checkpoint and
  the whole journal.
* **Honesty** — anything recovery cannot reconstruct (events aged out
  of the journal, deferred split-mode ops at the checkpoint, a shard
  that exhausts its budget) is counted in the fabric's
  :class:`OverflowLedger`, so crashes *widen the detection-uncertainty
  interval* instead of silently dropping violations.
* **Quarantine** — a batch whose replay kills the replacement worker
  ``poison_threshold`` times is set aside: removed from the journal,
  ledgered event by event, counted in
  ``repro_fabric_quarantined_batches_total``, and reported via
  :meth:`Supervisor.liveness` — rather than retried until the restart
  budget burns out.

Duplicate suppression: a regular sync between a checkpoint and a crash
already reported some post-checkpoint violations.  Replay re-detects
them — deterministically, in the same order — so the supervisor trims
that many violations from the replacement's first snapshots before
handing them to the fabric's merge.  Sheds need no trim: they are
cumulative counts that ride the checkpoint, and the merge takes in
only what a count grew by.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from ..core.degradation import FABRIC_ROW, IMPACT_MISSED, OverflowLedger
from ..switch.events import DataplaneEvent
from ..telemetry import MetricsRegistry, NullRegistry
from ..telemetry.metrics import LATENCY_BUCKETS
from .mp import MpShard, ShardDied, ShardTimeout
from .shard import ShardSnapshot

#: ledger kinds the supervisor writes (each count bounds both sides: a
#: lost event could hide a real violation or leave a stale instance
#: that later completes spuriously).
KIND_GAP = "crash-gap"              # journal overflow: events unreplayable
KIND_LOST_OP = "crash-lost-op"      # deferred split ops at the checkpoint
KIND_QUARANTINE = "quarantined-batch"
KIND_SHARD_LOST = "shard-lost"      # restart budget exhausted
KIND_QUIT_TIMEOUT = "shard-quit-timeout"

#: A shard's journal holds at most this many checkpoint intervals of
#: events (and always its newest batch); older batches drop into the
#: ledger as an unrecoverable gap.  Counted in events, the unit of
#: ``checkpoint_interval``, so the journal reaches back to the last
#: landed checkpoint whatever size the batches are.  A healthy worker
#: can lag by a socket buffer — a few thousand events, more than the
#: bound at a small interval — so before a batch that an outstanding
#: cut covers ages out, the supervisor waits (up to
#: ``heartbeat_timeout``) for that cut to land, which trims the journal
#: instead.  The bound bites only while a worker is down or a cut does
#: not land in time.
JOURNAL_INTERVALS = 8


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for crash detection, restart pacing, and recovery cost."""

    #: wall seconds between heartbeat rounds (``tick()`` rate-limits)
    heartbeat_interval: float = 1.0
    #: wall seconds a worker gets to ack a ping or answer a snapshot
    heartbeat_timeout: float = 5.0
    #: restarts allowed per shard before it is declared failed
    restart_budget: int = 5
    #: backoff before restart attempt k is ``base * 2**k`` (capped)
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: events per shard between checkpoints (``--checkpoint-interval``);
    #: the journal bound is ``JOURNAL_INTERVALS`` times this
    checkpoint_interval: int = 2048
    #: replay deaths attributed to one batch before it is quarantined
    poison_threshold: int = 2
    #: wall seconds ``quiesce`` waits for a final snapshot per shard
    quiesce_timeout: float = 30.0
    #: wall seconds a full command pipe may stall a send
    send_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget}")
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, "
                f"got {self.checkpoint_interval}")
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}")
        for name in ("heartbeat_interval", "heartbeat_timeout",
                     "backoff_base", "backoff_max", "quiesce_timeout",
                     "send_timeout"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class QuarantineRecord:
    """One poison batch set aside during recovery."""

    shard: int
    events: int
    first_time: float
    last_time: float
    kills: int


@dataclass
class _Cut:
    """A checkpoint requested of a worker and not yet answered."""

    #: journal sequence number of the first batch sent after the
    #: request; every batch before it is in the state the reply carries
    seq: int
    #: events aged out of the journal that the reply will cover:
    #: ``journal_dropped`` at the request, plus whatever batches from
    #: before the cut age out while it is outstanding
    dropped: int
    #: wall clock at the request
    requested_at: float


@dataclass
class _ShardState:
    """Supervisor-side bookkeeping for one shard."""

    worker: Optional[MpShard] = None
    #: batches delivered (or deferred while down) since the last
    #: checkpoint, oldest first; the recovery replay source.
    journal: Deque[List[DataplaneEvent]] = field(default_factory=deque)
    #: sequence number of ``journal[0]`` (batches that have left the
    #: journal's old end); a batch's own number is this plus its index
    journal_head: int = 0
    journal_events: int = 0
    #: events aged out of the bounded journal since the last checkpoint
    journal_dropped: int = 0
    #: how many of ``journal_dropped`` have already been ledgered as a
    #: gap — later restarts only ledger drops newer than this mark
    dropped_ledgered: int = 0
    #: the last checkpoint that landed: the worker's pickled state,
    #: never opened here, and the deferred ops it could not carry
    checkpoint: Optional[bytes] = None
    checkpoint_lost_ops: int = 0
    checkpoint_ops_ledgered: bool = False
    #: the checkpoint requested and not yet answered — at most one
    cut: Optional[_Cut] = None
    restarts: int = 0
    consecutive_failures: int = 0
    failed: bool = False
    down_reason: str = ""
    next_restart_at: float = 0.0
    #: events sent that no received snapshot reflects yet (what a
    #: quit-timeout loses)
    since_snapshot_events: int = 0
    #: events sent since the last checkpoint *request* (the cadence)
    since_checkpoint_events: int = 0
    #: unique violations merged since the checkpoint — becomes the
    #: post-restore duplicate-discard count
    merged_violations: int = 0
    discard_violations: int = 0
    #: replay deaths per journal batch (key: id() of the batch list,
    #: stable while the journal holds the reference)
    kills: Dict[int, int] = field(default_factory=dict)
    quarantined: int = 0
    #: shut down by ``quiesce``/``close``: gone for good, not rebuilding
    stopped: bool = False

    @property
    def recovering(self) -> bool:
        return self.worker is None and not self.failed and not self.stopped


class Supervisor:
    """Owns the mp workers; turns crashes into restarts and ledger ink.

    The fabric routes every worker interaction through here: sends
    journal first, receives are bounded, and any detected death marks
    the shard *down* (``recovering``) until the backoff elapses and a
    replacement is rehydrated.  While down, routed batches accumulate
    in the journal and are replayed on restart — so a shard that is
    down for a few batches loses nothing, it just answers late.
    """

    def __init__(
        self,
        spawn: Callable[[int], MpShard],
        num_shards: int,
        ledger: OverflowLedger,
        policy: Optional[SupervisorPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        now_fn: Callable[[], float] = lambda: 0.0,
        merge_cb: Optional[Callable[[ShardSnapshot, int], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.num_shards = num_shards
        self.ledger = ledger
        self.registry = registry if registry is not None else NullRegistry()
        self._spawn = spawn
        self._now_fn = now_fn      # fabric/monitor (virtual) time
        self._merge_cb = merge_cb  # fabric._merge
        self._clock = clock        # wall time for backoff/heartbeats
        self._sleep = sleep
        self._hb_seq = 0
        self._last_hb = clock()
        self.quarantine_log: List[QuarantineRecord] = []
        self.states = [_ShardState() for _ in range(num_shards)]
        self._c_restarts = [
            self.registry.counter(
                "repro_fabric_shard_restarts_total",
                help="Worker restarts performed by the fabric supervisor",
                labels={"shard": str(i)})
            for i in range(num_shards)
        ]
        self._h_recovery = self.registry.histogram(
            "repro_fabric_recovery_seconds",
            help="Wall seconds from restart attempt to a rehydrated, "
                 "replayed, and re-advanced replacement worker",
            unit="seconds", buckets=LATENCY_BUCKETS)
        self._c_quarantined = self.registry.counter(
            "repro_fabric_quarantined_batches_total",
            help="Poison batches set aside (ledgered, never retried) "
                 "after repeatedly killing a shard worker")
        self._g_journal = [
            self.registry.gauge(
                "repro_fabric_journal_depth",
                help="Events in one shard's recovery journal (replayable "
                     "since the last checkpoint)",
                labels={"shard": str(i)})
            for i in range(num_shards)
        ]
        self._h_checkpoint = self.registry.histogram(
            "repro_fabric_checkpoint_seconds",
            help="Wall seconds from a checkpoint request to its reply "
                 "being taken in (the data path does not wait for it)",
            unit="seconds", buckets=LATENCY_BUCKETS)
        self._g_checkpoint_bytes = [
            self.registry.gauge(
                "repro_fabric_checkpoint_bytes",
                help="Size of the pickled state in one shard's last "
                     "checkpoint",
                labels={"shard": str(i)})
            for i in range(num_shards)
        ]
        self._g_checkpoint_export = [
            self.registry.gauge(
                "repro_fabric_checkpoint_export_seconds",
                help="Worker CPU seconds spent exporting and pickling "
                     "the state in one shard's last checkpoint",
                unit="seconds", labels={"shard": str(i)})
            for i in range(num_shards)
        ]
        self._g_up = [
            self.registry.gauge(
                "repro_fabric_shard_up",
                help="1 when the shard worker is live, 0 while it is "
                     "down/recovering or permanently failed",
                labels={"shard": str(i)})
            for i in range(num_shards)
        ]
        try:
            for idx in range(num_shards):
                self.states[idx].worker = spawn(idx)
                self._g_up[idx].set(1.0)
        except BaseException:
            self.close()
            raise

    # -- data path ---------------------------------------------------------
    def send_batch(self, idx: int, events: List[DataplaneEvent]) -> None:
        """Journal + deliver one routed batch; absorb worker death."""
        st = self.states[idx]
        if st.failed:
            self._ledger_events(KIND_SHARD_LOST, len(events))
            return
        self._journal_append(st, idx, events)
        if st.worker is None:
            # A successful restart replays the whole journal — which
            # already includes the batch just appended — so this path
            # must never ALSO deliver it directly (double-observation).
            self._maybe_restart(idx)
            return
        try:
            self._land_cut(idx, 0.0)
            st.worker.send_batch(events)
            st.since_snapshot_events += len(events)
            st.since_checkpoint_events += len(events)
            if st.cut is None and st.since_checkpoint_events \
                    >= self.policy.checkpoint_interval:
                self._request_cut(idx)
        except (ShardDied, ShardTimeout) as exc:
            self._on_death(idx, str(exc))

    def advance_to(self, when: float) -> None:
        for idx, st in enumerate(self.states):
            if st.worker is None:
                continue
            try:
                st.worker.advance_to(when)
            except (ShardDied, ShardTimeout) as exc:
                self._on_death(idx, str(exc))

    def drain(self) -> None:
        for idx, st in enumerate(self.states):
            if st.worker is None:
                continue
            try:
                st.worker.drain()
            except (ShardDied, ShardTimeout) as exc:
                self._on_death(idx, str(exc))

    # -- snapshots ---------------------------------------------------------
    def sync_snapshots(self) -> List[Optional[ShardSnapshot]]:
        """One snapshot per shard; None for shards down this round."""
        requested: List[int] = []
        for idx, st in enumerate(self.states):
            if st.recovering:
                self._maybe_restart(idx)
            if st.worker is None:
                continue
            try:
                st.worker.request_snapshot()
                requested.append(idx)
            except (ShardDied, ShardTimeout) as exc:
                self._on_death(idx, str(exc))
        out: List[Optional[ShardSnapshot]] = [None] * self.num_shards
        for idx in requested:
            st = self.states[idx]
            timeout = self.policy.heartbeat_timeout
            try:
                snap = st.worker.recv_snapshot(timeout) \
                    if self._land_cut(idx, timeout) else None
            except ShardDied as exc:
                self._on_death(idx, str(exc))
                continue
            if snap is None:
                self._on_death(
                    idx, f"shard {idx}: no snapshot within {timeout}s")
                continue
            out[idx] = self._deliver(idx, snap)
        return out

    def _deliver(self, idx: int, snap: ShardSnapshot,
                 unconfirmed: int = 0) -> ShardSnapshot:
        """Trim replay re-detections, account, and merge one snapshot.

        ``unconfirmed`` is how many events were sent after the point
        the snapshot reflects (non-zero only for a checkpoint reply,
        which answers a request made some batches ago).
        """
        st = self.states[idx]
        if st.discard_violations:
            dropped = min(st.discard_violations, len(snap.violations))
            snap.violations = snap.violations[dropped:]
            st.discard_violations -= dropped
        st.merged_violations += len(snap.violations)
        st.since_snapshot_events = unconfirmed
        if self._merge_cb is not None:
            self._merge_cb(snap, unconfirmed)
        return snap

    # -- checkpoints -------------------------------------------------------
    def _request_cut(self, idx: int) -> None:
        """Ask the shard for a checkpoint and remember where the cut is."""
        st = self.states[idx]
        st.worker.request_snapshot(checkpoint=True)
        st.cut = _Cut(seq=st.journal_head + len(st.journal),
                      dropped=st.journal_dropped,
                      requested_at=self._clock())
        st.since_checkpoint_events = 0

    def _land_cut(self, idx: int, timeout: float) -> bool:
        """Take in the reply to the shard's outstanding cut, waiting at
        most ``timeout`` for it (0 only looks).  True when no cut is
        outstanding afterwards.

        Replies are FIFO, so whoever is about to wait for an ack or a
        snapshot requested after the cut calls this first.  Only here is
        the journal cut back: to the batches sent after the request.
        """
        st = self.states[idx]
        cut = st.cut
        if cut is None:
            return True
        snap = st.worker.recv_snapshot(timeout)
        if snap is None:
            return False
        if snap.state is None:
            raise ShardDied(
                f"shard {idx}: plain snapshot where a checkpoint was due")
        st.cut = None
        self._deliver(idx, snap, unconfirmed=st.since_checkpoint_events)
        st.checkpoint = snap.state
        st.checkpoint_lost_ops = snap.lost_pending_ops
        st.checkpoint_ops_ledgered = False
        while st.journal_head < cut.seq:
            st.journal_events -= len(st.journal.popleft())
            st.journal_head += 1
        # Whatever was ledgered as a gap was dropped before the request,
        # so all of it is among the drops the checkpoint now covers.
        st.journal_dropped -= cut.dropped
        st.dropped_ledgered = 0
        st.merged_violations = 0
        st.kills.clear()
        self._g_journal[idx].set(float(st.journal_events))
        self._g_checkpoint_bytes[idx].set(float(len(snap.state)))
        self._g_checkpoint_export[idx].set(snap.export_seconds)
        self._h_checkpoint.observe(self._clock() - cut.requested_at)
        return True

    # -- liveness ----------------------------------------------------------
    def tick(self) -> None:
        """Cheap periodic duty: due restarts and heartbeat rounds.

        Call from the data path (the fabric calls it per batch) or a
        poll loop (the daemon); rate-limited to ``heartbeat_interval``.
        """
        for idx, st in enumerate(self.states):
            if st.worker is None:
                if st.recovering and self._clock() >= st.next_restart_at:
                    self._maybe_restart(idx)
                continue
            try:
                self._land_cut(idx, 0.0)
            except ShardDied as exc:
                self._on_death(idx, str(exc))
        if self._clock() - self._last_hb < self.policy.heartbeat_interval:
            return
        self._last_hb = self._clock()
        self.heartbeat()

    def heartbeat(self) -> None:
        """Ping every live worker; a missing/late ack kills and recovers."""
        pinged: List[int] = []
        self._hb_seq += 1
        for idx, st in enumerate(self.states):
            if st.worker is None:
                continue
            if not st.worker.is_alive():
                self._on_death(idx, "process exited")
                continue
            try:
                st.worker.ping(self._hb_seq)
                pinged.append(idx)
            except (ShardDied, ShardTimeout) as exc:
                self._on_death(idx, str(exc))
        for idx in pinged:
            st = self.states[idx]
            timeout = self.policy.heartbeat_timeout
            try:
                ack = st.worker.recv_ack(timeout) \
                    if self._land_cut(idx, timeout) else None
            except ShardDied as exc:
                self._on_death(idx, str(exc))
                continue
            if ack is None:
                self._on_death(
                    idx, f"no heartbeat ack within "
                         f"{self.policy.heartbeat_timeout}s")

    def recovering(self) -> List[int]:
        """Shards currently down awaiting (or mid-) restart."""
        return [idx for idx, st in enumerate(self.states)
                if st.recovering]

    def failed(self) -> List[int]:
        return [idx for idx, st in enumerate(self.states) if st.failed]

    def liveness(self) -> List[Dict[str, object]]:
        """Per-shard health for ``/healthz``, ``/stats``, and reports."""
        out: List[Dict[str, object]] = []
        for idx, st in enumerate(self.states):
            worker = st.worker
            out.append({
                "shard": idx,
                "alive": worker is not None and worker.is_alive(),
                "recovering": st.recovering,
                "failed": st.failed,
                "pid": worker.pid if worker is not None else None,
                "restarts": st.restarts,
                "journal_batches": len(st.journal),
                "journal_events": st.journal_events,
                "checkpoint_pending": st.cut is not None,
                "quarantined_batches": st.quarantined,
                "down_reason": st.down_reason,
            })
        return out

    def worker_pids(self) -> List[Optional[int]]:
        return [st.worker.pid if st.worker is not None else None
                for st in self.states]

    def total_restarts(self) -> int:
        return sum(st.restarts for st in self.states)

    # -- crash handling ----------------------------------------------------
    def _on_death(self, idx: int, reason: str) -> None:
        """Mark a shard down and schedule its restart."""
        st = self.states[idx]
        if st.worker is not None:
            st.worker.kill()
            st.worker = None
        # An unanswered cut dies with the worker: recovery starts from
        # the previous checkpoint and the whole, untruncated journal.
        st.cut = None
        st.down_reason = reason
        backoff = min(
            self.policy.backoff_max,
            self.policy.backoff_base * (2 ** st.consecutive_failures))
        st.consecutive_failures += 1
        st.next_restart_at = self._clock() + backoff
        self._g_up[idx].set(0.0)

    def _maybe_restart(self, idx: int, block: bool = False) -> bool:
        """Restart + rehydrate a down shard; True when it is live again.

        Non-blocking by default: before the backoff deadline this is a
        no-op (the shard keeps journaling).  ``block=True`` (quiesce)
        sleeps through the backoff and retries until live or failed.
        """
        st = self.states[idx]
        while st.recovering:
            delay = st.next_restart_at - self._clock()
            if delay > 0:
                if not block:
                    return False
                self._sleep(delay)
            if st.restarts >= self.policy.restart_budget:
                self._fail_shard(idx)
                return False
            st.restarts += 1
            self._c_restarts[idx].inc()
            t0 = self._clock()
            try:
                worker = self._spawn(idx)
            except Exception as exc:  # pragma: no cover - spawn is local
                self._on_death(idx, f"respawn failed: {exc}")
                if not block:
                    return False
                continue
            st.worker = worker
            try:
                self._rehydrate(idx)
            except (ShardDied, ShardTimeout) as exc:
                self._on_death(idx, f"died during recovery: {exc}")
                if not block:
                    return False
                continue
            st.consecutive_failures = 0
            st.down_reason = ""
            st.discard_violations = st.merged_violations
            # The replay delivered everything journaled since the last
            # checkpoint; resume cadence counters from there.
            st.since_checkpoint_events = st.journal_events
            st.since_snapshot_events = st.journal_events
            self._g_up[idx].set(1.0)
            self._h_recovery.observe(self._clock() - t0)
        return st.worker is not None

    def _rehydrate(self, idx: int) -> None:
        """Checkpoint restore + journal replay + advance, with poison
        detection: each replayed batch is pinged through, and a batch
        that keeps killing replacements is quarantined."""
        st = self.states[idx]
        worker = st.worker
        assert worker is not None
        if st.checkpoint is not None:
            worker.restore(st.checkpoint)
            if st.checkpoint_lost_ops and not st.checkpoint_ops_ledgered:
                st.checkpoint_ops_ledgered = True
                self._ledger_events(KIND_LOST_OP, st.checkpoint_lost_ops)
        if st.journal_dropped > st.dropped_ledgered:
            fresh = st.journal_dropped - st.dropped_ledgered
            st.dropped_ledgered = st.journal_dropped
            self._ledger_events(KIND_GAP, fresh)
        for batch in list(st.journal):
            try:
                worker.send_batch(batch)
                worker.ping(self._hb_seq)
                ack = worker.recv_ack(self.policy.heartbeat_timeout)
                if ack is None:
                    raise ShardTimeout(
                        f"shard {idx}: replay batch unacknowledged")
            except (ShardDied, ShardTimeout):
                kills = st.kills.get(id(batch), 0) + 1
                st.kills[id(batch)] = kills
                if kills >= self.policy.poison_threshold:
                    self._quarantine(idx, batch, kills)
                raise
            st.kills.pop(id(batch), None)
        worker.advance_to(self._now_fn())

    def _quarantine(self, idx: int, batch: List[DataplaneEvent],
                    kills: int) -> None:
        st = self.states[idx]
        try:
            st.journal.remove(batch)
            st.journal_events -= len(batch)
            self._g_journal[idx].set(float(st.journal_events))
        except ValueError:  # pragma: no cover - defensive
            pass
        st.quarantined += 1
        self._c_quarantined.inc()
        self.quarantine_log.append(QuarantineRecord(
            shard=idx, events=len(batch),
            first_time=batch[0].time if batch else 0.0,
            last_time=batch[-1].time if batch else 0.0,
            kills=kills))
        self._ledger_events(KIND_QUARANTINE, len(batch))

    def _fail_shard(self, idx: int) -> None:
        """Budget exhausted: give up, ledger everything unrecovered."""
        st = self.states[idx]
        st.failed = True
        st.down_reason = (
            f"restart budget ({self.policy.restart_budget}) exhausted")
        lost = st.journal_events \
            + (st.journal_dropped - st.dropped_ledgered)
        if lost:
            self._ledger_events(KIND_SHARD_LOST, lost)
        st.journal.clear()
        st.journal_events = 0
        st.journal_dropped = 0
        st.dropped_ledgered = 0
        self._g_journal[idx].set(0.0)
        self._g_up[idx].set(0.0)

    # -- teardown ----------------------------------------------------------
    def quiesce(self) -> List[Optional[ShardSnapshot]]:
        """Final snapshots: recover dead shards, then bounded quits.

        A shard that is down, or whose worker turns out dead at its final
        snapshot, is restarted — blocking through the backoff, so
        end-of-run state is not lost to unlucky timing — and asked
        again.  The restart budget still bounds this, and exhausting it
        ledgers the shard as lost.  Only a worker that does not answer
        within ``quiesce_timeout`` is ledgered as hung.  Every shard
        ends stopped: neither recovering nor restarted again.
        """
        out: List[Optional[ShardSnapshot]] = [None] * self.num_shards
        horizon = self._now_fn()
        timeout = self.policy.quiesce_timeout
        for idx, st in enumerate(self.states):
            snap = None
            while not st.failed:
                try:
                    if st.worker is None:
                        if not self._maybe_restart(idx, block=True):
                            break
                        st.worker.advance_to(horizon)
                        st.worker.drain()
                    # A cut still outstanding is answered before the
                    # final snapshot and carries violations of its own.
                    if self._land_cut(idx, timeout):
                        snap = st.worker.quit(timeout)
                    break
                except (ShardDied, ShardTimeout) as exc:
                    self._on_death(idx, str(exc))
            st.stopped = True
            if st.worker is None:
                continue
            if snap is None:
                # Hung at quiesce: the worker is killed; whatever it
                # saw since its last snapshot is unaccounted for.
                st.worker.kill()
                self._ledger_events(
                    KIND_QUIT_TIMEOUT, max(1, st.since_snapshot_events))
                st.worker = None
                st.cut = None
                st.down_reason = "hung at quiesce"
                self._g_up[idx].set(0.0)
                continue
            out[idx] = self._deliver(idx, snap)
            st.worker = None
            self._g_up[idx].set(0.0)
        return out

    def close(self) -> None:
        """Hard teardown of every worker (error paths, ``__del__``)."""
        for st in self.states:
            st.stopped = True
            if st.worker is not None:
                st.worker.kill()
                st.worker = None

    # -- ledger ------------------------------------------------------------
    def _ledger_events(self, kind: str, count: int) -> None:
        if count:
            self.ledger.record(kind, FABRIC_ROW, IMPACT_MISSED, count)

    def _journal_append(self, st: _ShardState, idx: int,
                        events: List[DataplaneEvent]) -> None:
        st.journal.append(list(events))
        st.journal_events += len(events)
        bound = JOURNAL_INTERVALS * self.policy.checkpoint_interval
        waited = False
        while st.journal_events > bound and len(st.journal) > 1:
            if not waited and st.cut is not None \
                    and st.journal_head < st.cut.seq:
                # Back-pressure before loss: a batch the outstanding cut
                # covers waits (once per append) for that cut to land,
                # which trims it.
                waited = True
                try:
                    if self._land_cut(idx, self.policy.heartbeat_timeout):
                        continue
                except (ShardDied, ShardTimeout) as exc:
                    self._on_death(idx, str(exc))
            aged = st.journal.popleft()
            if st.cut is not None and st.journal_head < st.cut.seq:
                st.cut.dropped += len(aged)
            st.journal_head += 1
            st.journal_events -= len(aged)
            st.journal_dropped += len(aged)
            st.kills.pop(id(aged), None)
        self._g_journal[idx].set(float(st.journal_events))
