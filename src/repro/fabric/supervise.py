"""Shard supervision: heartbeats, crash recovery, poison quarantine.

PR 8's fabric assumed immortal workers: a crashed shard silently stopped
monitoring its key slice forever.  The :class:`Supervisor` makes worker
death a *ledgered, recoverable* event instead:

* **Detection** — every parent-side wait on a worker (a send, a reply,
  an ack) ends only after the one ``heartbeat_timeout`` of *silence*
  (``ShardDied`` on a closed pipe, ``ShardTimeout`` on a wedged one):
  a worker restoring or exporting a large state says so with keepalive
  frames, so the deadline counts silence, not size.  A periodic
  heartbeat (``b"H"`` ping / ``b"A"`` ack) catches workers that hang
  between data-path calls.
* **Recovery** — dead workers restart with exponential backoff under a
  per-shard restart budget.  The replacement is rehydrated from the
  last checkpoint that landed (the worker's pickled
  :class:`~repro.core.monitor.MonitorState` — instances, timers and
  counters — carried on a ``ShardSnapshot`` as bytes this process never
  opens), acknowledged on its own before any replay, plus a per-shard
  journal of every batch delivered since that checkpoint, replayed in
  order — every batch followed by a ping, the acks read after the last
  one — then advanced to the fabric's present; the replacement then
  reports what the dead worker would have.
* **One rule** — while a worker lives, its journal is exactly the
  batches it has seen since its last landed checkpoint.  The journal is
  bounded in *events*: ``JOURNAL_INTERVALS`` times the size at which a
  cut falls due.  A live worker past the bound must land a cut before
  ``heartbeat_timeout`` of silence (back-pressure on the sender) or it
  is dead; only a down shard ages batches out, and each is ledgered as
  a gap as it goes.
* **Checkpoints off the data path** — a cut falls due once the journal
  holds ``max(live, CHECKPOINT_FLOOR)`` events, ``live`` being the live
  instances the shard's last snapshot reported; once one is due and
  none is out, the supervisor *requests* a checkpoint and keeps
  routing.  A cut then exports at most about as many instances as
  events arrived since the one before, so the export costs O(1) per
  event however large the state grows.  The channel is FIFO in
  both directions, so the request is a consistent cut (:class:`_Cut`):
  the state the worker exports reflects exactly the batches sent before
  the request, whatever is sent while the reply is outstanding comes
  after it, and the reply precedes the reply to anything requested
  later.  So short of the journal bound nothing waits for it:
  whichever receive the supervisor does next — the look before a send,
  ``tick``, a heartbeat's ack wait, a sync, ``quiesce`` — takes the
  reply in first (:meth:`Supervisor._land_cut`), and only then is the
  journal cut back to the batches sent after the request.  A worker
  that dies with a cut outstanding forgets it and recovers from the
  previous checkpoint and the whole journal.
* **Honesty** — anything recovery cannot reconstruct (events aged out
  of a down shard's journal, deferred split-mode ops at the checkpoint,
  a shard that exhausts its budget) is counted in the fabric's
  :class:`OverflowLedger`, so crashes *widen the detection-uncertainty
  interval* instead of silently dropping violations.
* **Quarantine** — a batch whose replay kills the replacement worker
  ``POISON_THRESHOLD`` times is set aside: removed from the journal,
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
from typing import Callable, Deque, Dict, List, Optional

from ..core.degradation import FABRIC_ROW, IMPACT_MISSED, OverflowLedger
from ..switch.events import DataplaneEvent
from ..telemetry import MetricsRegistry, NullRegistry
from ..telemetry.metrics import LATENCY_BUCKETS
from .mp import MpShard, ShardDied, ShardTimeout
from .shard import ShardSnapshot

#: ledger kinds the supervisor writes (each count bounds both sides: a
#: lost event could hide a real violation or leave a stale instance
#: that later completes spuriously).
KIND_GAP = "crash-gap"              # aged out of a down shard's journal
KIND_LOST_OP = "crash-lost-op"      # deferred split ops at the checkpoint
KIND_QUARANTINE = "quarantined-batch"
KIND_SHARD_LOST = "shard-lost"      # restart budget exhausted
KIND_QUIT_TIMEOUT = "shard-quit-timeout"

#: The fewest journal events at which a cut falls due.  A shard's cut
#: falls due at ``max(live, CHECKPOINT_FLOOR)`` events, ``live`` being
#: the live instances its last snapshot reported: the cadence follows
#: the state, so a cut's export is paid for by as many events.
CHECKPOINT_FLOOR = 2048

#: A shard's journal holds at most this many due sizes of events (and
#: always its newest batch).  Counted in events, the unit of the due
#: size, so the journal reaches back to the last landed checkpoint
#: whatever size the batches are.  A live worker past the bound lands a
#: cut before ``heartbeat_timeout`` of silence — which trims the journal
#: — or is taken for dead; only while a shard is down do its oldest
#: batches age out, into the ledger as an unrecoverable gap.
JOURNAL_INTERVALS = 8

#: replay deaths charged to one journal batch before it is quarantined
POISON_THRESHOLD = 2


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs for crash detection and restart pacing."""

    #: wall seconds between heartbeat rounds (``tick()`` rate-limits)
    heartbeat_interval: float = 1.0
    #: wall seconds of silence that end any wait on a worker: an ack, a
    #: snapshot, a checkpoint due at the journal bound, a final
    #: snapshot, a send (a restoring or exporting worker keeps talking)
    heartbeat_timeout: float = 5.0
    #: restarts allowed per shard before it is declared failed
    restart_budget: int = 5
    #: backoff before restart attempt k is ``base * 2**k`` (capped)
    backoff_base: float = 0.05
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.restart_budget < 0:
            raise ValueError(
                f"restart_budget must be >= 0, got {self.restart_budget}")
        for name in ("heartbeat_interval", "heartbeat_timeout",
                     "backoff_base", "backoff_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class _Cut:
    """A checkpoint requested of a worker and not yet answered."""

    #: journal sequence number of the first batch sent after the
    #: request; every batch before it is in the state the reply carries
    seq: int
    #: wall clock at the request
    requested_at: float


@dataclass
class _ShardState:
    """Supervisor-side bookkeeping for one shard."""

    worker: Optional[MpShard] = None
    #: batches routed to the shard since its last landed checkpoint,
    #: oldest first: what its worker has seen since then (or, while it
    #: is down, will replay); the recovery replay source
    journal: Deque[List[DataplaneEvent]] = field(default_factory=deque)
    #: sequence number of ``journal[0]`` (batches that have left the
    #: journal's old end); a batch's own number is this plus its index
    journal_head: int = 0
    journal_events: int = 0
    #: live instances the shard's last snapshot reported
    live_instances: int = 0
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
    #: events routed that no merged snapshot reflects yet (the queue
    #: depth gauge; what a quit-timeout loses)
    since_snapshot_events: int = 0
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
    def checkpoint_due(self) -> int:
        """Journal events at which a cut falls due."""
        return max(self.live_instances, CHECKPOINT_FLOOR)

    @property
    def over_bound(self) -> bool:
        return len(self.journal) > 1 and self.journal_events \
            > JOURNAL_INTERVALS * self.checkpoint_due

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
    down for a few batches loses nothing, it just answers late.  Every
    snapshot leaves through ``merge``: the fabric's merge of one shard's
    snapshot, after the supervisor has trimmed replayed violations.
    """

    def __init__(
        self,
        spawn: Callable[[int], MpShard],
        num_shards: int,
        ledger: OverflowLedger,
        merge: Callable[[ShardSnapshot], None],
        policy: Optional[SupervisorPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        now_fn: Callable[[], float] = lambda: 0.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.num_shards = num_shards
        self.ledger = ledger
        self.registry = registry if registry is not None else NullRegistry()
        self._spawn = spawn
        self._merge = merge
        self._now_fn = now_fn      # fabric/monitor (virtual) time
        self._clock = clock        # wall time for backoff/heartbeats
        self._sleep = sleep
        self._hb_seq = 0
        self._last_hb = clock()
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
        self._g_queue = [
            self.registry.gauge(
                "repro_fabric_shard_queue_depth",
                help="Events forwarded to one shard and not yet confirmed "
                     "by a snapshot sync",
                labels={"shard": str(i)})
            for i in range(num_shards)
        ]
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
        st.journal.append(list(events))
        st.journal_events += len(events)
        st.since_snapshot_events += len(events)
        if st.worker is None:
            # A successful restart replays the whole journal — which
            # already includes the batch just appended — so this path
            # must never ALSO deliver it directly (double-observation).
            self._age_out(idx)
            self._maybe_restart(idx)
        else:
            try:
                self._land_cut(idx, 0.0)
                st.worker.send_batch(events)
                if st.cut is None \
                        and st.journal_events >= st.checkpoint_due:
                    self._request_cut(idx)
                self._hold_to_the_bound(idx)
            except (ShardDied, ShardTimeout) as exc:
                self._on_death(idx, str(exc))
        self._publish(idx)

    def _hold_to_the_bound(self, idx: int) -> None:
        """A live worker past the journal bound lands a cut before
        ``heartbeat_timeout`` of silence (requested now if none is out),
        which trims the journal; one that does not is dead."""
        st = self.states[idx]
        timeout = self.policy.heartbeat_timeout
        while st.worker is not None and st.over_bound:
            if st.cut is None:
                self._request_cut(idx)
            if not self._land_cut(idx, timeout):
                self._on_death(
                    idx, f"shard {idx}: no checkpoint and {timeout}s of "
                         f"silence with its journal past the bound")

    def _age_out(self, idx: int) -> None:
        """A down shard's journal past the bound loses its oldest
        batches, each ledgered as a gap as it goes."""
        st = self.states[idx]
        while st.over_bound:
            aged = st.journal.popleft()
            st.journal_head += 1
            st.journal_events -= len(aged)
            st.kills.pop(id(aged), None)
            self._ledger_events(KIND_GAP, len(aged))

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
    def sync_snapshots(self) -> None:
        """Merge one snapshot per live shard; shards down this round skip
        a beat, and their state arrives with a later sync."""
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
        timeout = self.policy.heartbeat_timeout
        for idx in requested:
            st = self.states[idx]
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
            self._deliver(idx, snap)

    def _deliver(self, idx: int, snap: ShardSnapshot,
                 unconfirmed: int = 0) -> None:
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
        st.live_instances = snap.live_instances
        st.since_snapshot_events = unconfirmed
        self._publish(idx)
        self._merge(snap)

    # -- checkpoints -------------------------------------------------------
    def _request_cut(self, idx: int) -> None:
        """Ask the shard for a checkpoint and remember where the cut is."""
        st = self.states[idx]
        st.worker.request_snapshot(checkpoint=True)
        st.cut = _Cut(seq=st.journal_head + len(st.journal),
                      requested_at=self._clock())

    def _land_cut(self, idx: int, timeout: float) -> bool:
        """Take in the reply to the shard's outstanding cut, waiting at
        most ``timeout`` for it (0 only looks).  True when no cut is
        outstanding afterwards.

        Replies are FIFO, so whoever is about to wait for an ack or a
        snapshot requested after the cut calls this first.  Only here is
        the journal cut back: to the batches sent after the request,
        which are also the events the checkpoint does not confirm.
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
        while st.journal_head < cut.seq:
            st.journal_events -= len(st.journal.popleft())
            st.journal_head += 1
        st.checkpoint = snap.state
        st.checkpoint_lost_ops = snap.lost_pending_ops
        st.checkpoint_ops_ledgered = False
        self._deliver(idx, snap, unconfirmed=st.journal_events)
        st.merged_violations = 0
        st.kills.clear()
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
        timeout = self.policy.heartbeat_timeout
        for idx in pinged:
            st = self.states[idx]
            try:
                ack = st.worker.recv_ack(timeout) \
                    if self._land_cut(idx, timeout) else None
            except ShardDied as exc:
                self._on_death(idx, str(exc))
                continue
            if ack is None:
                self._on_death(idx, f"no heartbeat ack within {timeout}s")

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
                "checkpoint_due": st.checkpoint_due,
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
            # checkpoint, none of it confirmed by a snapshot yet.
            st.since_snapshot_events = st.journal_events
            self._publish(idx)
            self._g_up[idx].set(1.0)
            self._h_recovery.observe(self._clock() - t0)
        return st.worker is not None

    def _rehydrate(self, idx: int) -> None:
        """Checkpoint restore + journal replay + advance, with poison
        detection: the restore is acknowledged on its own, so a worker
        lost to it charges no batch; then each replayed batch is followed
        by a ping carrying its index, and the acks are read after the
        last one.  The first batch not acknowledged when the worker dies
        or times out is charged with the kill; one charged
        ``POISON_THRESHOLD`` times is quarantined."""
        st = self.states[idx]
        worker = st.worker
        assert worker is not None
        timeout = self.policy.heartbeat_timeout
        if st.checkpoint is not None:
            worker.restore(st.checkpoint)
            worker.ping(0)
            if worker.recv_ack(timeout) is None:
                raise ShardTimeout(f"shard {idx}: restore unacknowledged")
            if st.checkpoint_lost_ops and not st.checkpoint_ops_ledgered:
                st.checkpoint_ops_ledgered = True
                self._ledger_events(KIND_LOST_OP, st.checkpoint_lost_ops)
        batches = list(st.journal)
        acked = 0
        try:
            try:
                for seq, batch in enumerate(batches):
                    worker.send_batch(batch)
                    worker.ping(seq)
            finally:
                # Acks that came back before a failed send stay readable;
                # the handle raises once none is left.
                while acked < len(batches):
                    if worker.recv_ack(timeout) is None:
                        raise ShardTimeout(
                            f"shard {idx}: replay batch {acked} "
                            f"unacknowledged")
                    acked += 1
        except (ShardDied, ShardTimeout):
            charged = id(batches[acked])
            st.kills[charged] = st.kills.get(charged, 0) + 1
            if st.kills[charged] >= POISON_THRESHOLD:
                self._quarantine(idx, acked)
            raise
        finally:
            for batch in batches[:acked]:
                st.kills.pop(id(batch), None)
        worker.advance_to(self._now_fn())

    def _quarantine(self, idx: int, position: int) -> None:
        """Set the journal batch at ``position`` aside for good."""
        st = self.states[idx]
        batch = st.journal[position]
        del st.journal[position]
        st.kills.pop(id(batch), None)
        st.journal_events -= len(batch)
        st.quarantined += 1
        self._c_quarantined.inc()
        self._ledger_events(KIND_QUARANTINE, len(batch))
        self._publish(idx)

    def _fail_shard(self, idx: int) -> None:
        """Budget exhausted: give up, ledger everything unrecovered."""
        st = self.states[idx]
        st.failed = True
        st.down_reason = (
            f"restart budget ({self.policy.restart_budget}) exhausted")
        self._ledger_events(KIND_SHARD_LOST, st.journal_events)
        st.journal.clear()
        st.journal_events = 0
        st.since_snapshot_events = 0
        self._publish(idx)
        self._g_up[idx].set(0.0)

    # -- teardown ----------------------------------------------------------
    def quiesce(self) -> None:
        """Final snapshots: recover dead shards, then bounded quits.

        A shard that is down, or whose worker turns out dead at its final
        snapshot, is restarted — blocking through the backoff, so
        end-of-run state is not lost to unlucky timing — and asked
        again.  The restart budget still bounds this, and exhausting it
        ledgers the shard as lost.  Only a worker that does not answer
        within ``heartbeat_timeout`` is ledgered as hung.  Every shard
        ends stopped: neither recovering nor restarted again.
        """
        horizon = self._now_fn()
        timeout = self.policy.heartbeat_timeout
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
            self._deliver(idx, snap)
            st.worker = None
            self._g_up[idx].set(0.0)

    def close(self) -> None:
        """Hard teardown of every worker (error paths, ``__del__``)."""
        for st in self.states:
            st.stopped = True
            if st.worker is not None:
                st.worker.kill()
                st.worker = None

    # -- ledger and gauges -------------------------------------------------
    def _ledger_events(self, kind: str, count: int) -> None:
        if count:
            self.ledger.record(kind, FABRIC_ROW, IMPACT_MISSED, count)

    def _publish(self, idx: int) -> None:
        """Gauge one shard's journal and its unconfirmed events."""
        st = self.states[idx]
        self._g_journal[idx].set(float(st.journal_events))
        self._g_queue[idx].set(float(st.since_snapshot_events))
